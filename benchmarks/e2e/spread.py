"""How steady is the benchmark?  Run every workload once per seed, the
way the driver does, and hold each end-to-end metric's spread against
its bound.

    python3 benchmarks/e2e/spread.py [--runs 10] [--first-seed 0]
                                     [--workload NAME] [--out FILE]

Spread = (third quartile - first quartile) / median over the runs, by
``statistics.quantiles(values, n=4)``.  A benchmark change is ready
when every spread but ``setup_s``'s is below a third of its bound;
above the bound the driver refuses the benchmark.  Exits 1 in that case.
The ``raw`` column is the spread of the same timings as the clock read
them, before ``hostspeed`` restated them at nominal host speed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import metrics
from harness import OUT_DIR, quartiles

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """The run's ``--out`` record, which has the raw timings too."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = OUT_DIR / f"spread-{workload}.json"
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--out", str(record)],
        capture_output=True,
        text=True,
        timeout=200,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    try:
        return {**json.loads(record.read_text()), "wall_s": time.perf_counter() - began}
    finally:
        record.unlink()


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = quartiles(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES, action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    table = {}
    refused = False
    for workload in args.workload or metrics.WORKLOAD_NAMES:
        runs = [
            one_run(workload, seed, args.seconds)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        print(f"\n{workload}: {args.runs} seeds from {args.first_seed}")
        print(
            f"{'metric':<22}{'median':>14}{'spread':>9}{'raw':>9}{'bound':>7}  verdict"
        )
        for metric in metrics.END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            median, share = spread(values)
            clock = [run["metrics"][metric.name]["raw"] for run in runs]
            raw = "" if None in clock else f"{spread(clock)[1]:.1%}"
            if metric.name == "setup_s" or share < metric.bound / 3:
                verdict = "steady"
            elif share <= metric.bound:
                verdict = "above a third of the bound"
            else:
                verdict = "ABOVE THE BOUND"
                refused = True
            print(
                f"{metric.name:<22}{median:>14.4f}{share:>9.1%}{raw:>9}"
                f"{metric.bound:>7.0%}  {verdict}"
            )
            table[f"{workload}/{metric.name}"] = {
                "values": values, "raw": clock, "median": median, "spread": share,
            }
        failed = sum(run["failed"] for run in runs)
        walls = sorted(run["wall_s"] for run in runs)
        print(
            f"failed operations: {failed}; a run took {walls[len(walls) // 2]:.1f} s "
            f"(longest {walls[-1]:.1f} s) of the 37 s the driver has for one"
        )
        refused = refused or failed > 0
    if args.out:
        args.out.write_text(json.dumps(table, indent=1) + "\n")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
