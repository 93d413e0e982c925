"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent, ``B`` the change; each is a ``run.py --out`` file
(one run, or the all-workloads document) and may hold several runs of a
workload.  One row per workload x end-to-end metric: both medians and
quartiles, the change in the metric's worse direction, the bound from
``metrics.py``, and a verdict:

* ``within bound`` -- the medians differ by no more than the bound;
* ``unresolved``   -- they differ by more, but the spread on either side
  exceeds the bound and the interquartile ranges overlap, so the runs
  cannot tell;
* ``worse`` / ``better`` -- they differ by more than the bound, and the
  runs can tell.

Counts the program makes (``exact`` in ``metrics.py``) and the
assignment digests must be identical when both sides ran the same
seeds; a difference there is ``worse``.  Exits 1 on any ``worse`` row.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import metrics
from harness import quartiles


@dataclass
class Side:
    median: float
    q1: float
    q3: float
    runs: int

    @property
    def spread(self) -> float:
        return (self.q3 - self.q1) / self.median if self.median else 0.0


def load_runs(path: Path) -> dict[str, list[dict]]:
    """workload -> its untraced runs."""
    document = json.loads(path.read_text())
    runs = document["runs"] if "runs" in document else [document]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run["traced"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def side(runs: list[dict], name: str) -> Side:
    """Across runs when there are several; else the one run's own
    quartiles (over its trials or blocks)."""
    if len(runs) == 1:
        m = runs[0]["metrics"][name]
        return Side(m["value"], m["q1"], m["q3"], 1)
    q1, median, q3 = quartiles([run["metrics"][name]["value"] for run in runs])
    return Side(median, q1, q3, len(runs))


def verdict(metric: metrics.EndToEnd, a: Side, b: Side, same_seeds: bool) -> tuple[float, str]:
    """(change toward worse as a share of A, verdict)."""
    sign = 1.0 if metric.better == metrics.LOWER else -1.0
    worse_by = sign * (b.median - a.median) / a.median if a.median else 0.0
    if metric.exact and same_seeds:
        return worse_by, "within bound" if a.median == b.median else "worse"
    if abs(worse_by) <= metric.bound:
        return worse_by, "within bound"
    overlap = a.q1 <= b.q3 and b.q1 <= a.q3
    if max(a.spread, b.spread) > metric.bound and overlap:
        return worse_by, "unresolved"
    return worse_by, "worse" if worse_by > 0 else "better"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = (load_runs(Path(arg)) for arg in argv)
    worse = 0
    print(
        f"{'workload':<21}{'metric':<21}{'A median':>10}{'A q1..q3':>19}"
        f"{'B median':>10}{'B q1..q3':>19}{'worse by':>10}{'bound':>7}  verdict"
    )
    for workload in metrics.WORKLOAD_NAMES:
        if workload not in parent or workload not in change:
            continue
        runs_a, runs_b = parent[workload], change[workload]
        same_seeds = sorted(r["seed"] for r in runs_a) == sorted(
            r["seed"] for r in runs_b
        )
        for metric in metrics.END_TO_END:
            a, b = side(runs_a, metric.name), side(runs_b, metric.name)
            worse_by, word = verdict(metric, a, b, same_seeds)
            worse += word == "worse"
            print(
                f"{workload:<21}{metric.name:<21}{a.median:>10.5g}"
                f"{f'{a.q1:.5g}..{a.q3:.5g}':>19}{b.median:>10.5g}"
                f"{f'{b.q1:.5g}..{b.q3:.5g}':>19}{worse_by:>+10.1%}"
                f"{metric.bound:>7.0%}  {word}"
            )
        if same_seeds:
            digests_a = sorted((r["seed"], r["assignment_digest"]) for r in runs_a)
            digests_b = sorted((r["seed"], r["assignment_digest"]) for r in runs_b)
            word = "identical" if digests_a == digests_b else "worse"
            worse += word == "worse"
            print(f"{workload:<21}{'assignment_digest':<21}{'':>75}  {word}")
        failed = sum(r["failed"] for r in runs_b)
        if failed:
            worse += 1
            print(f"{workload:<21}{'failed operations':<21}{failed:>10}{'':>65}  worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
