"""End-to-end benchmark: four workloads, one command.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME]
                                  [--seconds S] [--trace [0|1]]
                                  [--out FILE] [--quick]

With ``--workload`` this is one run of one workload: untraced
(``--trace 0``) it reports every end-to-end metric, traced
(``--trace 1``) every per-layer metric plus the span breakdown, and the
last line of standard output is the result as one JSON object.  Without
``--workload`` it runs all four, each in a process of its own -- and,
given ``--trace``, each a second time traced -- prints every table and
writes the lot to ``--out``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import subprocess
import sys
from pathlib import Path

import metrics
from harness import (
    HERE,
    OUT_DIR,
    SRC_DIR,
    Result,
    Tracer,
    adopt_orphans,
    breakdown,
    environment,
    reap_children,
    self_times,
    stop_own_resource_tracker,
)

# The program under test is the one in this checkout.
sys.path.insert(0, str(SRC_DIR))

#: A run that has not finished by now is hung: fail, do not stall.
RUN_TIMEOUT_SECONDS = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", type=Path)
    parser.add_argument(
        "--quick", action="store_true",
        help="inputs a tenth the size: for the self-tests, not for numbers",
    )
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> dict:
    """One run of one workload in this process."""
    from workloads import RUNNERS, Context  # needs repro on the path

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_TIMEOUT_SECONDS} s")

    def on_term(signum, frame):
        # Unwind like a timeout does, so daemons are stopped and reaped.
        raise SystemExit("terminated")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(RUN_TIMEOUT_SECONDS)
    traced = bool(args.trace)
    tracer = Tracer(args.workload, enabled=traced)
    result = Result(args.workload, args.seed, traced)
    with contextlib.ExitStack() as stack:
        ctx = Context(
            args.workload, args.seed, args.seconds, args.quick, tracer, result, stack
        )
        with tracer.span("bench.run"):
            RUNNERS[args.workload](ctx)
    signal.alarm(0)

    missing = [m.name for m in metrics.END_TO_END if m.name not in result.metrics]
    if missing:
        raise RuntimeError(f"{args.workload} did not report {missing}")
    if traced:
        unknown = set(result.layers) - set(metrics.PER_LAYER_BY_NAME)
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
        _trace_metrics(tracer, result)
        tracer.write(OUT_DIR / f"trace-{args.workload}.json")
        result.breakdown = breakdown(tracer.spans)
    record = result.as_dict()
    record.update(environment(), seconds=args.seconds, quick=args.quick)
    return record


#: Spans that only group others.  Their self time is what no named
#: span accounts for; everything else in the table is a layer call or a
#: named chore of the benchmark (``bench.gc``, ``bench.verify``, ...).
CONTAINER_SPANS = ("bench.run", "bench.setup", "bench.timed", "bench.quality")


def _trace_metrics(tracer, result) -> None:
    """What tracing cost, and how much of the run no layer span covers."""
    root = next(s for s in tracer.spans if s["name"] == "bench.run")
    wall = root["end"] - root["start"]
    own = self_times(tracer.spans)
    glue = sum(own[s["id"]] for s in tracer.spans if s["name"] in CONTAINER_SPANS)
    result.layers["bench.trace.overhead_share"] = (
        len(tracer.spans) * tracer.span_cost() / wall
    )
    result.layers["bench.trace.unattributed_share"] = glue / wall


def driver_line(record: dict) -> str:
    """The one-line result the driver reads: end-to-end metrics of an
    untraced run, per-layer metrics (0 for a layer the workload never
    enters) of a traced one."""
    if record["traced"]:
        values = {
            m.name: {"value": record["layers"].get(m.name, 0), "unit": m.unit}
            for m in metrics.PER_LAYER
        }
    else:
        values = {
            m.name: {"value": record["metrics"][m.name]["value"], "unit": m.unit}
            for m in metrics.END_TO_END
        }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": values,
        }
    )


def print_record(record: dict) -> None:
    kind = "traced" if record["traced"] else "untraced"
    print(
        f"\n== {record['workload']} ({kind}, seed {record['seed']}, "
        f"{record['seconds']:g} s) =="
    )
    print(f"input {record['notes'].get('input')}")
    print(f"input sha256      {record['input_digest']}")
    print(f"assignment sha256 {record['assignment_digest']}")
    print(
        f"failed_ops_rate   {record['failed_ops_rate']:.6f} "
        f"({record['failed']} of {record['attempted']})"
    )
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if not record["traced"]:
        # "raw" is a timing as the clock read it; "value" restates it at
        # nominal host speed (hostspeed.py) and is what the driver gets.
        print(
            f"{'metric':<22}{'value':>14} {'unit':<6}{'q1':>13}{'q3':>13}"
            f"{'raw':>14}{'n':>6}  how"
        )
        for metric in metrics.END_TO_END:
            m = record["metrics"][metric.name]
            raw = "" if m["raw"] is None else f"{m['raw']:.4f}"
            print(
                f"{metric.name:<22}{m['value']:>14.4f} {m['unit']:<6}"
                f"{m['q1']:>13.4f}{m['q3']:>13.4f}{raw:>14}{m['n']:>6}  {m['how']}"
            )
        print(f"host speed {record['notes'].get('host_speed')}")
        return
    print(f"{'per-layer metric':<42}{'value':>16} unit")
    for metric in metrics.PER_LAYER:
        if metric.name in record["layers"]:
            print(
                f"{metric.name:<42}{record['layers'][metric.name]:>16.6f} "
                f"{metric.unit}"
            )
    wall = next(
        r["total_s"] for r in record["breakdown"] if r["name"] == "bench.run"
    )
    print(f"{'lane':<12}{'span':<36}{'calls':>7}{'self s':>10}{'share':>8}")
    for row in record["breakdown"][:24]:
        print(
            f"{row['lane']:<12}{row['name']:<36}{row['calls']:>7}"
            f"{row['self_s']:>10.3f}{row['self_s'] / wall:>8.1%}"
        )


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a process of its own, so one workload's memory
    and state never reach the next."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    records = []
    status = 0
    for workload in metrics.WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            scratch = OUT_DIR / f"run-{workload}-{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(scratch),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(
                command, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_SECONDS + 30
            )
            status = status or done.returncode
            if scratch.exists():
                record = json.loads(scratch.read_text())
                scratch.unlink()
                records.append(record)
                print_record(record)
    untraced = {r["workload"]: r for r in records if not r["traced"]}
    for record in records:
        if record["traced"] and record["workload"] in untraced:
            _print_overhead(untraced[record["workload"]], record)
    if args.out:
        args.out.write_text(json.dumps({"claim": None, "runs": records}, indent=1) + "\n")
    return status


#: The metric a workload exists for: what the traced run is held against.
PRIMARY = {
    "ingest-static": "ingest_events_per_s",
    "churn-recover": "ingest_events_per_s",
    "serve-query": "query_per_s",
    "serve-mixed-sharded": "query_per_s",
}


def _print_overhead(untraced: dict, traced: dict) -> None:
    name = PRIMARY[untraced["workload"]]
    plain = untraced["metrics"][name]["value"]
    spanned = traced["metrics"][name]["value"]
    print(
        f"tracing overhead on {untraced['workload']}: {name} "
        f"{plain:.1f} untraced, {spanned:.1f} traced "
        f"({(plain - spanned) / plain:+.1%} of wall time per unit); "
        f"calibrated span cost "
        f"{traced['layers']['bench.trace.overhead_share']:.3%} of the traced run"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    adopt_orphans()
    try:
        record = run_one(args)
    finally:
        # Whatever path led here, nothing this run started outlives it.
        signal.alarm(0)
        stop_own_resource_tracker()
        reap_children(grace=2.0)
    print_record(record)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(driver_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.exit(f"cannot import repro from {SRC_DIR}: the benchmark runs the "
                 "program in this checkout and there is none")
    sys.exit(main())
