#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, and what they show.

    python3 tools/paired.py A B --workload W --pairs N [--seconds S]
                                [--out DIR]

``A`` (the parent) and ``B`` (the change) are git revisions.  Each is
built with ``git archive`` into a temporary directory (no worktree; the
checkout is not touched), then each pair runs both trees' own
``benchmarks/e2e/run.py`` once, untraced, at seed 0, alternating which
side goes first.  Every run file is kept in ``--out`` (default: a fresh
temporary directory, printed).

Per end-to-end metric it prints each side's median and q1..q3 over the
pairs, how many pairs B won, a two-sided sign-test p over the pairs
that were not ties, and how often ``compare.py``'s verdict on a single
pair came out each way.  A metric is flagged ``worse`` when the pooled
runs put B's median beyond the metric's bound (``compare.py``'s rule on
all runs at once), ``gain`` when B won at least nine pairs in ten and
its median is better by more than the spread between A's quartiles,
and ``differs`` when a count the program makes is not identical.  The
last line is a verdict to paste into ``CHANGES.md``.  Exits 1 when a
metric is ``worse`` or ``differs``, a digest differs, or a run is not
correct.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as the benchmark computes them; a single value
    is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p for ``wins`` against ``losses`` (ties
    already left out): the chance of a split at least this uneven when
    either side wins each pair with probability one half."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def wins_losses(a: list[float], b: list[float], higher_is_better: bool) -> tuple[int, int]:
    """Pairs B won and lost (ties count as neither)."""
    wins = losses = 0
    for x, y in zip(a, b, strict=True):
        if x == y:
            continue
        if (y > x) == higher_is_better:
            wins += 1
        else:
            losses += 1
    return wins, losses


def is_gain(a: list[float], b: list[float], wins: int, higher_is_better: bool) -> bool:
    """B won at least nine pairs in ten, and its median is better by
    more than the distance between A's quartiles."""
    q1, median_a, q3 = quartiles(a)
    median_b = quartiles(b)[1]
    better_by = median_b - median_a if higher_is_better else median_a - median_b
    return wins * 10 >= len(a) * 9 and better_by > q3 - q1


def verdict_line(
    workload: str, label: str, pairs: int, flags: dict[str, str],
    rows: dict[str, tuple[int, float, float]], digests_identical: bool,
    correct: int, runs: int,
) -> str:
    """One line for ``CHANGES.md``.  ``flags`` maps a flagged metric to
    its flag; ``rows`` maps every metric to (B's wins, sign-test p, B's
    change of the median as a share of A's, signed toward better)."""
    parts = []
    for name, flag in flags.items():
        wins, p, change = rows[name]
        parts.append(f"{name} {flag} {wins}/{pairs} (p={p:.3g}, {change:+.1%})")
    findings = "; ".join(parts) if parts else "no metric flagged"
    digests = "digests identical" if digests_identical else "DIGESTS DIFFER"
    return (
        f"paired {workload} {label}, {pairs} pairs: {findings}; {digests}; "
        f"correct {correct}/{runs}"
    )


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def build_tree(revision: str, into: Path) -> str:
    """Extract ``revision`` into ``into``; returns its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", commit], cwd=REPO,
        stdout=subprocess.PIPE,
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def run_once(tree: Path, workload: str, seconds: float, out: Path) -> dict:
    """One untraced run of ``tree``'s own benchmark; its ``--out`` record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks/e2e/run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", "0",
         "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if not out.exists():
        raise RuntimeError(f"{tree.name} run failed:\n{done.stderr[-2000:]}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = args.out or Path(tempfile.mkdtemp(prefix=f"paired-{args.workload}-"))
    out.mkdir(parents=True, exist_ok=True)
    trees = Path(tempfile.mkdtemp(prefix="paired-trees-"))
    try:
        sides = {"A": trees / "A", "B": trees / "B"}
        commits = {name: build_tree(rev, sides[name])
                   for name, rev in (("A", args.a), ("B", args.b))}
        print(f"A = {args.a} ({commits['A'][:10]}), B = {args.b} "
              f"({commits['B'][:10]}), runs in {out}", flush=True)
        runs: dict[str, list[dict]] = {"A": [], "B": []}
        for pair in range(args.pairs):
            for name in ("AB" if pair % 2 == 0 else "BA"):
                record = run_once(sides[name], args.workload, args.seconds,
                                  out / f"{name}-{pair:02d}.json")
                runs[name].append(record)
            print(f"pair {pair + 1}/{args.pairs} done", flush=True)
        # The frozen benchmark's own catalogue and compare.py rules.
        sys.path.insert(0, str(sides["A"] / "benchmarks/e2e"))
        metrics = importlib.import_module("metrics")
        compare = importlib.import_module("compare")
        return report(args, runs, metrics, compare)
    finally:
        shutil.rmtree(trees, ignore_errors=True)


def report(args, runs: dict[str, list[dict]], metrics, compare) -> int:
    pairs = args.pairs
    print(f"{'metric':<21}{'A median':>12}{'A q1..q3':>25}{'B median':>12}"
          f"{'B q1..q3':>25}{'B wins':>8}{'sign p':>8}  compare.py verdicts / flag")
    flags: dict[str, str] = {}
    rows: dict[str, tuple[int, float, float]] = {}
    status = 0
    for metric in metrics.END_TO_END:
        a = [r["metrics"][metric.name]["value"] for r in runs["A"]]
        b = [r["metrics"][metric.name]["value"] for r in runs["B"]]
        higher = metric.better == metrics.HIGHER
        wins, losses = wins_losses(a, b, higher)
        p = sign_test(wins, losses)
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        rows[metric.name] = (wins, p, change if higher else -change)
        counts: dict[str, int] = {}
        for ra, rb in zip(runs["A"], runs["B"], strict=True):
            _, word = compare.verdict(
                metric, compare.side([ra], metric.name),
                compare.side([rb], metric.name), True,
            )
            counts[word] = counts.get(word, 0) + 1
        _, pooled = compare.verdict(
            metric, compare.side(runs["A"], metric.name),
            compare.side(runs["B"], metric.name), True,
        )
        flag = ""
        if metric.exact and a != b:
            flag = "differs"
        elif pooled == "worse":
            flag = "worse"
        elif is_gain(a, b, wins, higher):
            flag = "gain"
        if flag:
            flags[metric.name] = flag
            status |= flag in ("worse", "differs")
        words = ", ".join(f"{n} {w}" for w, n in sorted(counts.items()))
        print(f"{metric.name:<21}{qa[1]:>12.5g}{f'{qa[0]:.5g}..{qa[2]:.5g}':>25}"
              f"{qb[1]:>12.5g}{f'{qb[0]:.5g}..{qb[2]:.5g}':>25}"
              f"{f'{wins}/{pairs}':>8}{p:>8.3g}  {words}"
              + (f"  ** {flag}" if flag else ""))
    digests = {r["assignment_digest"] for r in runs["A"] + runs["B"]}
    correct = sum(bool(r["correct"]) and not r["failed"]
                  for r in runs["A"] + runs["B"])
    if len(digests) != 1 or correct != 2 * pairs:
        status = 1
    print(verdict_line(args.workload, f"{args.a}..{args.b}", pairs, flags, rows,
                       len(digests) == 1, correct, 2 * pairs))
    return status


if __name__ == "__main__":
    sys.exit(main())
