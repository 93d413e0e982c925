"""Experiment harness: workload/parameter grids, result tables, rendering.

The paper has no evaluation section (it is a progress paper that
*promises* one), so the experiments here realise the evaluation it
describes: every claim in the text maps to an experiment id (see DESIGN.md
section 4), each of which can be run three ways --

* ``pytest benchmarks/bench_<id>_*.py --benchmark-only`` (timing +
  table output),
* ``python -m repro.cli experiment <ID>`` (table output),
* programmatically via :func:`repro.bench.experiments.run_experiment`.

These are quality experiments (cut, traversal probability, balance).
Wall-clock performance -- ingest, recovery, serving, pool refresh and
fan-out -- has one ruler, the repo benchmark under ``benchmarks/e2e``.
"""

from repro.bench.tables import Table, ascii_bar_chart
from repro.bench.harness import (
    MethodResult,
    evaluate_assignment,
    partition_with,
    STREAMING_METHODS,
)
from repro.bench.experiments import (
    EXPERIMENTS,
    run_experiment,
)

__all__ = [
    "Table",
    "ascii_bar_chart",
    "MethodResult",
    "evaluate_assignment",
    "partition_with",
    "STREAMING_METHODS",
    "EXPERIMENTS",
    "run_experiment",
]
