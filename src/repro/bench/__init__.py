"""Experiment suite: declared grids, one driver, result tables.

The paper has no evaluation section (it is a progress paper that
*promises* one), so the experiments here realise the evaluation it
describes: every claim in the text maps to an experiment id (catalogue:
``docs/experiments.md``), each declared once in
:mod:`repro.bench.experiments` and run two ways --

* ``python -m repro.cli experiment <ID>`` (table output),
* programmatically via :func:`repro.bench.experiments.run_experiment`.

These are quality experiments (cut, traversal probability, balance).
Wall-clock performance -- ingest, recovery, serving, pool refresh and
fan-out -- has one ruler, the repo benchmark under ``benchmarks/e2e``.
"""

from repro.bench.tables import Table, ascii_bar_chart
from repro.bench.experiments import (
    EXPERIMENTS,
    run_experiment,
)

__all__ = [
    "Table",
    "ascii_bar_chart",
    "EXPERIMENTS",
    "run_experiment",
]
