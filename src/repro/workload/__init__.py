"""Query workloads: pattern queries with relative frequencies.

The paper's input (section 1.1): "let Q be a workload of queries over G,
along with the relative frequency of each query in Q".  A
:class:`~repro.workload.query.PatternQuery` is a labelled query graph with
a weight; a :class:`~repro.workload.workloads.Workload` is a normalised
collection of them, plus sampling and summary helpers.  Generators cover
label paths with Zipf-skewed frequencies, and sampling queries out of a
concrete graph so that matches are guaranteed to exist.

:mod:`repro.workload.paper_example` reconstructs the paper's figure 1
exactly.
"""

from repro.workload.query import PatternQuery
from repro.workload.workloads import (
    Workload,
    path_workload,
    workload_from_graph,
    zipf_frequencies,
)
from repro.workload.paper_example import figure1_graph, figure1_workload

__all__ = [
    "PatternQuery",
    "Workload",
    "path_workload",
    "workload_from_graph",
    "zipf_frequencies",
    "figure1_graph",
    "figure1_workload",
]
