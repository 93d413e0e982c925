"""Partition quality metrics.

Two families, matching the paper's framing:

* *structural* quality -- the classical objective: number/fraction of cut
  edges, and balance (normalised maximum load).  What METIS/LDG/Fennel
  optimise.
* *workload* quality -- the paper's measure: "the probability of
  inter-partition traversals ... given a workload Q".  That one needs
  query execution, so it lives in :mod:`repro.cluster.executor`; this
  module houses everything computable from graph + assignment alone.
"""

from __future__ import annotations

from repro.exceptions import PartitioningError
from repro.graph.labelled import Edge, LabelledGraph
from repro.partitioning.base import PartitionAssignment


def cut_edges(graph: LabelledGraph, assignment: PartitionAssignment) -> list[Edge]:
    """Edges whose endpoints live in different partitions."""
    cut: list[Edge] = []
    for u, v in graph.edges():
        pu = assignment.partition_of(u)
        pv = assignment.partition_of(v)
        if pu is None or pv is None:
            raise PartitioningError(
                f"edge ({u!r}, {v!r}) has an unassigned endpoint"
            )
        if pu != pv:
            cut.append((u, v))
    return cut


def edge_cut(graph: LabelledGraph, assignment: PartitionAssignment) -> int:
    """Number of inter-partition edges."""
    return len(cut_edges(graph, assignment))


def edge_cut_fraction(
    graph: LabelledGraph, assignment: PartitionAssignment
) -> float:
    """Cut edges as a fraction of all edges (lambda in the literature)."""
    if graph.num_edges == 0:
        return 0.0
    return edge_cut(graph, assignment) / graph.num_edges


def normalised_max_load(assignment: PartitionAssignment) -> float:
    """``max_i |V_i| / (n / k)`` -- 1.0 is perfect balance (rho)."""
    n = assignment.num_assigned
    if n == 0:
        return 0.0
    return max(assignment.sizes()) / (n / assignment.k)
