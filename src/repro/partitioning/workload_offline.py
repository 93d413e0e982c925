"""Offline workload-aware partitioning (the paper's section-3.1 skyline).

The paper notes that an offline partitioner "may account for a static
query workload known a priori, using individual edge-weights to represent
traversal frequency, however tracking this information is memory
intensive, and otherwise non-trivial".  This module implements exactly
that alternative, as the natural *skyline* for LOOM's online approach:

1. **profile** -- execute a sample of the workload over the (unsharded)
   graph with per-edge traversal accounting;
2. **weight** -- turn traversal counts into edge weights;
3. **partition** -- run the multilevel pipeline minimising the *weighted*
   cut, so frequently-traversed edges preferentially stay internal.

It holds the whole graph plus a traversal counter per edge in memory and
must re-run from scratch when the graph or the workload changes -- the
exact costs the paper cites when motivating the streaming design.  In
experiments it upper-bounds what any workload-aware method (LOOM
included) can hope to achieve.
"""

from __future__ import annotations

import random

from repro.cluster.executor import run_workload
from repro.cluster.store import DistributedGraphStore
from repro.graph.labelled import Edge, LabelledGraph
from repro.partitioning.base import PartitionAssignment
from repro.partitioning.offline import multilevel_partition
from repro.workload.workloads import Workload


def profile_workload(
    graph: LabelledGraph,
    workload: Workload,
    *,
    executions: int = 150,
    rng: random.Random,
) -> dict[Edge, int]:
    """Per-edge traversal counts of a sampled query stream.

    Profiling runs against a single-shard store (partitioning is
    irrelevant to *which* edges a query traverses, only to what crossing
    them costs), so the counts characterise the workload itself.
    """
    assignment = PartitionAssignment(1, max(1, graph.num_vertices))
    for vertex in graph.vertices():
        assignment.assign(vertex, 0)
    store = DistributedGraphStore(graph, assignment)
    stats = run_workload(
        store, workload, executions=executions, rng=rng, track_edges=True
    )
    return dict(stats.ledger.edge_counts)


def traversal_edge_weights(
    graph: LabelledGraph,
    counts: dict[Edge, int],
    *,
    base_weight: int = 1,
) -> dict[Edge, int]:
    """Edge weights ``base + traversals`` for every edge of the graph.

    The base weight keeps never-traversed edges mildly attractive to keep
    internal (they may matter to future workloads), mirroring how edge
    weights are used with METIS in practice.
    """
    if base_weight < 0:
        raise ValueError("base_weight must be non-negative")
    return {
        edge: base_weight + counts.get(edge, 0) for edge in graph.edges()
    }


def workload_aware_multilevel(
    graph: LabelledGraph,
    workload: Workload,
    k: int,
    *,
    slack: float = 1.1,
    executions: int = 150,
    base_weight: int = 1,
    rng: random.Random | None = None,
) -> PartitionAssignment:
    """Profile the workload, weight the edges, partition offline.

    Returns a standard assignment; use it as the workload-aware *upper
    bound* when evaluating streaming methods (experiment E11).
    """
    local_rng = rng or random.Random(0)
    counts = profile_workload(
        graph, workload, executions=executions, rng=local_rng
    )
    weights = traversal_edge_weights(graph, counts, base_weight=base_weight)
    return multilevel_partition(
        graph, k, slack=slack, rng=local_rng, edge_weights=weights
    )

