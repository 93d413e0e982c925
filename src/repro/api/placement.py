"""Re-placing a resident graph incrementally.

:func:`rebalance` is what churn calls for: score every vertex's best
relocation by the edges it would localise, then greedily migrate the
highest-gain vertices.  Not thread-safe: the session calls it only
under its command lock.  (To re-place a graph under another method,
open a session with that method and ingest the resident graph.)
"""

from __future__ import annotations

from repro.api.results import RebalanceReport
from repro.cluster.store import DistributedGraphStore
from repro.engine.pipeline import StreamPartitioner
from repro.exceptions import SessionError
from repro.graph.labelled import Vertex
from repro.partitioning import edge_cut_fraction, normalised_max_load


def rebalance(
    store: DistributedGraphStore,
    partitioner: StreamPartitioner | None,
    *,
    max_moves: int | None,
    min_gain: int,
) -> RebalanceReport:
    """Migrate the highest-gain vertices of ``store`` (and mirror each
    move into the live ``partitioner``'s assignment).

    Each gain is re-checked at move time, capacity is respected, at
    most ``max_moves`` vertices move (``None`` = every candidate, one
    pass), and gains below ``min_gain`` stay put.  A migrated primary
    landing on one of its own replicas absorbs it.
    """
    if max_moves is not None and max_moves < 0:
        raise SessionError("max_moves must be >= 0 (or None)")
    if min_gain < 1:
        raise SessionError("min_gain must be >= 1")
    graph = store.graph
    assignment = store.assignment
    cut_before = edge_cut_fraction(graph, assignment)
    load_before = normalised_max_load(assignment)
    candidates = [
        (gain, repr(vertex), vertex)
        for vertex in graph.vertices()
        for gain in (_relocation_gain(store, vertex),)
        if gain is not None and gain[0] >= min_gain
    ]
    candidates.sort(key=lambda entry: (-entry[0][0], entry[1]))
    moved = 0
    replicas_dropped = 0
    mirror = partitioner.assignment if partitioner is not None else None
    for _, _, vertex in candidates:
        if max_moves is not None and moved >= max_moves:
            break
        # Earlier migrations shift the landscape: re-score now.
        rescored = _relocation_gain(store, vertex)
        if rescored is None or rescored[0] < min_gain:
            continue
        target = rescored[1]
        replicas_dropped += store.move_vertex(vertex, target)
        if mirror is not None:
            mirror.move(vertex, target)
        moved += 1
    return RebalanceReport(
        total_vertices=graph.num_vertices,
        candidates=len(candidates),
        moved_vertices=moved,
        max_moves=max_moves,
        cut_before=cut_before,
        cut_after=edge_cut_fraction(graph, assignment),
        max_load_before=load_before,
        max_load_after=normalised_max_load(assignment),
        replicas_dropped=replicas_dropped,
    )


def _relocation_gain(
    store: DistributedGraphStore, vertex: Vertex
) -> tuple[int, int] | None:
    """Best feasible relocation of ``vertex``: ``(gain, target)``.

    ``gain`` counts the neighbours the move would newly co-locate, net
    of the ones it would strand at home.  ``None`` when no other
    partition has room or the vertex has no neighbours anywhere else.
    Ties break toward the emptier, lower-indexed partition so
    rebalancing is deterministic.
    """
    assignment = store.assignment
    home = assignment.partition_of(vertex)
    assert home is not None
    counts = [0] * assignment.k
    for neighbour in store.graph.neighbours(vertex):
        partition = assignment.partition_of(neighbour)
        if partition is not None:
            counts[partition] += 1
    sizes = assignment.sizes_view()
    capacity = assignment.capacity
    best: tuple[int, int, int] | None = None
    for partition in range(assignment.k):
        if partition == home or sizes[partition] >= capacity:
            continue
        entry = (counts[partition], -sizes[partition], -partition)
        if best is None or entry > best:
            best = entry
    if best is None or best[0] == 0:
        return None
    return best[0] - counts[home], -best[2]
