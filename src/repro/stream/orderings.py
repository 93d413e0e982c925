"""Stream orderings (the section-3.1 taxonomy) and churn interleavings.

Streaming partitioner quality is sensitive to how graph elements are
ordered.  The paper considers three categories -- random, adversarial and
stochastic (BFS/DFS-like arrival generated by some process, e.g. users
joining a social network) -- and promises an evaluation across them
(section 5).  These functions produce vertex orderings over a static graph;
:func:`repro.stream.sources.stream_from_graph` turns an ordering into an
event stream.

:func:`with_churn` is the ordering-level churn generator: it takes any
arrival stream and interleaves valid :class:`~repro.stream.events`
removal events into it, so every arrival ordering above doubles as a
mixed insert/delete workload.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from repro.exceptions import StreamError
from repro.graph.labelled import Edge, LabelledGraph, Vertex, edge_key
from repro.graph.traversal import bfs_order, dfs_order
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    StreamEvent,
    VertexArrival,
    VertexRemoval,
)


def natural_order(graph: LabelledGraph, rng: random.Random | None = None) -> list[Vertex]:
    """Insertion order -- for generated graphs this is creation order, the
    closest static analogue of a temporal growth stream."""
    return list(graph.vertices())


def random_order(graph: LabelledGraph, rng: random.Random | None = None) -> list[Vertex]:
    """Uniformly shuffled vertex order."""
    order = list(graph.vertices())
    (rng or random.Random(0)).shuffle(order)
    return order


def adversarial_order(
    graph: LabelledGraph, rng: random.Random | None = None
) -> list[Vertex]:
    """An ordering hostile to greedy streaming heuristics.

    The paper's example adversarial ordering presents a prefix of vertices
    with *no* edges among themselves, starving the heuristic of
    neighbourhood information.  We generalise that construction: repeatedly
    extract maximal independent sets and concatenate them, so every vertex
    arrives surrounded by as few already-seen neighbours as possible.
    """
    local_rng = rng or random.Random(0)
    remaining = set(graph.vertices())
    order: list[Vertex] = []
    while remaining:
        pool = sorted(remaining, key=repr)
        local_rng.shuffle(pool)
        chosen: set[Vertex] = set()
        for vertex in pool:
            if not (graph.neighbours(vertex) & chosen):
                chosen.add(vertex)
        order.extend(sorted(chosen, key=repr))
        remaining -= chosen
    return order


def bfs_ordering(graph: LabelledGraph, rng: random.Random | None = None) -> list[Vertex]:
    """Stochastic BFS arrival (crawl-like)."""
    return bfs_order(graph, rng=rng or random.Random(0))


def dfs_ordering(graph: LabelledGraph, rng: random.Random | None = None) -> list[Vertex]:
    """Stochastic DFS arrival."""
    return dfs_order(graph, rng=rng or random.Random(0))


OrderingFn = Callable[[LabelledGraph, random.Random | None], list[Vertex]]

#: Registry used by the CLI and the experiment grids.
ORDERINGS: dict[str, OrderingFn] = {
    "natural": natural_order,
    "random": random_order,
    "bfs": bfs_ordering,
    "dfs": dfs_ordering,
    "adversarial": adversarial_order,
}


def ordered_vertices(
    graph: LabelledGraph,
    ordering: str,
    rng: random.Random | None = None,
) -> list[Vertex]:
    """Look up ``ordering`` by name and apply it."""
    try:
        fn = ORDERINGS[ordering]
    except KeyError:
        raise StreamError(
            f"unknown ordering {ordering!r}; choose from {sorted(ORDERINGS)}"
        ) from None
    return fn(graph, rng)


# ----------------------------------------------------------------------
# Churn interleaving
# ----------------------------------------------------------------------
class _Ranks:
    """Which arrival positions hold a deletable element, and the k-th of
    them in arrival order: a Fenwick tree, O(log n) per step."""

    def __init__(self, size: int) -> None:
        self._tree = [0] * (size + 1)
        self._top = 1 << size.bit_length()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, position: int, delta: int) -> None:
        self._count += delta
        tree = self._tree
        index = position + 1
        while index < len(tree):
            tree[index] += delta
            index += index & -index

    def kth(self, k: int) -> int:
        """The position of the ``k``-th (0-based) marked position."""
        tree = self._tree
        position = 0
        step = self._top
        while step:
            probe = position + step
            if probe < len(tree) and tree[probe] <= k:
                position = probe
                k -= tree[probe]
            step >>= 1
        return position


def with_churn(
    events: Sequence[StreamEvent],
    *,
    delete_fraction: float = 0.2,
    rng: random.Random,
    min_live_vertices: int = 4,
) -> list[StreamEvent]:
    """Interleave valid removal events into an arrival stream.

    After each arrival, with probability ``delete_fraction`` one live
    element is deleted -- an existing edge, or (less often) a whole
    vertex with its remaining edges.  The result is always a *valid*
    churn stream: removals only ever reference live elements, and a
    vertex is deletable only once no later arrival references it (so
    replaying the mixed stream never adds an edge to a deleted
    endpoint).  ``min_live_vertices`` keeps the stream from deleting
    itself empty.  Deterministic given ``rng``: the victim is drawn
    uniformly from the deletable elements in arrival order.
    """
    if not 0.0 <= delete_fraction < 1.0:
        raise StreamError("delete_fraction must be in [0, 1)")
    # Last index at which each element is referenced by a *later* event:
    # deleting a vertex before its last arrival reference would orphan
    # that arrival, and deleting anything the input's own removals still
    # name would make those removals reference a dead element.
    last_ref: dict[Vertex, int] = {}
    last_edge_ref: dict[Edge, int] = {}
    for index, event in enumerate(events):
        if isinstance(event, VertexArrival):
            last_ref[event.vertex] = index
        elif isinstance(event, VertexRemoval):
            last_ref[event.vertex] = index
        else:  # edge arrival or removal
            last_ref[event.u] = index
            last_ref[event.v] = index
            if isinstance(event, EdgeRemoval):
                last_edge_ref[edge_key(event.u, event.v)] = index
    ripe: dict[int, list[Vertex]] = {}
    for vertex, index in last_ref.items():
        ripe.setdefault(index, []).append(vertex)
    # A live element's position is the index of the arrival that made it
    # live, so positions run in arrival order.  A vertex turns deletable
    # at its last reference, for good.  An edge is deletable from arrival
    # or never: the input removes any edge it still names before that
    # edge could turn deletable.
    live_vertices: dict[Vertex, int] = {}
    live_edges: dict[Edge, int] = {}
    incident: dict[Vertex, set[Edge]] = {}
    at: list = [None] * len(events)
    deletable_vertices = _Ranks(len(events))
    deletable_edges = _Ranks(len(events))

    def drop_edge(edge: Edge) -> None:
        position = live_edges.pop(edge)
        for endpoint in edge:
            incident.get(endpoint, set()).discard(edge)
        if last_edge_ref.get(edge, -1) < position:
            deletable_edges.add(position, -1)

    def drop_vertex(vertex: Vertex) -> None:
        live_vertices.pop(vertex, None)
        for edge in incident.pop(vertex, ()):
            drop_edge(edge)

    out: list[StreamEvent] = []
    for index, event in enumerate(events):
        out.append(event)
        if isinstance(event, VertexArrival):
            live_vertices.setdefault(event.vertex, index)
        elif isinstance(event, EdgeArrival):
            edge = edge_key(event.u, event.v)
            if edge not in live_edges:
                live_edges[edge] = index
                for endpoint in edge:
                    incident.setdefault(endpoint, set()).add(edge)
                if last_edge_ref.get(edge, -1) < index:
                    at[index] = edge
                    deletable_edges.add(index, 1)
        elif isinstance(event, EdgeRemoval):
            edge = edge_key(event.u, event.v)
            if edge in live_edges:
                drop_edge(edge)
        else:
            drop_vertex(event.vertex)
        for vertex in ripe.get(index, ()):
            if vertex in live_vertices:
                position = live_vertices[vertex]
                at[position] = vertex
                deletable_vertices.add(position, 1)
        if isinstance(event, (EdgeRemoval, VertexRemoval)):
            continue  # the stream's own churn: track it, don't add to it
        if rng.random() >= delete_fraction:
            continue
        delete_vertex = (
            rng.random() < 0.3 and len(live_vertices) > min_live_vertices
        )
        if delete_vertex and deletable_vertices:
            position = deletable_vertices.kth(
                rng.randrange(len(deletable_vertices))
            )
            victim = at[position]
            out.append(VertexRemoval(victim, event.time))
            deletable_vertices.add(position, -1)
            drop_vertex(victim)
            continue
        if deletable_edges:
            u, v = at[deletable_edges.kth(rng.randrange(len(deletable_edges)))]
            out.append(EdgeRemoval(u, v, event.time))
            drop_edge((u, v))
    return out
