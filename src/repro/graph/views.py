"""Sub-graph extraction helpers.

Two shapes recur: (a) the sub-graph induced by a vertex set (a
*partition* in the paper's section-2 sense) and (b) the sub-graph spanned
by an explicit edge set (a *motif match*).  Both return plain
:class:`~repro.graph.labelled.LabelledGraph` copies: at motif scale the
copy is tiny, and value semantics keep callers easy to reason about.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import VertexNotFoundError
from repro.graph.labelled import Edge, LabelledGraph, Vertex


def induced_subgraph(graph: LabelledGraph, vertices: Iterable[Vertex]) -> LabelledGraph:
    """The sub-graph induced by ``vertices``: those vertices plus *all* edges
    of ``graph`` with both endpoints inside the set.
    """
    chosen = set(vertices)
    sub = LabelledGraph()
    for vertex in chosen:
        if not graph.has_vertex(vertex):
            raise VertexNotFoundError(vertex)
        sub.add_vertex(vertex, graph.label(vertex))
    for vertex in chosen:
        for neighbour in graph.neighbours(vertex):
            if neighbour in chosen:
                sub.add_edge(vertex, neighbour)
    return sub


def edge_subgraph(graph: LabelledGraph, edges: Iterable[Edge]) -> LabelledGraph:
    """The sub-graph spanned by ``edges``: their endpoints plus exactly those
    edges (*not* induced -- other edges between the endpoints are omitted).

    This is the shape of a pattern-match result in the paper's definition of
    sub-graph isomorphism: the matched edges correspond one-to-one with the
    query's edges.
    """
    sub = LabelledGraph()
    for u, v in edges:
        if not sub.has_vertex(u):
            sub.add_vertex(u, graph.label(u))
        if not sub.has_vertex(v):
            sub.add_vertex(v, graph.label(v))
        sub.add_edge(u, v)
    return sub
