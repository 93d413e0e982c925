"""Graph traversal orders and connectivity utilities.

These are used in two different roles:

* producing the BFS/DFS *stream orderings* of section 3.1 of the paper
  (streaming partitioners are sensitive to element order), and
* structural queries needed by the partitioners and the matcher
  (connected components, connectivity checks).
"""

from __future__ import annotations

import random
from collections import deque

from repro.exceptions import VertexNotFoundError
from repro.graph.labelled import LabelledGraph, Vertex


def bfs_order(
    graph: LabelledGraph,
    start: Vertex | None = None,
    *,
    rng: random.Random | None = None,
) -> list[Vertex]:
    """Breadth-first vertex order covering *all* components.

    When ``rng`` is given, the start vertex of each component and the
    expansion order of each neighbourhood are shuffled, giving the
    "stochastic" flavour of ordering the paper considers; otherwise the
    order is deterministic (insertion order).
    """
    return _search_order(graph, start, rng, depth_first=False)


def dfs_order(
    graph: LabelledGraph,
    start: Vertex | None = None,
    *,
    rng: random.Random | None = None,
) -> list[Vertex]:
    """Depth-first vertex order covering all components (iterative)."""
    return _search_order(graph, start, rng, depth_first=True)


def _search_order(
    graph: LabelledGraph,
    start: Vertex | None,
    rng: random.Random | None,
    *,
    depth_first: bool,
) -> list[Vertex]:
    all_vertices = list(graph.vertices())
    if start is not None and not graph.has_vertex(start):
        raise VertexNotFoundError(start)
    if rng is not None:
        rng.shuffle(all_vertices)
    if start is not None:
        # Make the requested start the first component seed.
        all_vertices.remove(start)
        all_vertices.insert(0, start)

    order: list[Vertex] = []
    visited: set[Vertex] = set()
    for seed in all_vertices:
        if seed in visited:
            continue
        frontier: deque[Vertex] = deque([seed])
        visited.add(seed)
        while frontier:
            vertex = frontier.pop() if depth_first else frontier.popleft()
            order.append(vertex)
            neighbours = list(graph.sorted_neighbours(vertex))
            if rng is not None:
                rng.shuffle(neighbours)
            for neighbour in neighbours:
                if neighbour not in visited:
                    visited.add(neighbour)
                    frontier.append(neighbour)
    return order


def connected_components(graph: LabelledGraph) -> list[set[Vertex]]:
    """All connected components as vertex sets (largest first)."""
    components: list[set[Vertex]] = []
    visited: set[Vertex] = set()
    for seed in graph.vertices():
        if seed in visited:
            continue
        component: set[Vertex] = set()
        frontier = deque([seed])
        visited.add(seed)
        while frontier:
            vertex = frontier.popleft()
            component.add(vertex)
            for neighbour in graph.neighbours(vertex):
                if neighbour not in visited:
                    visited.add(neighbour)
                    frontier.append(neighbour)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: LabelledGraph) -> bool:
    """True when the graph has exactly one connected component.

    The empty graph is considered connected (vacuously), matching the
    convention that motif graphs are built edge-by-edge from a seed vertex.
    """
    if graph.num_vertices == 0:
        return True
    return len(connected_components(graph)[0]) == graph.num_vertices
