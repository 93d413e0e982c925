"""Labelled sub-graph isomorphism (VF2-style backtracking).

The paper defines a pattern-matching query (section 2) as: given a labelled
pattern graph ``Q``, return every sub-graph ``G'`` of ``G`` for which a
bijection onto ``Q`` exists that preserves vertices, edges and labels.  In
matching terms this is *sub-graph monomorphism*: an injective mapping of
``Q``'s vertices into ``G`` under which every query edge maps to a graph
edge; the matched sub-graph consists of exactly the mapped vertices and
edges.

This module is authoritative (exact) and is used for three things:

* executing queries in the simulated cluster (:mod:`repro.cluster.executor`
  instruments a twin of this search with traversal accounting),
* verifying the *non-authoritative* signature matcher in tests and in
  experiment E7,
* computing ground-truth motif occurrence counts.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from repro.graph.labelled import LabelledGraph, Vertex
from repro.graph.views import edge_subgraph

Embedding = dict[Vertex, Vertex]


def search_order(pattern: LabelledGraph) -> list[Vertex]:
    """Order pattern vertices so each one (after the first per component)
    neighbours an earlier vertex -- keeps the backtracking frontier connected,
    which is what makes VF2-style search fast.
    Highest degree first breaks ties toward more-constrained vertices.
    """
    remaining = set(pattern.vertices())
    order: list[Vertex] = []
    placed: set[Vertex] = set()
    while remaining:
        # Prefer a vertex attached to the already-ordered prefix.
        attached = [v for v in remaining if pattern.neighbours(v) & placed]
        pool = attached or list(remaining)
        nxt = max(pool, key=lambda v: (pattern.degree(v), repr(v)))
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    return order


def find_embeddings(
    pattern: LabelledGraph,
    target: LabelledGraph,
    *,
    max_matches: int | None = None,
) -> Iterator[Embedding]:
    """Yield injective label/edge-preserving mappings ``pattern -> target``.

    Each yielded dict maps every pattern vertex to a distinct target vertex
    such that labels agree and every pattern edge lands on a target edge.
    Mappings are yielded in a deterministic order.  ``max_matches`` caps the
    enumeration (useful for existence checks: ``max_matches=1``).
    """
    if pattern.num_vertices == 0:
        yield {}
        return
    if pattern.num_vertices > target.num_vertices:
        return

    # Cheap global pruning: the target must have at least as many vertices
    # of each label as the pattern requires.
    target_histogram = target.label_histogram()
    for label, needed in pattern.label_histogram().items():
        if target_histogram.get(label, 0) < needed:
            return

    order = search_order(pattern)

    mapping: Embedding = {}
    used: set[Vertex] = set()

    def candidates(pattern_vertex: Vertex) -> list[Vertex]:
        """Target vertices that could host ``pattern_vertex`` given the
        current partial mapping."""
        mapped_neighbours = [
            mapping[p] for p in pattern.neighbours(pattern_vertex) if p in mapping
        ]
        wanted_label = pattern.label(pattern_vertex)
        needed_degree = pattern.degree(pattern_vertex)
        if mapped_neighbours:
            pool: set[Vertex] | frozenset[Vertex] = target.neighbours(
                mapped_neighbours[0]
            )
            for image in mapped_neighbours[1:]:
                pool = pool & target.neighbours(image)
        else:
            # Served by the graph's incrementally maintained label index.
            pool = set(target.vertices_with_label(wanted_label))
        return sorted(
            (
                v
                for v in pool
                if v not in used
                and target.label(v) == wanted_label
                and target.degree(v) >= needed_degree
            ),
            key=repr,
        )

    def backtrack(depth: int) -> Iterator[Embedding]:
        if depth == len(order):
            yield dict(mapping)
            return
        pattern_vertex = order[depth]
        for candidate in candidates(pattern_vertex):
            mapping[pattern_vertex] = candidate
            used.add(candidate)
            yield from backtrack(depth + 1)
            del mapping[pattern_vertex]
            used.discard(candidate)

    try:
        yield from islice(backtrack(0), max_matches)
    finally:
        del backtrack  # it reaches itself through its closure: a cycle


def count_embeddings(pattern: LabelledGraph, target: LabelledGraph) -> int:
    """Number of distinct embeddings (automorphic images counted separately)."""
    return sum(1 for _ in find_embeddings(pattern, target))


def find_matches(
    pattern: LabelledGraph,
    target: LabelledGraph,
    *,
    max_matches: int | None = None,
) -> list[LabelledGraph]:
    """Distinct matched *sub-graphs* (the paper's query answer ``G'``).

    Two embeddings that differ only by an automorphism of the pattern map to
    the same sub-graph of the target; this function deduplicates them, so
    the answer to ``q1`` on the paper's figure-1 graph is the single
    sub-graph over vertices ``{1, 2, 5, 6}``.
    """
    matches: list[LabelledGraph] = []
    seen: set[tuple[frozenset, frozenset]] = set()
    for embedding in find_embeddings(pattern, target):
        edges = [
            (embedding[u], embedding[v]) for u, v in pattern.edges()
        ]
        sub = edge_subgraph(target, edges)
        for vertex in embedding.values():
            if not sub.has_vertex(vertex):  # an edgeless pattern's vertex
                sub.add_vertex(vertex, target.label(vertex))
        key = (frozenset(embedding.values()), frozenset(sub.edges()))
        if key not in seen:
            seen.add(key)
            matches.append(sub)
            if max_matches is not None and len(matches) >= max_matches:
                break
    return matches


def has_embedding(pattern: LabelledGraph, target: LabelledGraph) -> bool:
    """True when at least one embedding of ``pattern`` into ``target`` exists."""
    for _ in find_embeddings(pattern, target, max_matches=1):
        return True
    return False


def is_isomorphic(first: LabelledGraph, second: LabelledGraph) -> bool:
    """Exact labelled graph isomorphism.

    Two graphs are isomorphic when they have identical vertex/edge counts
    and an embedding exists in one direction (equal sizes make any
    monomorphism a bijection on vertices; equal edge counts make it
    edge-surjective too).
    """
    if (
        first.num_vertices != second.num_vertices
        or first.num_edges != second.num_edges
        or first.label_histogram() != second.label_histogram()
    ):
        return False
    return has_embedding(first, second)
