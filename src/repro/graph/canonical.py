"""Canonical forms for small labelled graphs.

The TPSTry++ of the paper keys motif nodes by Song-et-al numeric signatures,
which are *non-authoritative*: distinct motifs can in principle collide.
G-Tries (Ribeiro & Silva), which TPSTry++ generalises, instead use canonical
forms -- representations "guaranteed to be equal for two graphs which are
isomorphic to one another".  We provide exact canonical forms for labelled
graphs so that experiment E7 can measure the signature scheme's real
collision rate against ground truth.

The algorithm is the classic refine-then-minimise approach: 1-dimensional
Weisfeiler-Leman colour refinement partitions the vertices, then a
backtracking search over orderings consistent with the colour classes picks
the lexicographically minimal encoding.  Exponential in the worst case but
instantaneous at motif scale (the paper's motifs have <= 6 vertices).
"""

from __future__ import annotations

from itertools import permutations

from repro.graph.labelled import LabelledGraph, Vertex

# Above this many candidate orderings we refuse rather than silently degrade:
# motif-scale graphs never get near it, and a wrong "canonical" form would
# corrupt E7's ground truth.
_MAX_ORDERINGS = 500_000

CanonicalForm = tuple


def _refine_colours(graph: LabelledGraph) -> dict[Vertex, int]:
    """1-WL colour refinement seeded with vertex labels.

    Returns a stable colouring whose integer colours are *rank-compressed
    by value*: each round builds the (colour, sorted neighbour-colour
    multiset) key per vertex, then renumbers the distinct keys in sorted
    order.  Because the keys are isomorphism-invariant values and the
    ranking orders them by value -- never by vertex iteration order -- the
    resulting colours are identical across isomorphic graphs regardless
    of vertex insertion order, while staying O(1)-sized per round.  (An
    earlier version numbered colours through an iteration-ordered
    palette: two isomorphic graphs could then order tied colour classes
    differently and disagree on their canonical forms.  Keeping the full
    nested keys instead would fix that too, but they grow exponentially
    with refinement depth.)
    """
    vertices = list(graph.vertices())
    palette = {
        label: rank
        for rank, label in enumerate(sorted({graph.label(v) for v in vertices}))
    }
    colour: dict[Vertex, int] = {v: palette[graph.label(v)] for v in vertices}
    distinct = len(palette)
    while True:
        keys = {
            v: (colour[v], tuple(sorted(colour[n] for n in graph.neighbours(v))))
            for v in vertices
        }
        palette = {
            key: rank for rank, key in enumerate(sorted(set(keys.values())))
        }
        if len(palette) == distinct:
            return colour
        colour = {v: palette[keys[v]] for v in vertices}
        distinct = len(palette)


def _orderings(graph: LabelledGraph, colour: dict[Vertex, int]):
    """Yield vertex orderings consistent with the refined colour classes.

    Classes are sorted by their (isomorphism-invariant) colour ranks;
    only permutations *within* a class are enumerated, which keeps the
    search tiny whenever refinement separates the vertices well.
    """
    classes: dict[int, list[Vertex]] = {}
    for vertex, rank in colour.items():
        classes.setdefault(rank, []).append(vertex)

    ordered_classes = [
        sorted(classes[rank], key=repr) for rank in sorted(classes)
    ]

    total = 1
    for cls in ordered_classes:
        for i in range(2, len(cls) + 1):
            total *= i
        if total > _MAX_ORDERINGS:
            raise ValueError(
                "graph too symmetric for exact canonicalisation "
                f"(> {_MAX_ORDERINGS} orderings); canonical_form targets motifs"
            )

    def expand(prefix: list[Vertex], remaining_classes: list[list[Vertex]]):
        if not remaining_classes:
            yield list(prefix)
            return
        head, *rest = remaining_classes
        for perm in permutations(head):
            yield from expand(prefix + list(perm), rest)

    yield from expand([], ordered_classes)


def _encode(graph: LabelledGraph, order: list[Vertex]) -> CanonicalForm:
    index = {vertex: i for i, vertex in enumerate(order)}
    labels = tuple(graph.label(vertex) for vertex in order)
    edges = tuple(
        sorted(
            tuple(sorted((index[u], index[v])))
            for u, v in graph.edges()
        )
    )
    return (graph.num_vertices, labels, edges)


def canonical_form(graph: LabelledGraph) -> CanonicalForm:
    """A hashable certificate equal for exactly the isomorphic labelled graphs.

    >>> a = LabelledGraph.path("ab")
    >>> b = LabelledGraph.path("ba")
    >>> canonical_form(a) == canonical_form(b)
    True
    """
    if graph.num_vertices == 0:
        return (0, (), ())
    colour = _refine_colours(graph)
    return min(_encode(graph, order) for order in _orderings(graph, colour))
