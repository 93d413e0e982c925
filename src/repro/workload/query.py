"""Pattern-matching queries (paper section 2).

A query is a labelled pattern graph; its answer over a data graph ``G`` is
the set of sub-graphs of ``G`` isomorphic to it (vertices, edges and labels
preserved).  In a workload every query additionally carries a relative
frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.exceptions import WorkloadError
from repro.graph.isomorphism import count_embeddings, find_matches, search_order
from repro.graph.labelled import Label, LabelledGraph
from repro.graph.traversal import is_connected


@dataclass(frozen=True)
class PatternQuery:
    """A named, weighted sub-graph pattern-matching query.

    ``frequency`` is a relative weight (any positive number); the owning
    :class:`~repro.workload.workloads.Workload` normalises weights into
    probabilities.
    """

    name: str
    graph: LabelledGraph
    frequency: float = 1.0

    def __post_init__(self) -> None:
        if self.graph.num_vertices == 0:
            raise WorkloadError(f"query {self.name!r} has an empty pattern graph")
        if not is_connected(self.graph):
            raise WorkloadError(
                f"query {self.name!r} must be connected: pattern matching "
                "traverses edges, so disconnected patterns decompose into "
                "separate queries"
            )
        if not self.frequency > 0:
            raise WorkloadError(
                f"query {self.name!r} needs a positive frequency, "
                f"got {self.frequency!r}"
            )

    @cached_property
    def plan(self) -> tuple[tuple[Label, int, tuple[int, ...]], ...]:
        """Per vertex of :func:`~repro.graph.isomorphism.search_order`: its
        label, the depth of the earlier neighbour its candidates expand
        from (-1 at depth 0 only: the pattern is connected) and the
        depths of the other earlier neighbours they must also neighbour."""
        order = search_order(self.graph)
        depth_of = {vertex: depth for depth, vertex in enumerate(order)}
        plan = []
        for depth, vertex in enumerate(order):
            anchors = [
                depth_of[p] for p in self.graph.neighbours(vertex)
                if depth_of[p] < depth
            ]
            plan.append((
                self.graph.label(vertex),
                anchors[0] if anchors else -1,
                tuple(anchors[1:]),
            ))
        return tuple(plan)

    @cached_property
    def automorphisms(self) -> int:
        """|Aut(P)|, the pattern's label-preserving automorphisms: every
        answer is found once per automorphism."""
        return count_embeddings(self.graph, self.graph)

    @property
    def size(self) -> int:
        """Number of vertices in the pattern."""
        return self.graph.num_vertices

    def answer(self, graph: LabelledGraph) -> list[LabelledGraph]:
        """The query answer: distinct matching sub-graphs of ``graph``.

        This is the *reference* executor (exact, non-distributed); the
        instrumented distributed execution lives in
        :mod:`repro.cluster.executor`.
        """
        return find_matches(self.graph, graph)

    def __str__(self) -> str:
        return (
            f"{self.name}(|V|={self.graph.num_vertices}, "
            f"|E|={self.graph.num_edges}, f={self.frequency:g})"
        )
