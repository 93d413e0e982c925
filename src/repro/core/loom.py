"""The LOOM partitioner (paper section 4).

Pipeline per stream event:

* vertex arrival -- make room in the sliding window (assigning whatever is
  due to leave), then buffer the vertex;
* edge arrival -- route through the window: internal edges feed the motif
  matcher, edges to already-placed vertices become LDG context.

Assignment (section 4.4): when the oldest buffered vertex is due to leave,
LOOM asks the matcher for the assignment group -- the union of frequent
motif matches containing the vertex, closed over shared sub-structure.  A
non-trivial group is placed wholly in one partition chosen by sub-graph
LDG; if no partition can absorb the whole group, LOOM falls back to
assigning the group's vertices individually, oldest first (the paper
leaves local partitioning of oversized matches to future work and this is
the conservative realisation).  Vertices without frequent matches are
placed by plain vertex LDG, exactly as in Stanton & Kliot.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.config import LoomConfig
from repro.core.matcher import StreamMotifMatcher
from repro.core.traversal_aware import TraversalAwareLDG
from repro.graph.labelled import Vertex
from repro.partitioning.base import PartitionAssignment
from repro.partitioning.streaming import (
    LinearDeterministicGreedy,
    choose_partition_for_group,
)
from repro.signatures.signature import SignatureScheme
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    StreamEvent,
    VertexArrival,
    VertexRemoval,
)
from repro.stream.window import ROUTE_INTERNAL, SlidingWindow
from repro.tpstry.trie import TPSTryPP
from repro.workload.workloads import Workload


class LoomPartitioner:
    """Workload-aware streaming partitioner over a sliding window."""

    name = "loom"

    def __init__(
        self,
        workload: Workload,
        config: LoomConfig,
        *,
        scheme: SignatureScheme | None = None,
        window_factory=SlidingWindow,
        matcher_factory=StreamMotifMatcher,
    ) -> None:
        """``window_factory`` / ``matcher_factory`` substitute the window
        and matcher implementations (same construction signatures); the
        matcher equivalence tests inject their reference pair here."""
        self.config = config
        self.workload = workload
        self.trie = TPSTryPP.from_workload(workload, scheme=scheme)
        self.window = window_factory(config.window_size)
        self.matcher = matcher_factory(
            self.trie,
            self.window.graph,
            frequent_signatures=self.trie.frequent_signatures(
                config.motif_threshold
            ),
            resignature_fix=config.resignature_fix,
            timed=config.stage_timings,
        )
        self.assignment = PartitionAssignment(config.k, config.capacity)
        if config.traversal_aware_singles:
            self._single_placer = TraversalAwareLDG(self.trie)
            self._record_label = self._single_placer.record_label
        else:
            self._single_placer = LinearDeterministicGreedy()
            self._record_label = None
        #: Diagnostics surfaced by the ablation benches.
        self.stats = {"groups": 0, "group_vertices": 0, "singles": 0, "split_groups": 0}

    @property
    def stage_seconds(self) -> dict[str, float] | None:
        """Cumulative per-stage matcher wall-time (match/extend/regrow/
        evict) when ``config.stage_timings`` is on, else ``None``.  The
        streaming engine snapshots this per batch so benchmarks can
        attribute pipeline time to stages."""
        timings = getattr(self.matcher, "timings", None)
        if timings is None or not getattr(self.matcher, "timed", False):
            return None
        return dict(timings)

    # ------------------------------------------------------------------
    # Streaming (the engine's StreamPartitioner protocol)
    # ------------------------------------------------------------------
    def process_batch(self, events: Sequence[StreamEvent]) -> tuple[int, int]:
        """Feed a batch of events in stream order; returns (vertices, edges).

        The only per-event body: edges dominate graph streams so they
        dispatch first, and the window classifies each edge in a single
        pass (:meth:`~repro.stream.window.SlidingWindow.route_edge`).
        It is the engine's one call per batch, and it hoists
        the per-event attribute traffic (window, matcher, router) out of
        the loop.  Measured, PR 22: the per-event PR-1 driver and
        window (``tests/core/reference_matcher.py``) read +58 % on the
        benchmark's stream, +19 % on a 41 000-match one -- keep.

        Removal events retract live state wherever it sits: matches in
        the matcher die before the window edge does, external
        neighbour sets unwind, and a deleted already-placed vertex frees
        its partition slot.
        (Removals count into the returned ``edges`` tally, matching the
        engine's events-that-are-not-vertex-arrivals convention.)
        """
        window = self.window
        route_edge = window.route_edge
        on_edge = self.matcher.on_edge
        record_label = self._record_label
        assign_due = self._assign_due
        vertices = edges = 0
        for event in events:
            if isinstance(event, EdgeArrival):
                edges += 1
                if route_edge(event.u, event.v) == ROUTE_INTERNAL:
                    on_edge(event.u, event.v)
            elif isinstance(event, VertexArrival):
                vertices += 1
                while window.is_full:
                    assign_due()
                window.add_vertex(event.vertex, event.label)
                if record_label is not None:
                    record_label(event.vertex, event.label)
            elif isinstance(event, EdgeRemoval):
                edges += 1
                self._retract_edge(event.u, event.v)
            elif isinstance(event, VertexRemoval):
                edges += 1
                self._retract_vertex(event.vertex)
            else:
                edges += 1
        return vertices, edges

    def flush(self) -> None:
        """Assign everything still buffered (end of stream)."""
        while len(self.window):
            self._assign_due()

    # ------------------------------------------------------------------
    # Retraction (churn streams)
    # ------------------------------------------------------------------
    def _retract_edge(self, u: Vertex, v: Vertex) -> None:
        """Undo an edge wherever it currently lives.

        Window-internal edges take partial matches with them (matcher
        first, while both endpoints still hold window slots); external
        edges unwind the buffered endpoint's placed-neighbour context;
        fully departed edges have nothing windowed left to undo -- the
        resident store handles the graph side.
        """
        if u in self.window and v in self.window:
            self.matcher.retract_edge(u, v)
        self.window.retract_edge(u, v)

    def _retract_vertex(self, vertex: Vertex) -> None:
        """Delete a vertex that is either still buffered or already placed.

        A buffered vertex leaves without being assigned (its matches and
        window edges die with it); a placed vertex vacates its partition
        slot and is purged from every buffered vertex's external set so
        no future placement scores against a ghost.
        """
        if self._record_label is not None:
            self._single_placer.forget_label(vertex)
        if vertex in self.window:
            self.matcher.retract_vertex(vertex)
            self.window.retract_vertex(vertex)
            return
        self.window.forget_placed(vertex)
        self.assignment.discard(vertex)

    # ------------------------------------------------------------------
    # Assignment (section 4.4)
    # ------------------------------------------------------------------
    def _assign_due(self) -> None:
        oldest = self.window.oldest()
        matcher = self.matcher
        if not matcher.indexes(oldest):
            # No match holds the vertex: its group is {oldest} and there
            # is nothing for the matcher to forget.
            self._assign_single(oldest)
            return
        if self.config.group_matches:
            group = matcher.assignment_group(
                oldest, max_size=self.config.max_group_size
            )
        else:
            group = frozenset({oldest})
        if len(group) > 1:
            self._assign_group(group)
        else:
            self._assign_single(oldest)
        matcher.forget(group)

    def _assign_group(self, group: frozenset[Vertex]) -> None:
        """Place a whole motif-match group in one partition (sub-graph LDG)."""
        external_counts: dict[int, int] = {}
        for vertex in group:
            for neighbour in self.window.external_neighbours(vertex):
                partition = self.assignment.partition_of(neighbour)
                if partition is not None:
                    external_counts[partition] = (
                        external_counts.get(partition, 0) + 1
                    )
        ordered = [v for v in self.window.arrival_order() if v in group]
        try:
            target = choose_partition_for_group(
                self.assignment, external_counts, len(group)
            )
        except LookupError:
            # No partition can absorb the whole group (the failure mode
            # section 4.4 acknowledges): place its vertices one by one.
            self.stats["split_groups"] += 1
            for vertex in ordered:
                self._assign_single(vertex)
            return
        for vertex in ordered:
            self.window.expire(vertex)
            self.assignment.assign(vertex, target)
        self.stats["groups"] += 1
        self.stats["group_vertices"] += len(group)

    def _assign_single(self, vertex: Vertex) -> None:
        """Plain LDG placement of one vertex against its placed neighbours
        (the caller forgets the vertex's matches)."""
        label, external, _ = self.window.expire(vertex)
        target = self._single_placer.place(
            vertex, label, external, self.assignment
        )
        self.assignment.assign(vertex, target)
        self.stats["singles"] += 1
