"""The PR-1 (pre-interning) LOOM hot path, preserved verbatim.

``LegacyStreamMotifMatcher`` and ``LegacySlidingWindow`` are the stream
matcher and window exactly as they stood before the interned-signature /
match-index / trie-lookup-table rebuild:

* per-edge signature updates through the generic
  :meth:`~repro.signatures.signature.SignatureScheme.extend_with_edge`
  API (label-string prime lookups, tuple sort per edge factor),
* matches keyed by ``frozenset`` of canonical vertex-tuple edges,
* TPSTry++ extension checks resolving the parent node and probing its
  ``children`` signature set per event, and
* window departures copying external-neighbour sets per vertex.

They are the reference implementation ``test_matcher_equivalence.py``
pins the shipped matcher's match sets and assignments byte-identical to
(not part of the installed package).  Behaviour changes belong in
:mod:`repro.core.matcher` / :mod:`repro.stream.window`, never here.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.config import LoomConfig
from repro.core.loom import LoomPartitioner
from repro.core.traversal_aware import TraversalAwareLDG
from repro.exceptions import StreamError
from repro.graph.isomorphism import is_isomorphic
from repro.graph.labelled import Edge, Label, LabelledGraph, Vertex, edge_key
from repro.graph.views import edge_subgraph
from repro.partitioning.streaming import choose_partition_for_group
from repro.stream.events import EdgeArrival, StreamEvent, VertexArrival
from repro.tpstry.node import TPSTryNode
from repro.tpstry.trie import TPSTryPP
from repro.workload.workloads import Workload

MatchKey = frozenset  # frozenset of canonical edge tuples


@dataclass(frozen=True, slots=True)
class WindowedVertex:
    """A vertex leaving the reference window, with the neighbour context needed
    to assign it: buffered (internal) neighbours stay unplaced, external
    neighbours are already placed."""

    vertex: Vertex
    label: Label
    external_neighbours: frozenset[Vertex] = field(default_factory=frozenset)
    internal_neighbours: frozenset[Vertex] = field(default_factory=frozenset)


@dataclass(frozen=True)
class LegacyMotifMatch:
    """A buffered sub-graph currently matching a TPSTry++ node."""

    edges: MatchKey
    vertices: frozenset[Vertex]
    signature: int
    node_signature: int

    @property
    def size(self) -> int:
        return len(self.vertices)

    def contains_vertex(self, vertex: Vertex) -> bool:
        return vertex in self.vertices


class LegacyStreamMotifMatcher:
    """The PR-1 matcher: per-call signature arithmetic, tuple-keyed index."""

    def __init__(
        self,
        trie: TPSTryPP,
        window_graph: LabelledGraph,
        *,
        frequent_signatures: frozenset[int],
        resignature_fix: bool = True,
        verify: bool = False,
        timed: bool = False,
    ) -> None:
        self.trie = trie
        self.scheme = trie.scheme
        self.graph = window_graph            # shared with the SlidingWindow
        self.frequent_signatures = frequent_signatures
        self.resignature_fix = resignature_fix
        self.verify = verify
        self._matches: dict[MatchKey, LegacyMotifMatch] = {}
        self._by_vertex: dict[Vertex, set[MatchKey]] = {}
        self.stats = {"direct": 0, "extended": 0, "regrown": 0, "rejected": 0}

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_edge(self, u: Vertex, v: Vertex) -> list[LegacyMotifMatch]:
        created: list[LegacyMotifMatch] = []
        e = edge_key(u, v)

        pair = self._try_pair(u, v, e)
        if pair is not None:
            created.append(pair)

        for key in list(self._touching(u) | self._touching(v)):
            match = self._matches.get(key)
            if match is None or e in match.edges:
                continue
            extended = self._try_extend(match, u, v, e)
            if extended is not None:
                created.append(extended)

        if self.resignature_fix:
            created.extend(self._regrow(e))
        return created

    def _try_pair(self, u: Vertex, v: Vertex, e: Edge) -> LegacyMotifMatch | None:
        key: MatchKey = frozenset({e})
        if key in self._matches:
            return None
        label_u = self.graph.label(u)
        label_v = self.graph.label(v)
        signature = self.scheme.extend_with_edge(
            self.scheme.vertex_factor(label_u), label_u, label_v,
            new_endpoint=label_v,
        )
        node = self.trie.node_by_signature(signature)
        if node is None:
            return None
        match = self._register(key, frozenset({u, v}), signature, node)
        if match is not None:
            self.stats["direct"] += 1
        return match

    def _try_extend(
        self, match: LegacyMotifMatch, u: Vertex, v: Vertex, e: Edge
    ) -> LegacyMotifMatch | None:
        new_vertex: Vertex | None = None
        if u not in match.vertices:
            new_vertex = u
        elif v not in match.vertices:
            new_vertex = v
        label_u = self.graph.label(u)
        label_v = self.graph.label(v)
        signature = self.scheme.extend_with_edge(
            match.signature,
            label_u,
            label_v,
            new_endpoint=self.graph.label(new_vertex) if new_vertex is not None else None,
        )
        node = self.trie.node_by_signature(signature)
        if node is None:
            return None
        parent = self.trie.node_by_signature(match.node_signature)
        if parent is not None and signature not in parent.children:
            # Not a one-edge extension the workload's queries ever make.
            return None
        key: MatchKey = match.edges | {e}
        vertices = match.vertices | ({new_vertex} if new_vertex is not None else set())
        created = self._register(key, frozenset(vertices), signature, node)
        if created is not None:
            self.stats["extended"] += 1
        return created

    def _regrow(self, seed_edge: Edge) -> list[LegacyMotifMatch]:
        u, v = seed_edge
        label_u, label_v = self.graph.label(u), self.graph.label(v)
        signature = self.scheme.extend_with_edge(
            self.scheme.vertex_factor(label_u), label_u, label_v,
            new_endpoint=label_v,
        )
        if self.trie.node_by_signature(signature) is None:
            return []

        created: list[LegacyMotifMatch] = []
        vertices: set[Vertex] = {u, v}
        edges: set[Edge] = {seed_edge}
        queue: deque[Edge] = deque(self._incident_edges(vertices, edges))
        while queue:
            candidate = queue.popleft()
            if candidate in edges:
                continue
            cu, cv = candidate
            if cu not in vertices and cv not in vertices:
                continue  # no longer adjacent after discards
            new_vertex = cu if cu not in vertices else (cv if cv not in vertices else None)
            extended_sig = self.scheme.extend_with_edge(
                signature,
                self.graph.label(cu),
                self.graph.label(cv),
                new_endpoint=self.graph.label(new_vertex) if new_vertex is not None else None,
            )
            node = self.trie.node_by_signature(extended_sig)
            if node is None:
                self.stats["rejected"] += 1
                continue  # discard this edge; don't traverse through it
            signature = extended_sig
            edges.add(candidate)
            if new_vertex is not None:
                vertices.add(new_vertex)
                for incident in self._incident_edges({new_vertex}, edges):
                    queue.append(incident)
            match = self._register(
                frozenset(edges), frozenset(vertices), signature, node
            )
            if match is not None:
                created.append(match)
                self.stats["regrown"] += 1
        return created

    def _incident_edges(
        self, vertices: set[Vertex], excluded: set[Edge]
    ) -> list[Edge]:
        incident: list[Edge] = []
        for vertex in sorted(vertices, key=repr):
            for neighbour in self.graph.sorted_neighbours(vertex):
                e = edge_key(vertex, neighbour)
                if e not in excluded:
                    incident.append(e)
        return incident

    # ------------------------------------------------------------------
    # Registration / bookkeeping
    # ------------------------------------------------------------------
    def _register(
        self,
        key: MatchKey,
        vertices: frozenset[Vertex],
        signature: int,
        node: TPSTryNode,
    ) -> LegacyMotifMatch | None:
        if key in self._matches:
            return None
        if self.verify and not self._verified(key, node):
            return None
        match = LegacyMotifMatch(
            edges=key,
            vertices=vertices,
            signature=signature,
            node_signature=node.signature,
        )
        self._matches[key] = match
        for vertex in vertices:
            self._by_vertex.setdefault(vertex, set()).add(key)
        return match

    def _verified(self, key: MatchKey, node: TPSTryNode) -> bool:
        candidate = edge_subgraph(self.graph, key)
        return is_isomorphic(candidate, node.graph)

    def _touching(self, vertex: Vertex) -> set[MatchKey]:
        return self._by_vertex.get(vertex, set())

    def indexes(self, vertex: Vertex) -> bool:
        return vertex in self._by_vertex

    def forget(self, vertices: frozenset[Vertex] | set[Vertex]) -> None:
        doomed: set[MatchKey] = set()
        for vertex in vertices:
            doomed |= self._by_vertex.pop(vertex, set())
        for key in doomed:
            match = self._matches.pop(key, None)
            if match is None:
                continue
            for vertex in match.vertices:
                keys = self._by_vertex.get(vertex)
                if keys is not None:
                    keys.discard(key)

    # ------------------------------------------------------------------
    # Queries used by LOOM's assignment step
    # ------------------------------------------------------------------
    def matches(self) -> list[LegacyMotifMatch]:
        return list(self._matches.values())

    def frequent_matches_containing(self, vertex: Vertex) -> list[LegacyMotifMatch]:
        out = []
        for key in self._touching(vertex):
            match = self._matches[key]
            if match.node_signature in self.frequent_signatures:
                out.append(match)
        out.sort(key=lambda m: (-len(m.edges), sorted(map(repr, m.vertices))))
        return out

    def assignment_group(
        self, vertex: Vertex, *, max_size: int
    ) -> frozenset[Vertex]:
        group: set[Vertex] = {vertex}
        frontier = deque(self.frequent_matches_containing(vertex))
        considered: set[MatchKey] = set()
        while frontier:
            match = frontier.popleft()
            if match.edges in considered:
                continue
            considered.add(match.edges)
            merged = group | match.vertices
            if len(merged) > max_size:
                continue
            newly = match.vertices - group
            group = merged
            for new_vertex in newly:
                frontier.extend(self.frequent_matches_containing(new_vertex))
        return frozenset(group)


class LegacySlidingWindow:
    """The PR-1 sliding window: per-departure frozenset copies."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise StreamError("window capacity must be >= 1")
        self.capacity = capacity
        self.graph = LabelledGraph()
        self._arrivals: OrderedDict[Vertex, None] = OrderedDict()
        self._external: dict[Vertex, set[Vertex]] = {}

    def add_vertex(self, vertex: Vertex, label: Label) -> None:
        if self.is_full:
            raise StreamError(f"window full (capacity {self.capacity})")
        if vertex in self._arrivals:
            raise StreamError(f"vertex {vertex!r} already buffered")
        self.graph.add_vertex(vertex, label)
        self._arrivals[vertex] = None
        self._external[vertex] = set()

    def add_edge(self, u: Vertex, v: Vertex) -> str:
        u_in = u in self._arrivals
        v_in = v in self._arrivals
        if u_in and v_in:
            self.graph.add_edge(u, v)
            return "internal"
        if u_in:
            self._external[u].add(v)
            return "external"
        if v_in:
            self._external[v].add(u)
            return "external"
        return "departed"

    def oldest(self) -> Vertex:
        try:
            return next(iter(self._arrivals))
        except StopIteration:
            raise StreamError("window is empty") from None

    def evict_oldest(self) -> WindowedVertex:
        return self.remove(self.oldest())

    def remove(self, vertex: Vertex) -> WindowedVertex:
        if vertex not in self._arrivals:
            raise StreamError(f"vertex {vertex!r} not buffered")
        internal = self.graph.neighbours(vertex)
        external = frozenset(self._external.pop(vertex))
        departed = WindowedVertex(
            vertex=vertex,
            label=self.graph.label(vertex),
            external_neighbours=external,
            internal_neighbours=internal,
        )
        for neighbour in internal:
            self._external[neighbour].add(vertex)
        self.graph.remove_vertex(vertex)
        del self._arrivals[vertex]
        return departed

    def drain(self) -> list[WindowedVertex]:
        drained: list[WindowedVertex] = []
        while self._arrivals:
            drained.append(self.evict_oldest())
        return drained

    def external_neighbours(self, vertex: Vertex) -> frozenset[Vertex]:
        try:
            return frozenset(self._external[vertex])
        except KeyError:
            raise StreamError(f"vertex {vertex!r} not buffered") from None

    def has_external(self, vertex: Vertex, neighbour: Vertex) -> bool:
        bucket = self._external.get(vertex)
        return bucket is not None and neighbour in bucket

    def arrival_order(self) -> list[Vertex]:
        return list(self._arrivals)

    @property
    def occupancy(self) -> int:
        return len(self._arrivals)

    @property
    def is_full(self) -> bool:
        return len(self._arrivals) >= self.capacity

    def __len__(self) -> int:
        return len(self._arrivals)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._arrivals


class LegacyLoomPartitioner(LoomPartitioner):
    """LOOM wired to the PR-1 hot path end to end.

    The window and matcher are the legacy classes above; ``process`` is
    the PR-1 per-event body (separate membership probes, has-external
    check and ``add_edge`` per arriving edge), which ``process_batch``
    only loops over, and
    the assignment steps pay the PR-1 departure cost (full
    ``WindowedVertex`` records with defensive copies).  The section-4.4
    placement *logic* is inherited unchanged, so the two differ in
    exactly the representation and hot-path work, and the equivalence
    tests assert both produce identical assignments.
    """

    def __init__(self, workload: Workload, config: LoomConfig) -> None:
        super().__init__(
            workload,
            config,
            window_factory=LegacySlidingWindow,
            matcher_factory=LegacyStreamMotifMatcher,
        )

    def process_batch(self, events: Sequence[StreamEvent]) -> tuple[int, int]:
        for event in events:
            self.process(event)
        vertices = sum(isinstance(event, VertexArrival) for event in events)
        return vertices, len(events) - vertices

    def process(self, event: StreamEvent) -> None:
        if isinstance(event, VertexArrival):
            while self.window.is_full:
                self._assign_due()
            self.window.add_vertex(event.vertex, event.label)
            if isinstance(self._single_placer, TraversalAwareLDG):
                self._single_placer.record_label(event.vertex, event.label)
        elif isinstance(event, EdgeArrival):
            u, v = event.u, event.v
            if self.window.add_edge(u, v) == "internal":
                self.matcher.on_edge(u, v)

    def _assign_group(self, group: frozenset[Vertex]) -> None:
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
            self.stats["split_groups"] += 1
            for vertex in ordered:
                self._assign_single(vertex)
            return
        for vertex in ordered:
            self.window.remove(vertex)
            self.assignment.assign(vertex, target)
        self.matcher.forget(group)
        self.stats["groups"] += 1
        self.stats["group_vertices"] += len(group)

    def _assign_single(self, vertex: Vertex) -> None:
        departed = self.window.remove(vertex)
        target = self._single_placer.place(
            departed.vertex,
            departed.label,
            departed.external_neighbours,
            self.assignment,
        )
        self.assignment.assign(departed.vertex, target)
        self.matcher.forget({vertex})
        self.stats["singles"] += 1
