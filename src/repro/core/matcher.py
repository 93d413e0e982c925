"""Graph-stream motif matching against the TPSTry++ (paper section 4.3).

As internal edges arrive in the stream window, the matcher maintains the
set of buffered sub-graphs that match TPSTry++ nodes, using incremental
signatures:

* a new edge on its own forms a two-vertex sub-graph; if its signature is
  a TPSTry++ node, it becomes a tracked match;
* a new edge adjacent to a tracked match ``S`` extends it to ``S' = S+e``;
  ``S'`` stays tracked iff ``sig(S')`` matches a *child* of ``S``'s node
  (walking the DAG keeps per-edge work proportional to the matches the
  edge touches);
* when an extension fails, the section-4.3 procedure re-grows a sub-graph
  from ``e`` outward through the window, re-computing signatures and
  discarding edges that leave the TPSTry++ -- recovering matches hidden
  inside larger non-matching sub-graphs (the figure-3 situation, where
  ``S'`` contains two overlapping ``abc`` instances but is itself not a
  motif).

Every signature update is the paper's arithmetic: an arriving edge
multiplies in ``scheme.edge_factor(l_u, l_v)``, times
``scheme.vertex_factor(l_new)`` when it brings a vertex (``tests/core``
pins match sets and placements byte-identical to the PR-1 reference
matcher).  Matches are keyed by frozensets of compact integer edge ids
(:meth:`~repro.graph.labelled.LabelledGraph.edge_id`) and indexed per
vertex by small integer match ids.  Measured, PR 22: the tuple-keyed
reference matcher behind the same window is inside run-to-run noise
(-6 % / +5 % on the two ablation streams), so the int ids are not kept
for speed: churn retraction (:meth:`StreamMotifMatcher.retract_edge`)
is an int-set intersection on that index.

Signature matching is non-authoritative, as section 4.3 states: a hit is
trusted without an isomorphism check (experiment E7 confirms matches
post hoc and measures the precision).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from repro.graph.labelled import Edge, LabelledGraph, Vertex
from repro.tpstry.node import TPSTryNode
from repro.tpstry.trie import TPSTryPP

MatchKey = frozenset  # frozenset of packed integer edge ids

_EMPTY_IDS: frozenset[int] = frozenset()


@dataclass(frozen=True)
class MotifMatch:
    """A buffered sub-graph currently matching a TPSTry++ node.

    ``edge_ids`` is the compact identity (packed endpoint slots of the
    window graph); :attr:`edges` decodes it to canonical vertex tuples on
    demand for consumers that build sub-graphs from a match.
    """

    edge_ids: MatchKey
    vertices: frozenset[Vertex]
    signature: int
    node_signature: int
    match_id: int = field(compare=False)
    graph: LabelledGraph = field(compare=False, repr=False)
    #: Deterministic ordering key (largest match first, then vertex reprs)
    #: precomputed so assignment-time sorting never calls ``repr`` again.
    sort_key: tuple = field(compare=False, repr=False)

    @property
    def edges(self) -> frozenset[Edge]:
        decode = self.graph.edge_from_id
        return frozenset(decode(eid) for eid in self.edge_ids)

    @property
    def size(self) -> int:
        return len(self.vertices)


class StreamMotifMatcher:
    """Tracks motif matches inside a sliding window's buffered sub-graph."""

    def __init__(
        self,
        trie: TPSTryPP,
        window_graph: LabelledGraph,
        *,
        frequent_signatures: frozenset[int],
        resignature_fix: bool = True,
        timed: bool = False,
    ) -> None:
        self.trie = trie
        self.scheme = trie.scheme
        self.graph = window_graph            # shared with the SlidingWindow
        self.frequent_signatures = frequent_signatures
        self.resignature_fix = resignature_fix
        #: match key (frozenset of edge ids) -> match id (dedup probe).
        self._key_to_id: dict[MatchKey, int] = {}
        #: match id -> match (insertion-ordered; drives ``matches()``).
        self._match_by_id: dict[int, MotifMatch] = {}
        #: vertex -> ids of the matches containing it (the match index).
        self._by_vertex: dict[Vertex, set[int]] = {}
        self._next_id = 0
        #: Diagnostics for the ablation benches and the E7 table.
        #: ``evicted`` counts matches dropped because their vertices were
        #: assigned out of the window; ``retracted`` counts matches
        #: killed by explicit deletion events -- the two are disjoint by
        #: construction (a dead match id never re-enters either path).
        self.stats = {
            "direct": 0,
            "extended": 0,
            "regrown": 0,
            "rejected": 0,
            "evicted": 0,
            "retracted": 0,
        }
        #: Per-stage wall-time (seconds) when ``timed`` is on; the
        #: streaming engine snapshots these through ``stage_seconds``.
        self.timed = timed
        self.timings = {"match": 0.0, "extend": 0.0, "regrow": 0.0, "evict": 0.0}

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_edge(self, u: Vertex, v: Vertex) -> list[MotifMatch]:
        """Process an internal window edge; returns matches created by it.

        Direct DAG extension of the matches touching the edge covers every
        sub-graph whose edges arrived in a connected order.  What it cannot
        see is a motif whose fragments grew *disjointly* and are only now
        joined by this edge (``a-b`` and ``c-d`` buffered, then ``b-c``
        arrives) -- the general form of the paper's figure-3 situation.
        The section-4.3 re-signature pass re-grows a sub-graph from the
        new edge outward and recovers exactly those matches.
        """
        timed = self.timed
        timings = self.timings
        created: list[MotifMatch] = []
        e = self.graph.edge_id(u, v)
        began = perf_counter() if timed else 0.0
        scheme = self.scheme
        label_u = self.graph.label(u)
        label_v = self.graph.label(v)
        prime_u = scheme.vertex_factor(label_u)
        prime_v = scheme.vertex_factor(label_v)
        # What the edge multiplies into a sub-graph that holds both its
        # endpoints, and into one it brings ``u`` / ``v`` to.
        step = scheme.edge_factor(label_u, label_v)
        step_with_u = step * prime_u
        step_with_v = step * prime_v
        # The two-vertex signature seeds both the direct pair match and
        # the regrow pass; resolve it (and its node) exactly once.
        pair_sig = prime_u * step_with_v
        pair_node = self.trie.node_by_signature(pair_sig)

        if pair_node is not None:
            pair = self._register(
                frozenset((e,)), frozenset((u, v)), pair_sig, pair_node
            )
            if pair is not None:
                self.stats["direct"] += 1
                created.append(pair)
        if timed:
            now = perf_counter()
            timings["match"] += now - began
            began = now

        by_vertex = self._by_vertex
        touching = by_vertex.get(u, _EMPTY_IDS) | by_vertex.get(v, _EMPTY_IDS)
        if touching:
            match_by_id = self._match_by_id
            for mid in touching:
                match = match_by_id.get(mid)
                if match is None or e in match.edge_ids:
                    continue
                if u not in match.vertices:
                    extended = self._try_extend(match, e, step_with_u, u)
                elif v not in match.vertices:
                    extended = self._try_extend(match, e, step_with_v, v)
                else:
                    extended = self._try_extend(match, e, step, None)
                if extended is not None:
                    created.append(extended)
        if timed:
            now = perf_counter()
            timings["extend"] += now - began
            began = now

        if self.resignature_fix and pair_node is not None:
            created.extend(self._regrow(u, v, e, pair_sig))
            if timed:
                timings["regrow"] += perf_counter() - began
        return created

    def _try_extend(
        self, match: MotifMatch, e: int, step: int, new_vertex: Vertex | None
    ) -> MotifMatch | None:
        """Extend ``match`` with edge ``e`` (one multiply by its ``step``,
        which counts ``new_vertex`` when the edge brings one) if the DAG
        admits it."""
        signature = match.signature * step
        node = self.trie.node_by_signature(signature)
        if node is None:
            return None
        parent = self.trie.node_by_signature(match.node_signature)
        if parent is not None and signature not in parent.children:
            # Not a one-edge extension the workload's queries ever make.
            return None
        key: MatchKey = match.edge_ids | {e}
        vertices = (
            match.vertices | {new_vertex}
            if new_vertex is not None
            else match.vertices
        )
        created = self._register(key, vertices, signature, node)
        if created is not None:
            self.stats["extended"] += 1
        return created

    def _regrow(
        self, u: Vertex, v: Vertex, seed_edge: int, pair_sig: int
    ) -> list[MotifMatch]:
        """The section-4.3 incremental re-signature procedure.

        Starting from the sub-graph consisting of ``seed_edge`` alone, grow
        outward through the window graph edge by edge.  After each step the
        signature of the grown sub-graph is recomputed incrementally; an
        edge whose addition leaves the TPSTry++ is discarded and its far
        endpoint is not traversed.  Every intermediate sub-graph that *is*
        a TPSTry++ node is registered, so the largest motif match
        containing the new edge (possibly none) ends up tracked.
        """
        scheme = self.scheme
        node_of = self.trie.node_by_signature
        signature = pair_sig            # caller verified it is a trie node
        label = self.graph.label
        stats = self.stats

        created: list[MotifMatch] = []
        vertices: set[Vertex] = {u, v}
        edges: set[int] = {seed_edge}
        queue: deque[tuple[int, Vertex, Vertex]] = deque(
            self._incident_edges(vertices, edges)
        )
        while queue:
            eid, cu, cv = queue.popleft()
            if eid in edges:
                continue
            cu_in = cu in vertices
            cv_in = cv in vertices
            if not cu_in and not cv_in:
                continue  # no longer adjacent after discards
            label_cu, label_cv = label(cu), label(cv)
            extended_sig = signature * scheme.edge_factor(label_cu, label_cv)
            new_vertex: Vertex | None = None
            if not cu_in:
                new_vertex = cu
                extended_sig *= scheme.vertex_factor(label_cu)
            elif not cv_in:
                new_vertex = cv
                extended_sig *= scheme.vertex_factor(label_cv)
            node = node_of(extended_sig)
            if node is None:
                stats["rejected"] += 1
                continue  # discard this edge; don't traverse through it
            signature = extended_sig
            edges.add(eid)
            if new_vertex is not None:
                vertices.add(new_vertex)
                for incident in self._incident_edges({new_vertex}, edges):
                    queue.append(incident)
            match = self._register(
                frozenset(edges), frozenset(vertices), signature, node
            )
            if match is not None:
                created.append(match)
                stats["regrown"] += 1
        return created

    def _incident_edges(
        self, vertices: set[Vertex], excluded: set[int]
    ) -> list[tuple[int, Vertex, Vertex]]:
        graph = self.graph
        edge_id = graph.edge_id
        incident: list[tuple[int, Vertex, Vertex]] = []
        for vertex in sorted(vertices, key=repr):
            for neighbour in graph.sorted_neighbours(vertex):
                eid = edge_id(vertex, neighbour)
                if eid not in excluded:
                    incident.append((eid, vertex, neighbour))
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
    ) -> MotifMatch | None:
        if key in self._key_to_id:
            return None
        mid = self._next_id
        self._next_id = mid + 1
        match = MotifMatch(
            edge_ids=key,
            vertices=vertices,
            signature=signature,
            node_signature=node.signature,
            match_id=mid,
            graph=self.graph,
            sort_key=(-len(key), tuple(sorted(map(repr, vertices)))),
        )
        self._key_to_id[key] = mid
        self._match_by_id[mid] = match
        by_vertex = self._by_vertex
        for vertex in vertices:
            ids = by_vertex.get(vertex)
            if ids is None:
                by_vertex[vertex] = {mid}
            else:
                ids.add(mid)
        return match

    def indexes(self, vertex: Vertex) -> bool:
        """Whether the match index has an entry for ``vertex``.  When it
        has none, no match contains the vertex, so its assignment group
        is the vertex alone and :meth:`forget` would drop nothing."""
        return vertex in self._by_vertex

    def forget(self, vertices: frozenset[Vertex] | set[Vertex]) -> None:
        """Drop every match touching ``vertices`` (they were assigned).

        O(1) per index entry: the departing vertices' buckets are popped
        whole, and each doomed match id is discarded from the buckets of
        its surviving vertices only.
        """
        timed = self.timed
        began = perf_counter() if timed else 0.0
        by_vertex = self._by_vertex
        doomed: set[int] = set()
        for vertex in vertices:
            ids = by_vertex.pop(vertex, None)
            if ids:
                doomed |= ids
        if doomed:
            self._drop_matches(doomed, "evicted")
        if timed:
            self.timings["evict"] += perf_counter() - began

    def _drop_matches(self, doomed, counter: str) -> int:
        """Unregister the matches in ``doomed`` and count actual drops.

        Each dropped id leaves every index at once (key table, id table,
        per-vertex buckets), so a match can only ever be counted by one
        of ``evicted``/``retracted`` -- the no-double-eviction invariant
        the churn regression tests pin.
        """
        key_to_id = self._key_to_id
        match_by_id = self._match_by_id
        by_vertex = self._by_vertex
        dropped = 0
        for mid in doomed:
            match = match_by_id.pop(mid, None)
            if match is None:
                continue
            del key_to_id[match.edge_ids]
            for vertex in match.vertices:
                ids = by_vertex.get(vertex)
                if ids is not None:
                    ids.discard(mid)
            dropped += 1
        self.stats[counter] += dropped
        return dropped

    # ------------------------------------------------------------------
    # Explicit retraction (churn streams)
    # ------------------------------------------------------------------
    def retract_edge(self, u: Vertex, v: Vertex) -> int:
        """Kill every tracked match containing the deleted edge ``{u, v}``.

        Must run while both endpoints still hold window-graph slots (the
        edge itself may already be gone).  The per-vertex int match-id
        index makes this O(matches touching both endpoints): intersect
        the two buckets, keep the ids whose key contains the edge id.
        Returns how many matches died (counted under ``retracted``).
        """
        by_vertex = self._by_vertex
        ids_u = by_vertex.get(u)
        ids_v = by_vertex.get(v)
        if not ids_u or not ids_v:
            return 0
        e = self.graph.edge_id(u, v)
        match_by_id = self._match_by_id
        doomed = [
            mid for mid in ids_u & ids_v
            if e in match_by_id[mid].edge_ids
        ]
        if not doomed:
            return 0
        return self._drop_matches(doomed, "retracted")

    def retract_vertex(self, vertex: Vertex) -> int:
        """Kill every tracked match containing the deleted ``vertex``.

        Same O(1)-per-index-entry shape as eviction (:meth:`forget`) but
        counted under ``retracted``: the vertex was deleted, not
        assigned.
        """
        ids = self._by_vertex.pop(vertex, None)
        if not ids:
            return 0
        return self._drop_matches(ids, "retracted")

    # ------------------------------------------------------------------
    # Queries used by LOOM's assignment step
    # ------------------------------------------------------------------
    def matches(self) -> list[MotifMatch]:
        return list(self._match_by_id.values())

    def frequent_matches_containing(self, vertex: Vertex) -> list[MotifMatch]:
        """Matches of *frequent* motifs that contain ``vertex``."""
        ids = self._by_vertex.get(vertex)
        if not ids:
            return []
        match_by_id = self._match_by_id
        frequent = self.frequent_signatures
        out = [
            match
            for match in (match_by_id[mid] for mid in ids)
            if match.node_signature in frequent
        ]
        out.sort(key=lambda m: m.sort_key)
        return out

    def assignment_group(
        self, vertex: Vertex, *, max_size: int
    ) -> frozenset[Vertex]:
        """The vertex set LOOM assigns together with ``vertex``.

        Union of the frequent matches containing the vertex, closed
        transitively over shared sub-structure (section 4.4 / figure 3:
        "other matching sub-graphs which share common sub-structure ...
        will also be assigned to the same partition").  Matches that would
        push the group past ``max_size`` are skipped -- the paper's
        acknowledged mitigation for very large connected match sets.
        """
        first = self.frequent_matches_containing(vertex)
        if not first:
            return frozenset((vertex,))
        group: set[Vertex] = {vertex}
        frontier = deque(first)
        considered: set[int] = set()
        while frontier:
            match = frontier.popleft()
            if match.match_id in considered:
                continue
            considered.add(match.match_id)
            merged = group | match.vertices
            if len(merged) > max_size:
                continue
            newly = match.vertices - group
            group = merged
            for new_vertex in newly:
                frontier.extend(self.frequent_matches_containing(new_vertex))
        return frozenset(group)
