"""Instrumented distributed pattern-match execution.

The executor runs the same backtracking sub-graph isomorphism search as
:mod:`repro.graph.isomorphism`, but against a
:class:`~repro.cluster.store.DistributedGraphStore`, recording every edge
traversal the search performs:

* expanding a partial match from an already-matched vertex ``u`` to a
  neighbour ``w`` is one *traversal* of the edge ``(u, w)`` -- local if
  both live in the same partition, remote otherwise (one message);
* the initial candidate lookup for the first pattern vertex uses the
  store's label index and is not a traversal (no edge is crossed).

Aggregated over a sampled query stream this yields the paper's quality
measure: **the probability that a traversal made while answering a random
query q in Q crosses a partition boundary**, plus derived quantities
(remote traversals per query, modelled latency, fully-local answer rate).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.cluster.latency import LatencyModel
from repro.cluster.store import DistributedGraphStore
from repro.graph.isomorphism import search_order
from repro.graph.labelled import Vertex, edge_key
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload


@dataclass
class TraversalLedger:
    """Counts of edge traversals performed by one or more executions.

    Besides the local/remote totals (the paper's metric), the ledger can
    keep per-edge traversal counts (``track_edges=True``).  Those are the
    "individual edge-weights to represent traversal frequency" the paper's
    section 3.1 says an offline workload-aware partitioner would need --
    :func:`repro.partitioning.workload_offline.workload_aware_multilevel`
    consumes them -- and what the replication layer uses to find hotspots.
    """

    local: int = 0
    remote: int = 0
    track_edges: bool = False
    edge_counts: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.local + self.remote

    @property
    def remote_probability(self) -> float:
        """The paper's headline metric: P(traversal crosses partitions)."""
        return self.remote / self.total if self.total else 0.0

    def record(self, crossed: bool, edge=None) -> None:
        if crossed:
            self.remote += 1
        else:
            self.local += 1
        if self.track_edges and edge is not None:
            self.edge_counts[edge] = self.edge_counts.get(edge, 0) + 1

    def merge(self, other: "TraversalLedger") -> None:
        self.local += other.local
        self.remote += other.remote
        if self.track_edges:
            for edge, count in other.edge_counts.items():
                self.edge_counts[edge] = self.edge_counts.get(edge, 0) + count

    def cost(self, model: LatencyModel) -> float:
        return model.cost(self.local, self.remote)

    def hottest_edges(self, limit: int) -> list:
        """The ``limit`` most-traversed edges, hottest first."""
        ranked = sorted(
            self.edge_counts.items(), key=lambda item: (-item[1], repr(item[0]))
        )
        return [edge for edge, _ in ranked[:limit]]


@dataclass
class QueryExecution:
    """Result of running one query once."""

    query_name: str
    matches: int
    ledger: TraversalLedger

    @property
    def fully_local(self) -> bool:
        """True when the query was answered without leaving any partition."""
        return self.ledger.remote == 0


#: One deduplicated query answer: the matched vertex set plus the matched
#: edge set as compact int edge ids.  Hashable and picklable, so partial
#: executions can merge answer sets across processes.
Answer = tuple[frozenset, frozenset]


class DistributedQueryExecutor:
    """Backtracking pattern matching with traversal accounting.

    ``track_edges=True`` additionally records how often each concrete
    graph edge is traversed (workload profiling for the offline
    workload-aware baseline and the replication layer).

    The top-level search decomposes perfectly by *seed*: each candidate
    image of the first pattern vertex roots an independent subtree
    (``mapping``/``used`` are empty between seeds, and answer dedup never
    prunes traversals).  :meth:`execute_partial` exposes that seam -- run
    only the subtrees rooted at ``seeds`` and return the raw answer set
    plus ledger -- which is what the sharded multi-process runtime
    (:mod:`repro.runtime`) fans out per partition; summing partial
    ledgers and unioning partial answer sets reproduces a serial
    :meth:`execute` exactly.
    """

    def __init__(
        self, store: DistributedGraphStore, *, track_edges: bool = False
    ) -> None:
        self.store = store
        self.track_edges = track_edges

    def seed_candidates(self, pattern) -> list[Vertex]:
        """Depth-0 candidates: the label-index lookup for the first vertex
        of the search order, in the executor's deterministic (repr) order.
        No edge is crossed, so seeds are ledger-free."""
        order = search_order(pattern)
        if not order:
            return []
        wanted = pattern.label(order[0])
        return sorted(self.store.vertices_with_label(wanted), key=repr)

    def execute(self, query: PatternQuery) -> QueryExecution:
        """Run ``query`` to completion (all matches), counting traversals."""
        answers, ledger = self.execute_partial(query, None)
        return QueryExecution(query.name, len(answers), ledger)

    def execute_partial(
        self, query: PatternQuery, seeds: Sequence[Vertex] | None
    ) -> tuple[set[Answer], TraversalLedger]:
        """Run only the search subtrees rooted at ``seeds``.

        ``seeds`` must be a subset of :meth:`seed_candidates` for the
        query's pattern (``None`` means all of them, i.e. a full serial
        execution).  Returns the deduplicated answer set found under
        those seeds and the traversal ledger of exactly that work.
        """
        pattern = query.graph
        store = self.store
        ledger = TraversalLedger(track_edges=self.track_edges)
        track_edges = self.track_edges

        order = search_order(pattern)
        # Hoisted out of the per-answer leaf: the pattern's edge list is
        # fixed for the whole execution, and answers dedup by compact
        # integer edge ids from the store graph's interned adjacency core
        # (cheaper to hash than canonical vertex tuples, same identity).
        pattern_edges = list(pattern.edges())
        answer_edge_id = store.graph.edge_id
        record = ledger.record
        is_remote_from = store.is_remote_from
        store_label = store.label
        mapping: dict[Vertex, Vertex] = {}
        used: set[Vertex] = set()
        seen_answers: set[Answer] = set()

        def candidates(pattern_vertex: Vertex) -> list[Vertex]:
            wanted = pattern.label(pattern_vertex)
            anchors = [
                p for p in pattern.neighbours(pattern_vertex) if p in mapping
            ]
            if not anchors:
                # Label-index lookup: no edge crossed.
                return sorted(
                    (
                        v
                        for v in store.vertices_with_label(wanted)
                        if v not in used
                    ),
                    key=repr,
                )
            # Expand from the matched anchor image: each neighbour touched
            # is one traversal (the remote side must be asked for its
            # label/degree, whether or not it ends up matching).  The
            # anchor's partition is resolved once for the whole expansion.
            anchor_image = mapping[anchors[0]]
            home = store.partition_of(anchor_image)
            pool = []
            for w in store.sorted_neighbours(anchor_image):
                record(
                    is_remote_from(home, w),
                    edge=edge_key(anchor_image, w) if track_edges else None,
                )
                if w in used or store_label(w) != wanted:
                    continue
                pool.append(w)
            # Remaining anchors filter by adjacency; checking adjacency of
            # an already-fetched candidate against a matched vertex is a
            # shard-local index probe on the candidate's record.
            out = []
            for w in pool:
                ok = True
                for other in anchors[1:]:
                    if w not in store.neighbours(mapping[other]):
                        ok = False
                        break
                if ok:
                    out.append(w)
            return out

        def backtrack(depth: int) -> None:
            if depth == len(order):
                # A query answer is a sub-graph: dedup by mapped vertices
                # *and* mapped edges (two embeddings over the same vertex
                # set can select different edges, e.g. a path inside a
                # triangle), matching the reference matcher exactly.
                seen_answers.add(
                    (
                        frozenset(mapping.values()),
                        frozenset(
                            answer_edge_id(mapping[u], mapping[v])
                            for u, v in pattern_edges
                        ),
                    )
                )
                return
            pattern_vertex = order[depth]
            for candidate in candidates(pattern_vertex):
                mapping[pattern_vertex] = candidate
                used.add(candidate)
                backtrack(depth + 1)
                del mapping[pattern_vertex]
                used.discard(candidate)

        if not order:
            # Degenerate empty pattern (unreachable through PatternQuery,
            # which requires at least one vertex): one empty answer.
            seen_answers.add((frozenset(), frozenset()))
        else:
            first = order[0]
            for seed in candidates(first) if seeds is None else seeds:
                mapping[first] = seed
                used.add(seed)
                backtrack(1)
                del mapping[first]
                used.discard(seed)
        return seen_answers, ledger


@dataclass
class WorkloadStats:
    """Aggregate statistics over an executed query stream."""

    executions: int = 0
    matches: int = 0
    fully_local: int = 0
    ledger: TraversalLedger = field(default_factory=TraversalLedger)

    @property
    def remote_probability(self) -> float:
        return self.ledger.remote_probability

    @property
    def remote_per_query(self) -> float:
        return self.ledger.remote / self.executions if self.executions else 0.0

    @property
    def fully_local_rate(self) -> float:
        return self.fully_local / self.executions if self.executions else 0.0

    def mean_cost(self, model: LatencyModel) -> float:
        if not self.executions:
            return 0.0
        return self.ledger.cost(model) / self.executions

    def observe(self, execution: QueryExecution) -> None:
        self.executions += 1
        self.matches += execution.matches
        if execution.fully_local:
            self.fully_local += 1
        self.ledger.merge(execution.ledger)


def run_workload(
    store: DistributedGraphStore,
    workload: Workload,
    *,
    executions: int = 200,
    rng: random.Random | int,
    track_edges: bool = False,
) -> WorkloadStats:
    """Sample ``executions`` queries by frequency and execute them all.

    This realises the paper's evaluation loop: a random ``q in Q`` arrives,
    the cluster answers it, and we observe how often its traversals cross
    partition boundaries.  ``track_edges=True`` additionally aggregates
    per-edge traversal counts into the returned stats' ledger (workload
    profiling).

    ``rng`` is the query sampler's randomness, injected explicitly --
    either a ``random.Random`` instance or a bare seed -- so the module
    global generator is never touched and runs are reproducible by
    construction.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    executor = DistributedQueryExecutor(store, track_edges=track_edges)
    stats = WorkloadStats()
    stats.ledger.track_edges = track_edges
    for query in workload.sample_many(executions, rng):
        stats.observe(executor.execute(query))
    return stats

