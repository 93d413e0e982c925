"""Instrumented distributed pattern-match execution.

The executor runs the same backtracking sub-graph isomorphism search as
:mod:`repro.graph.isomorphism`, but against a
:class:`~repro.cluster.store.DistributedGraphStore`, counting the edge
traversals the search performs:

* expanding a partial match from an already-matched vertex ``u`` crosses
  every edge of ``u`` once (the remote side must be asked for its label
  whether or not it ends up matching) -- each crossing local if both
  endpoints live in the same partition, remote otherwise (one message).
  Both the split and the neighbours that survive the label test depend
  only on ``u`` and the wanted label, so the store caches them
  (:meth:`~repro.cluster.store.DistributedGraphStore.expansions`) and an
  expansion is charged without touching the neighbours again;
* the initial candidate lookup for the first pattern vertex uses the
  store's label index and is not a traversal (no edge is crossed).

Aggregated over a sampled query stream this yields the paper's quality
measure: **the probability that a traversal made while answering a random
query q in Q crosses a partition boundary**, plus derived quantities
(remote traversals per query, modelled latency, fully-local answer rate).
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.cluster.latency import LatencyModel
from repro.cluster.store import DistributedGraphStore, Expansion
from repro.graph.labelled import Edge, Vertex, edge_key
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
    edge_counts: dict[Edge, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.local + self.remote

    @property
    def remote_probability(self) -> float:
        """The paper's headline metric: P(traversal crosses partitions)."""
        return self.remote / self.total if self.total else 0.0

    def merge(self, other: "TraversalLedger") -> None:
        self.local += other.local
        self.remote += other.remote
        if self.track_edges:
            for edge, count in other.edge_counts.items():
                self.edge_counts[edge] = self.edge_counts.get(edge, 0) + count

    def cost(self, model: LatencyModel) -> float:
        return model.cost(self.local, self.remote)

    def hottest_edges(self, limit: int) -> list[Edge]:
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


def matches_from(query: PatternQuery, embeddings: int) -> int:
    """The answers among the ``embeddings`` found under all of the
    query's seeds; a remainder means some seeds were left out."""
    matches, remainder = divmod(embeddings, query.automorphisms)
    if remainder:
        raise ValueError(
            f"{embeddings} embeddings of {query.name!r} are not a multiple of "
            f"its {query.automorphisms} automorphisms: the count did not cover every seed"
        )
    return matches


class DistributedQueryExecutor:
    """Backtracking pattern matching with traversal accounting.

    Each call walks the query's :attr:`~PatternQuery.plan` and charges
    every expansion from the store's cached per-anchor split (two integer
    adds), so the search touches only candidates that carry the wanted
    label.  ``track_edges=True`` additionally counts how often each
    concrete graph edge is traversed (workload profiling for the offline
    workload-aware baseline and the replication layer): anchor visits
    are counted during the search and spread over the anchors' edges
    once, at the end.

    The search counts embeddings.  Two embeddings onto the same matched
    sub-graph (vertex set and edge set) differ by a label-preserving
    automorphism of the pattern, so :meth:`execute` divides once by
    |Aut(P)|.  Each embedding lies under one *seed*, its depth-0 image,
    and each seed roots an independent subtree (the bound images and
    ``used`` set are empty between seeds).  :meth:`execute_partial`
    exposes that seam -- run only the subtrees rooted at ``seeds`` and
    return their embedding count plus ledger -- which the sharded
    multi-process runtime (:mod:`repro.runtime`) fans out per partition;
    summing partial counts and ledgers reproduces a serial
    :meth:`execute` exactly.
    """

    def __init__(
        self, store: DistributedGraphStore, *, track_edges: bool = False
    ) -> None:
        self.store = store
        self.track_edges = track_edges

    def seed_candidates(self, query: PatternQuery) -> Sequence[Vertex]:
        """Depth-0 candidates: the label-index lookup for the first vertex
        of the query's cached plan, in the executor's deterministic (repr)
        order.  No edge is crossed, so seeds are ledger-free."""
        return self.store.seeds(query.plan[0][0])

    def execute(self, query: PatternQuery) -> QueryExecution:
        """Run ``query`` to completion (all matches), counting traversals."""
        embeddings, ledger = self.execute_partial(query, None)
        return QueryExecution(query.name, matches_from(query, embeddings), ledger)

    def execute_partial(
        self, query: PatternQuery, seeds: Sequence[Vertex] | None
    ) -> tuple[int, TraversalLedger]:
        """Run only the search subtrees rooted at ``seeds``.

        ``seeds`` must be a subset of :meth:`seed_candidates` for the
        query's pattern (``None`` means all of them, i.e. a full serial
        execution).  Returns the number of embeddings found under those
        seeds and the traversal ledger of exactly that work.
        """
        store = self.store
        # Per depth: the anchor to expand, the other anchors a candidate
        # must neighbour, and the wanted label's cached expansions.
        plan: list[tuple[int, tuple[int, ...], Mapping[Vertex, Expansion]]] = [
            (anchor, others, store.expansions(label))
            for label, anchor, others in query.plan
        ]
        last = len(plan) - 1
        neighbours = store.neighbours
        images: list[Vertex] = [None] * len(plan)
        used: set[Vertex] = set()
        visits: dict[Vertex, int] = {}
        track_edges = self.track_edges
        local = remote = embeddings = 0

        def backtrack(depth: int, pool: Sequence[Vertex]) -> None:
            nonlocal local, remote, embeddings
            others = plan[depth][1]
            for w in pool:
                if w in used:
                    continue
                # Adjacency to the other anchors is a shard-local probe on
                # the fetched candidate's record: no traversal.
                if others and not all(w in neighbours(images[o]) for o in others):
                    continue
                if depth == last:
                    embeddings += 1
                    continue
                images[depth] = w
                # One expansion crosses every edge of the anchor image:
                # its split and label pool are cached per anchor.
                anchor, _, expansions = plan[depth + 1]
                a = images[anchor]
                step_local, step_remote, pool_below = expansions[a]
                local += step_local
                remote += step_remote
                if track_edges:
                    visits[a] = visits.get(a, 0) + 1
                used.add(w)
                backtrack(depth + 1, pool_below)
                used.discard(w)

        backtrack(0, store.seeds(query.plan[0][0]) if seeds is None else seeds)
        # backtrack reaches itself through its closure; break that cycle
        # so the frame state it holds is freed with the call, not at the
        # next full garbage collection.
        del backtrack
        ledger = TraversalLedger(local, remote, track_edges)
        if track_edges:
            # Expand anchor visits into per-edge counts in first-visit
            # order: the insertion order a per-neighbour walk produces.
            counts = ledger.edge_counts
            for a, times in visits.items():
                for w in store.sorted_neighbours(a):
                    edge = edge_key(a, w)
                    counts[edge] = counts.get(edge, 0) + times
        return embeddings, ledger


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

