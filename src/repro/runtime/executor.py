"""Sharded query execution: the multi-process sibling of the serial executor.

:class:`ShardedExecutor` presents the same ``execute`` contract as
:class:`~repro.cluster.executor.DistributedQueryExecutor`, but fans the
work out across a :class:`~repro.runtime.pool.WorkerPool`: every worker
runs the search subtrees rooted at the depth-0 seeds homed in its owned
partitions, and the coordinator sums the partial
:class:`~repro.cluster.executor.TraversalLedger` counts and embedding
counts deterministically.  The merge is exact, not approximate:

* per-seed subtrees are independent (the bound images and ``used`` set
  reset between seeds), so summing partial local/remote counts equals
  the serial ledger;
* every embedding lies under exactly one seed, its depth-0 image, so
  the partial embedding counts sum to the serial count, which the
  coordinator divides once by the pattern's automorphism count.

Hence a parallel :class:`QueryExecution` (and any
``WorkloadStats``/report built from it) is byte-identical to the serial
one, under any seed, on any dataset.

Degradation: any worker crash, hang or in-worker exception surfaces as
:class:`~repro.runtime.pool.WorkerCrashError`; with ``fallback=True``
(the default) the executor emits a :class:`RuntimeWarning` and re-runs
the whole batch in-process with the serial executor instead of hanging
on a dead mailbox -- same results, no parallelism.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.executor import (
    DistributedQueryExecutor,
    QueryExecution,
    TraversalLedger,
    matches_from,
)
from repro.cluster.store import DistributedGraphStore
from repro.runtime.pool import WorkerCrashError, WorkerPool
from repro.workload.query import PatternQuery


@dataclass(frozen=True, slots=True)
class FanoutStats:
    """Measured cost profile of one batched fan-out.

    ``worker_cpu_seconds`` is each worker's own CPU time for its share;
    ``coordinator_seconds`` is the CPU time the merge took.  The
    *makespan* -- what the batch would take with one free core per
    worker -- is the slowest worker plus the merge.  ``wall_seconds`` is
    the observed wall clock, which on a machine with fewer cores than
    workers approaches the CPU total instead of the makespan.
    """

    executions: int
    wall_seconds: float
    coordinator_seconds: float
    worker_cpu_seconds: tuple[float, ...]
    fallback_used: bool = False

    @property
    def makespan_seconds(self) -> float:
        slowest = max(self.worker_cpu_seconds, default=0.0)
        return slowest + self.coordinator_seconds

    @property
    def cpu_seconds(self) -> float:
        return sum(self.worker_cpu_seconds) + self.coordinator_seconds


class ShardedExecutor:
    """Per-partition fan-out execution over a primed worker pool."""

    def __init__(
        self,
        store: DistributedGraphStore,
        pool: WorkerPool,
        *,
        track_edges: bool = False,
        fallback: bool = True,
    ) -> None:
        self.store = store
        self.pool = pool
        self.track_edges = track_edges
        self.fallback = fallback
        #: Cost profile of the most recent :meth:`run` (None before any).
        self.last_fanout: FanoutStats | None = None

    def execute(self, query: PatternQuery) -> QueryExecution:
        """Run one query across the pool (serial-identical result)."""
        return self.run([query])[0]

    def run(self, queries: Sequence[PatternQuery]) -> list[QueryExecution]:
        """Run a whole batch in one round trip per worker."""
        began_wall = time.perf_counter()
        responses = None
        try:
            responses = self.pool.execute(
                queries, track_edges=self.track_edges
            )
        except WorkerCrashError as error:
            if not self.fallback:
                raise
            warnings.warn(
                "sharded execution degraded to in-process serial "
                f"execution: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
        began_cpu = time.process_time()
        if responses is None:
            serial = DistributedQueryExecutor(self.store, track_edges=self.track_edges)
            executions = [serial.execute(query) for query in queries]
        else:
            executions = []
            for index, query in enumerate(queries):
                ledger = TraversalLedger(track_edges=self.track_edges)
                embeddings = 0
                for response in responses:
                    partial = response.results[index]
                    ledger.local += partial.local
                    ledger.remote += partial.remote
                    embeddings += partial.embeddings
                    if self.track_edges and partial.edge_counts:
                        counts = ledger.edge_counts
                        for edge, count in partial.edge_counts:
                            counts[edge] = counts.get(edge, 0) + count
                executions.append(QueryExecution(
                    query.name, matches_from(query, embeddings), ledger
                ))
        self.last_fanout = FanoutStats(
            executions=len(queries),
            wall_seconds=time.perf_counter() - began_wall,
            coordinator_seconds=time.process_time() - began_cpu,
            worker_cpu_seconds=tuple(r.cpu_seconds for r in responses or ()),
            fallback_used=responses is None,
        )
        return executions
