"""A test-only workload driver over :class:`ShardedExecutor`: the
parallel twin of :func:`repro.cluster.executor.run_workload` (imported by
bare module name, like ``tests/core/reference_matcher.py``)."""

from __future__ import annotations

import random

from repro.cluster.executor import WorkloadStats
from repro.cluster.store import DistributedGraphStore
from repro.runtime.executor import FanoutStats, ShardedExecutor
from repro.runtime.pool import WorkerPool
from repro.workload.workloads import Workload


def run_sharded_workload(
    store: DistributedGraphStore,
    workload: Workload,
    pool: WorkerPool,
    *,
    executions: int = 200,
    rng: random.Random | int,
    track_edges: bool = False,
    fallback: bool = True,
) -> tuple[WorkloadStats, FanoutStats]:
    """The parallel twin of :func:`repro.cluster.executor.run_workload`.

    Samples the identical query stream (same RNG discipline), executes
    it in one batched fan-out, and aggregates the merged executions in
    sample order -- the returned :class:`WorkloadStats` is equal, field
    for field, to the serial function's under the same seed.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    queries = list(workload.sample_many(executions, rng))
    executor = ShardedExecutor(
        store, pool, track_edges=track_edges, fallback=fallback
    )
    stats = WorkloadStats()
    stats.ledger.track_edges = track_edges
    for execution in executor.run(queries):
        stats.observe(execution)
    assert executor.last_fanout is not None
    return stats, executor.last_fanout
