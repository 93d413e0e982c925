"""``repro.runtime`` -- the sharded multi-process query runtime.

Everything before this package *simulates* distribution inside one
Python process; this package makes the partitioned store actually span
processes.  Each worker hosts a shard replica booted from a pickled
:class:`ShardSnapshot` (its pipe's first message), owns a round-robin slice of the partitions, and
serves batched requests over its own pipe; the
:class:`ShardedExecutor` fans candidate expansion out per partition and
sums traversal ledgers and embedding counts so parallel results are
byte-identical to serial execution.

The session façade integrates it behind one knob::

    from repro.api import Cluster, ClusterConfig, WorkerConfig

    session = Cluster.open(
        ClusterConfig(partitions=8, worker=WorkerConfig(count=4)),
        workload=my_workload,
    )
    session.ingest("social", workers=4)       # primes the pool too
    report = session.run_workload(workers=4)  # == serial, measured in parallel
    session.close()                           # reaps the worker processes

Direct use (research code, benchmarks)::

    from repro.runtime import ShardSnapshot, WorkerPool, ShardedExecutor

    with WorkerPool(ShardSnapshot.of(store), workers=4) as pool:
        result = ShardedExecutor(store, pool).execute(query)
"""

from repro.runtime.executor import FanoutStats, ShardedExecutor
from repro.runtime.faults import FAULT_KINDS, FaultPlan, WorkerFault
from repro.runtime.mailbox import DeltaRefresh, QueryPayload
from repro.runtime.pool import (
    START_METHODS,
    WorkerCrashError,
    WorkerHandle,
    WorkerPool,
)
from repro.runtime.snapshot import (
    SHARD_SNAPSHOT_SCHEMA,
    ShardSnapshot,
    SnapshotSchemaError,
    owned_partitions,
)
from repro.runtime.wal import (
    SYNC_POLICIES,
    DurableLog,
    RecoveryInfo,
    WriteAheadLog,
    recover_store,
)
from repro.runtime.worker import apply_delta

__all__ = [
    "DeltaRefresh",
    "DurableLog",
    "FAULT_KINDS",
    "FanoutStats",
    "FaultPlan",
    "QueryPayload",
    "RecoveryInfo",
    "SHARD_SNAPSHOT_SCHEMA",
    "START_METHODS",
    "SYNC_POLICIES",
    "ShardSnapshot",
    "ShardedExecutor",
    "SnapshotSchemaError",
    "WorkerCrashError",
    "WorkerFault",
    "WorkerHandle",
    "WorkerPool",
    "WriteAheadLog",
    "apply_delta",
    "owned_partitions",
    "recover_store",
]
