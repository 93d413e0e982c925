"""``repro.api`` -- the public session façade over the whole system.

One stable, typed entry point for the paper's end-to-end loop::

    from repro.api import Cluster, ClusterConfig, DurabilityConfig

    config = ClusterConfig(partitions=8, method="loom",
                           durability=DurabilityConfig(mode="wal",
                                                       wal_dir="wal/"))
    session = Cluster.open(config, workload=my_workload)
    session.ingest(my_graph)                  # stream -> place -> store
    report = session.run_workload()           # typed WorkloadReport
    session.rebalance(max_moves=50)           # migrate, report the delta
    session.close()
    later = Cluster.recover("wal/", workload=my_workload)  # queryable

Everything else in the package (engine, partitioners, store, executor,
replication) stays importable for research use, but the lifecycle --
which pieces to build, in which order, with which randomness -- is owned
here and implemented exactly once.
"""

from repro.api.config import ClusterConfig, DurabilityConfig, WorkerConfig
from repro.api.results import (
    ClusterStats,
    IngestReport,
    QueryResult,
    RebalanceReport,
    ResilienceReport,
    RetractReport,
    WorkloadReport,
)
from repro.exceptions import ConcurrentSessionError, SessionError
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.api.ingest import DATASET_SEED_OFFSET, STREAM_SEED_OFFSET
from repro.api.session import (
    REPLICATION_SEED_OFFSET,
    SNAPSHOT_SCHEMA,
    WORKLOAD_SEED_OFFSET,
    Session,
)
from repro.api.cluster import Cluster

__all__ = [
    "Cluster",
    "ClusterConfig",
    "DurabilityConfig",
    "WorkerConfig",
    "FaultPlan",
    "WorkerFault",
    "Session",
    "SessionError",
    "ConcurrentSessionError",
    "ClusterStats",
    "IngestReport",
    "QueryResult",
    "ResilienceReport",
    "WorkloadReport",
    "RebalanceReport",
    "RetractReport",
    "SNAPSHOT_SCHEMA",
    "STREAM_SEED_OFFSET",
    "DATASET_SEED_OFFSET",
    "WORKLOAD_SEED_OFFSET",
    "REPLICATION_SEED_OFFSET",
]
