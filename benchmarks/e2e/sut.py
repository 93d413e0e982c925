"""How the system under test is configured, in one place: the parent,
the killed child and the reference sessions must agree on it."""

from __future__ import annotations

from repro.api import ClusterConfig

#: Partitions of every cluster the benchmark opens.
K = 8
TENANT = "bench"
#: Shard workers of the ``serve-mixed-sharded`` tenant.  ``spawn``, not
#: ``fork``: the daemon boots its pool from a process that already runs
#: an event loop thread, where forking can inherit a held lock.
SHARD_WORKERS = 2
START_METHOD = "spawn"


def cluster_config(
    seed: int, *, method: str = "loom", wal_dir: str | None = None, workers: int = 1
) -> ClusterConfig:
    payload = {
        "partitions": K,
        "method": method,
        "seed": seed,
        "worker": {"count": workers, "start_method": START_METHOD},
    }
    if wal_dir is not None:
        payload["durability"] = {"mode": "wal", "wal_dir": wal_dir, "sync": "async"}
    return ClusterConfig.from_dict(payload)


def serve_config(seed: int, *, workers: int = 1):
    """One LOOM tenant bound to the fraud workload, on an ephemeral port."""
    # Imported here so the killed child, which only ingests, does not
    # load the serving stack into the memory it reports.
    from repro.serve import ServeConfig, TenantConfig

    tenant = TenantConfig(
        name=TENANT,
        cluster=cluster_config(seed, workers=workers),
        workload_dataset="fraud",
    )
    return ServeConfig(port=0, tenants=(tenant,))
