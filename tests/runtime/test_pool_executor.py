"""Worker pool + sharded executor: serial-identical results, clean reaping.

All pools here use the ``fork`` start method where the platform offers
it -- booting a forked worker is milliseconds, so the whole suite stays
fast.  ``spawn`` is exercised end to end by the repo benchmark's
``serve-mixed-sharded`` workload (CI's bench-smoke job) and by CI's
fault-matrix job (``REPRO_START_METHOD=spawn``).
"""

import ast
import pickle
import random
from multiprocessing.connection import Connection
from pathlib import Path

import pytest
from sharded_driver import run_sharded_workload

import repro
from repro.api import Cluster, ClusterConfig, WorkerConfig
from repro.datasets import motif_testbed
from repro.runtime.pool import default_start_method
from repro.cluster.executor import DistributedQueryExecutor, run_workload
from repro.runtime import (
    ShardSnapshot,
    ShardedExecutor,
    WorkerPool,
)

START = default_start_method()


@pytest.fixture(scope="module")
def placed():
    graph, workload = motif_testbed(3, instances=12, noise=40)
    session = Cluster.open(
        ClusterConfig(partitions=4, method="ldg", seed=3), workload=workload
    )
    session.ingest(graph)
    return session, workload


@pytest.fixture(scope="module")
def pool(placed):
    session, _ = placed
    snapshot = ShardSnapshot.of(session.store, version=1)
    with WorkerPool(
        snapshot, workers=2, start_method=START, timeout=60.0
    ) as live:
        yield live


class TestShardedExecution:
    def test_single_query_matches_serial(self, placed, pool):
        session, workload = placed
        serial = DistributedQueryExecutor(session.store)
        sharded = ShardedExecutor(session.store, pool, fallback=False)
        for query in workload:
            ours = sharded.execute(query)
            reference = serial.execute(query)
            assert ours.matches == reference.matches
            assert ours.ledger.local == reference.ledger.local
            assert ours.ledger.remote == reference.ledger.remote
            assert ours.fully_local == reference.fully_local

    def test_workload_stats_identical(self, placed, pool):
        session, workload = placed
        serial = run_workload(
            session.store, workload, executions=25, rng=random.Random(11)
        )
        parallel, fanout = run_sharded_workload(
            session.store,
            workload,
            pool,
            executions=25,
            rng=random.Random(11),
            fallback=False,
        )
        assert parallel.executions == serial.executions
        assert parallel.matches == serial.matches
        assert parallel.fully_local == serial.fully_local
        assert parallel.ledger.local == serial.ledger.local
        assert parallel.ledger.remote == serial.ledger.remote
        assert fanout.executions == 25
        assert len(fanout.worker_cpu_seconds) == pool.worker_count
        assert not fanout.fallback_used

    def test_edge_tracking_merges_exactly(self, placed, pool):
        session, workload = placed
        serial = run_workload(
            session.store,
            workload,
            executions=15,
            rng=random.Random(5),
            track_edges=True,
        )
        parallel, _ = run_sharded_workload(
            session.store,
            workload,
            pool,
            executions=15,
            rng=random.Random(5),
            track_edges=True,
            fallback=False,
        )
        assert parallel.ledger.edge_counts == serial.ledger.edge_counts

    def test_replicas_respected_by_workers(self, placed, pool):
        """Replica-aware locality must survive the snapshot: replicate,
        refresh the pool, and the merged remote counts still match."""
        session, workload = placed
        store = session.store
        report = session.replicate(executions=20, budget=10, seed=2)
        assert report.replicas_added > 0
        pool.refresh(ShardSnapshot.of(store, version=2))
        serial = run_workload(
            store, workload, executions=20, rng=random.Random(13)
        )
        parallel, _ = run_sharded_workload(
            store, workload, pool,
            executions=20, rng=random.Random(13), fallback=False,
        )
        assert parallel.ledger.remote == serial.ledger.remote
        assert parallel.ledger.local == serial.ledger.local


class TestPoolLifecycle:
    def test_pool_caps_workers_at_partition_count(self, placed):
        session, _ = placed
        snapshot = ShardSnapshot.of(session.store)
        with WorkerPool(
            snapshot, workers=32, start_method=START, timeout=60.0
        ) as pool:
            assert pool.worker_count == session.config.partitions
            owned = [p for h in pool.handles for p in h.partitions]
            assert sorted(owned) == list(range(session.config.partitions))

    def test_close_reaps_processes(self, placed):
        session, _ = placed
        snapshot = ShardSnapshot.of(session.store)
        pool = WorkerPool(
            snapshot, workers=2, start_method=START, timeout=60.0
        )
        processes = [handle.process for handle in pool.handles]
        assert all(process.is_alive() for process in processes)
        pool.close()
        pool.close()  # idempotent
        assert not any(process.is_alive() for process in processes)
        assert not pool.alive

    def test_rejects_bad_parameters(self, placed):
        session, _ = placed
        snapshot = ShardSnapshot.of(session.store)
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(snapshot, workers=0)
        with pytest.raises(ValueError, match="start method"):
            WorkerPool(snapshot, workers=1, start_method="teleport")
        with pytest.raises(ValueError, match="timeout"):
            WorkerPool(snapshot, workers=1, timeout=0.0)


class TestSnapshotTransport:
    def test_image_travels_down_the_pipe_not_in_spawn_args(
        self, placed, spawns
    ):
        """Under ``spawn``, ``Process.start()`` waits until the child
        has read its arguments, so an image riding in them would boot
        the workers one after another."""
        session, _ = placed
        snapshot = ShardSnapshot.of(session.store)
        assert snapshot.num_bytes > 1024
        with WorkerPool(
            snapshot, workers=2, start_method=START, timeout=60.0
        ) as pool:
            assert pool.alive
        assert len(spawns) == 2
        for args, _ in spawns:
            plain = [arg for arg in args if not isinstance(arg, Connection)]
            assert not any(
                isinstance(arg, (ShardSnapshot, bytes, bytearray, memoryview))
                for arg in plain
            )
            assert len(pickle.dumps(plain)) < 256

    def test_no_module_binds_shared_memory(self):
        """Snapshots have one transport, the worker's pipe: no module
        under ``src/repro`` imports ``multiprocessing.shared_memory``,
        at module level or inside a function."""
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(
                    name.startswith("multiprocessing.shared_memory")
                    for name in names
                ):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert offenders == []


class TestSessionIntegration:
    def test_session_parallel_calls_match_serial(self):
        graph, workload = motif_testbed(7, instances=10, noise=30)
        session = Cluster.open(
            ClusterConfig(
                partitions=4,
                method="ldg",
                seed=7,
                worker=WorkerConfig(
                    count=2, start_method=START, fallback_serial=False
                ),
            ),
            workload=workload,
        )
        try:
            session.ingest(graph)
            serial_report = session.run_workload(executions=20, seed=1,
                                                 workers=1)
            parallel_report = session.run_workload(executions=20, seed=1)
            assert parallel_report == serial_report
            for query in workload:
                assert session.query(query, workers=2) == session.query(
                    query, workers=1
                )
            assert session.pool is not None and session.pool.alive
        finally:
            session.close()
        assert session.pool is None

    def test_ingest_reports_actual_pool_size(self):
        """Requesting more workers than partitions caps the pool; the
        report must carry the real process count, not the request."""
        graph, workload = motif_testbed(11, instances=6, noise=20)
        with Cluster.open(
            ClusterConfig(
                partitions=3,
                method="ldg",
                seed=11,
                worker=WorkerConfig(count=2, start_method=START),
            ),
            workload=workload,
        ) as session:
            report = session.ingest(graph, workers=8)
            assert report.workers == 3
            assert session.pool.worker_count == 3

    def test_pool_refreshes_after_retract(self):
        """A mutation bumps the store version; the next parallel call
        re-primes the workers instead of answering from stale shards."""
        graph, workload = motif_testbed(9, instances=8, noise=25)
        with Cluster.open(
            ClusterConfig(
                partitions=3,
                method="ldg",
                seed=9,
                worker=WorkerConfig(
                    count=2, start_method=START, fallback_serial=False
                ),
            ),
            workload=workload,
        ) as session:
            session.ingest(graph)
            before = session.run_workload(executions=15, seed=4)
            victims = [v for v in session.graph.vertices()][:4]
            session.retract(vertices=victims)
            serial = session.run_workload(executions=15, seed=4, workers=1)
            parallel = session.run_workload(executions=15, seed=4)
            assert parallel == serial
            assert parallel != before  # the retraction really changed state
