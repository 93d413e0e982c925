"""``Session.close()`` must be idempotent and crash-ordering-safe.

Close is the one call that always runs -- in ``finally`` blocks, in
``__exit__``, after a crash, sometimes twice -- so every teardown
ordering lands here: double close, close over dead workers, close after
a degradation, close with a durable log attached, and use-after-close
(serial execution survives; only the pool and the WAL are released).
"""

import time

import pytest

from repro.api import (
    Cluster,
    ClusterConfig,
    DurabilityConfig,
    FaultPlan,
    WorkerConfig,
    WorkerFault,
)
from repro.datasets import motif_testbed
from repro.runtime.pool import default_start_method
from repro.runtime.wal import recover_store

START = default_start_method()


def parallel_session(durability=None, **worker_overrides):
    graph, workload = motif_testbed(5, instances=8, noise=20)
    options = dict(count=2, start_method=START)
    options.update(worker_overrides)
    session = Cluster.open(
        ClusterConfig(
            partitions=4,
            method="ldg",
            seed=7,
            worker=WorkerConfig(**options),
            durability=durability or DurabilityConfig(),
        ),
        workload=workload,
    )
    session.ingest(graph)
    return session


class TestCloseIdempotence:
    def test_double_close(self):
        session = parallel_session()
        session.run_workload(executions=5, seed=1)
        pool = session.pool
        session.close()
        assert session.pool is None
        assert not pool.alive
        session.close()  # second close is a no-op, not an error
        assert session.pool is None

    def test_close_with_every_worker_already_dead(self):
        """A dead worker's pipe must not hang the shutdown: close joins
        with a bounded timeout and escalates to terminate."""
        session = parallel_session()
        session.run_workload(executions=5, seed=1)
        for handle in session.pool.handles:
            handle.process.kill()
            handle.process.join(timeout=5.0)
        began = time.perf_counter()
        session.close()
        assert time.perf_counter() - began < 30.0
        session.close()

    def test_close_after_degradation(self):
        """A session that burned its retry budget and degraded to serial
        still closes cleanly (its pool is already gone)."""
        plan = FaultPlan(
            [WorkerFault(worker_id=0, kind="kill", generation=g)
             for g in range(2)]
        )
        session = parallel_session(fault_plan=plan, max_retries=1)
        with pytest.warns(RuntimeWarning, match="degraded"):
            session.run_workload(executions=5, seed=1)
        assert session.resilience.serial_fallbacks == 1
        session.close()
        session.close()

    def test_context_manager_close_then_explicit_close(self):
        with parallel_session() as session:
            session.run_workload(executions=5, seed=1)
        session.close()  # after __exit__ already closed


class TestCloseAndDurability:
    def test_close_releases_the_wal_and_recovery_matches(self, tmp_path):
        session = parallel_session(
            durability=DurabilityConfig(
                mode="wal", wal_dir=str(tmp_path / "wal")
            )
        )
        image = session.store.export_columns()
        store = session.store
        session.close()
        assert session.wal is None
        assert store.wal_hook is None  # unhooked, not dangling
        recovered, info = recover_store(tmp_path / "wal", partitions=4)
        assert recovered.export_columns() == image
        # The folded counters survive the close.
        assert session.resilience.wal_records > 0
        session.close()

    def test_recovered_session_closes_cleanly(self, tmp_path):
        session = parallel_session(
            durability=DurabilityConfig(
                mode="wal", wal_dir=str(tmp_path / "wal")
            )
        )
        session.close()
        recovered = Cluster.recover(tmp_path / "wal")
        recovered.close()
        recovered.close()


class TestUseAfterClose:
    def test_serial_execution_survives_close(self):
        session = parallel_session()
        before = session.run_workload(executions=5, seed=1, workers=1)
        session.close()
        after = session.run_workload(executions=5, seed=1, workers=1)
        assert after == before

    def test_parallel_call_after_close_respawns(self):
        """Close is not a poison pill: the next parallel call simply
        provisions a fresh pool."""
        session = parallel_session()
        serial = session.run_workload(executions=5, seed=1, workers=1)
        session.close()
        parallel = session.run_workload(executions=5, seed=1)
        assert parallel == serial
        assert session.pool is not None and session.pool.alive
        session.close()
