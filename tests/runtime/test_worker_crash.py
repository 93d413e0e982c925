"""Worker death must degrade, never hang: the kill-the-worker tests."""

import multiprocessing
import random
import time

import pytest
from sharded_driver import run_sharded_workload

from repro.api import Cluster, ClusterConfig, WorkerConfig
from repro.datasets import fraud_network, fraud_workload, motif_testbed
from repro.runtime import worker as worker_module
from repro.runtime.pool import default_start_method
from repro.cluster.executor import run_workload
from repro.runtime import (
    FaultPlan,
    ShardSnapshot,
    ShardedExecutor,
    WorkerCrashError,
    WorkerFault,
    WorkerPool,
)

START = default_start_method()


@pytest.fixture()
def placed():
    graph, workload = motif_testbed(5, instances=10, noise=30)
    session = Cluster.open(
        ClusterConfig(partitions=4, method="ldg", seed=5), workload=workload
    )
    session.ingest(graph)
    return session, workload


def kill_one(pool):
    victim = pool.handles[0].process
    victim.kill()
    victim.join(timeout=5.0)
    assert not victim.is_alive()


class TestCrashFallback:
    def test_fallback_serial_with_warning(self, placed):
        """A killed worker turns the fan-out into a warned in-process
        run with identical results -- not a hang on a dead pipe."""
        session, workload = placed
        reference = run_workload(
            session.store, workload, executions=15, rng=random.Random(2)
        )
        snapshot = ShardSnapshot.of(session.store)
        with WorkerPool(
            snapshot, workers=2, start_method=START, timeout=30.0
        ) as pool:
            kill_one(pool)
            with pytest.warns(RuntimeWarning, match="degraded"):
                stats, fanout = run_sharded_workload(
                    session.store,
                    workload,
                    pool,
                    executions=15,
                    rng=random.Random(2),
                    fallback=True,
                )
        assert fanout.fallback_used
        assert stats.matches == reference.matches
        assert stats.ledger.local == reference.ledger.local
        assert stats.ledger.remote == reference.ledger.remote

    def test_fallback_disabled_raises(self, placed):
        session, workload = placed
        snapshot = ShardSnapshot.of(session.store)
        with WorkerPool(
            snapshot, workers=2, start_method=START, timeout=30.0
        ) as pool:
            kill_one(pool)
            executor = ShardedExecutor(
                session.store, pool, fallback=False
            )
            with pytest.raises(WorkerCrashError):
                executor.execute(next(iter(workload)))

    def test_timeout_poisons_pool_closed_then_retried(self, placed):
        """A round trip that times out while the workers are still alive
        leaves undrained responses in the pipes.  The pool must close
        itself (never serve stale responses) and the call must retry on
        a respawned pool -- completing parallel, warning-free, with the
        poisoning visible only in the resilience counters."""
        import warnings

        session, workload = placed
        graph = session.graph
        config = ClusterConfig(
            partitions=4,
            method="ldg",
            seed=5,
            worker=WorkerConfig(count=2, start_method=START),
        )
        with Cluster.open(config, workload=workload) as parallel_session:
            parallel_session.ingest(graph)
            serial = parallel_session.run_workload(
                executions=15, seed=3, workers=1
            )
            poisoned = parallel_session.pool

            # Deterministically poison worker 0's pipe (a real tiny
            # timeout races with fast workers): it polls ready but
            # reads as broken, so the worker's response stays undrained.
            def broken_recv():
                raise EOFError("simulated broken pipe")

            poisoned.handles[0].connection.recv = broken_recv
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # retry must stay silent
                recovered = parallel_session.run_workload(
                    executions=15, seed=3
                )
            assert recovered == serial
            assert not poisoned.alive  # closed, not left poisoned
            assert parallel_session.pool is not poisoned
            assert parallel_session.pool.alive
            resilience = parallel_session.resilience
            assert resilience.call_retries >= 1
            assert resilience.worker_respawns >= 1
            assert resilience.serial_fallbacks == 0
            # Store mutation forces a re-prime on the next parallel call;
            # the respawned pool keeps serving it.
            parallel_session.replicate(executions=5, budget=2, seed=1)
            serial_after = parallel_session.run_workload(
                executions=15, seed=3, workers=1
            )
            recovered_after = parallel_session.run_workload(
                executions=15, seed=3
            )
            assert recovered_after == serial_after

    def test_session_self_heals_after_worker_death(self, placed):
        """Through the façade: a worker killed between calls is noticed
        at dispatch time -- the session respawns a healthy pool and the
        next parallel call completes with serial-identical results (no
        hang, no stale pipe)."""
        session, workload = placed
        graph = session.graph
        config = ClusterConfig(
            partitions=4,
            method="ldg",
            seed=5,
            worker=WorkerConfig(count=2, start_method=START),
        )
        with Cluster.open(config, workload=workload) as parallel_session:
            parallel_session.ingest(graph)
            serial = parallel_session.run_workload(
                executions=15, seed=3, workers=1
            )
            healthy = parallel_session.run_workload(executions=15, seed=3)
            assert healthy == serial
            dead_pool = parallel_session.pool
            kill_one(dead_pool)
            recovered = parallel_session.run_workload(executions=15, seed=3)
            assert recovered == serial
            assert parallel_session.pool is not dead_pool
            assert parallel_session.pool.alive


class TestBootFailure:
    def test_worker_dead_before_handshake_fails_the_spawn(
        self, placed, spawns, monkeypatch
    ):
        """A worker that dies before its ``Hello`` makes the spawn raise
        :class:`WorkerCrashError`, and the half-built pool reaps every
        child it started -- its healthy peer included -- before the
        error leaves the constructor."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        real_worker_main = worker_module.worker_main

        def half_broken_worker_main(worker_id, connection, *args):
            if worker_id == 0:
                connection.close()
                return
            real_worker_main(worker_id, connection, *args)

        # fork keeps the patched module in the child; spawn would
        # re-import the real worker_main.
        monkeypatch.setattr(
            worker_module, "worker_main", half_broken_worker_main
        )
        session, _ = placed
        with pytest.raises(WorkerCrashError):
            WorkerPool(
                ShardSnapshot.of(session.store),
                workers=2,
                start_method="fork",
                timeout=10.0,
            )
        assert len(spawns) == 2
        assert not any(process.is_alive() for _, process in spawns)

    def test_worker_stalled_before_its_first_read_fails_the_spawn(
        self, spawns
    ):
        """An image larger than a pipe holds blocks its send until the
        worker reads.  A worker that stalls before that read (an import
        that never returns) must fail the spawn within about
        ``timeout``, named, with every child reaped -- not hold the
        constructor for as long as the stall lasts."""
        session = Cluster.open(
            ClusterConfig(partitions=4, method="hash", seed=0),
            workload=fraud_workload(),
        )
        session.ingest(fraud_network(2000, rng=random.Random(0)))
        snapshot = ShardSnapshot.of(session.store)
        session.close()
        assert snapshot.num_bytes > 64 * 1024
        timeout = 1.0
        began = time.monotonic()
        with pytest.raises(WorkerCrashError, match=r"worker 1 \(alive"):
            WorkerPool(
                snapshot,
                workers=2,
                start_method=START,
                timeout=timeout,
                # Far past the deadline, but bounded: a pool that waits
                # out the stall fails this test instead of hanging it.
                fault_plan=FaultPlan(
                    (WorkerFault(worker_id=1, kind="stall", delay=30.0),)
                ),
            )
        assert time.monotonic() - began < timeout + 1.5
        assert len(spawns) == 2
        assert not any(process.is_alive() for _, process in spawns)
