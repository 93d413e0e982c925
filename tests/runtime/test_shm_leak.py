"""Shared-memory lifecycle: publish, attach, and above all never leak.

Every test here audits the same invariant from a different teardown
path: a segment published by a pool's :class:`SegmentRegistry` must be
unlinked by the time the pool (or the session wrapping it) is gone --
clean close, repeated refreshes, worker crash degradation, respawn, all
of it.  ``SegmentRegistry.history`` records every name ever published
precisely so these audits can sweep the full lifetime, not just the
final state.
"""

import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Cluster, ClusterConfig, WorkerConfig
from repro.datasets import motif_testbed
from repro.graph.labelled import LabelledGraph
from repro.runtime import (
    SegmentRegistry,
    ShardSnapshot,
    SharedSnapshotRef,
    SnapshotSchemaError,
    WorkerCrashError,
    WorkerPool,
    attach_store,
    segment_exists,
)
from repro.runtime.pool import default_start_method
from repro.workload import PatternQuery, Workload

START = default_start_method()


def small_session(partitions=3, seed=0, worker=None):
    workload = Workload([PatternQuery("ab", LabelledGraph.path("ab"))])
    session = Cluster.open(
        ClusterConfig(
            partitions=partitions,
            method="ldg",
            seed=seed,
            worker=worker or WorkerConfig(),
        ),
        workload=workload,
    )
    rng = random.Random(seed)
    graph = LabelledGraph()
    for v in range(30):
        graph.add_vertex(v, rng.choice("abc"))
    for v in range(1, 30):
        graph.add_edge(v, rng.randrange(v))
    session.ingest(graph)
    return session


def assert_all_reaped(names):
    leaked = [name for name in names if segment_exists(name)]
    assert not leaked, f"shared-memory segments leaked: {leaked}"


class TestRegistry:
    def test_publish_attach_round_trip(self):
        store = small_session().store
        registry = SegmentRegistry()
        try:
            ref = registry.publish(store.export_columns(), version=3)
            assert segment_exists(ref.name)
            assert ref.version == 3
            replica = attach_store(ref)
            assert replica.graph == store.graph
        finally:
            registry.close()
        assert not segment_exists(ref.name)
        assert registry.active == ()

    def test_unlink_is_idempotent(self):
        registry = SegmentRegistry()
        ref = registry.publish(b"payload")
        registry.unlink(ref.name)
        registry.unlink(ref.name)
        registry.unlink("never-published")
        assert not segment_exists(ref.name)

    def test_close_reaps_everything_and_history_remembers(self):
        registry = SegmentRegistry()
        refs = [registry.publish(bytes([i]) * 64) for i in range(3)]
        assert len(registry) == 3
        registry.close()
        registry.close()
        assert len(registry) == 0
        assert registry.history == [ref.name for ref in refs]
        assert_all_reaped(registry.history)

    def test_empty_payload_publishes(self):
        registry = SegmentRegistry()
        try:
            ref = registry.publish(b"")
            assert ref.num_bytes == 0
            assert segment_exists(ref.name)
        finally:
            registry.close()

    def test_attach_refuses_foreign_schema(self):
        """A ref minted by some other protocol must fail up front with
        both schema names -- not half-attach and explode later."""
        alien = SharedSnapshotRef(
            name="whatever", num_bytes=8, schema="someone/else/v9"
        )
        with pytest.raises(SnapshotSchemaError) as caught:
            attach_store(alien)
        assert "someone/else/v9" in str(caught.value)
        assert "loom-repro/shard-snapshot" in str(caught.value)


class TestPoolLifecycle:
    def pool_for(self, store, **kwargs):
        snapshot = ShardSnapshot.of(store, version=store.mutation_ticks)
        options = dict(workers=2, start_method=START, timeout=60.0)
        options.update(kwargs)
        return WorkerPool(snapshot, **options)

    def test_boot_segment_unlinked_once_workers_confirm(self):
        store = small_session().store
        pool = self.pool_for(store)
        try:
            assert pool.uses_shared_memory
            assert len(pool.segments.history) == 1
            # Unlinked already -- the workers confirmed their decode
            # during construction, so the boot segment is garbage.
            assert_all_reaped(pool.segments.history)
        finally:
            pool.close()
        assert_all_reaped(pool.segments.history)

    def test_every_refresh_segment_is_reaped(self):
        session = small_session()
        store = session.store
        pool = self.pool_for(store)
        try:
            for _ in range(3):
                session.retract(
                    vertices=[next(iter(store.graph.vertices()))]
                )
                pool.refresh(
                    ShardSnapshot.of(store, version=store.mutation_ticks)
                )
            assert pool.refreshes == 3
            assert len(pool.segments.history) == 4  # boot + 3 refreshes
            assert_all_reaped(pool.segments.history)
        finally:
            pool.close()
        assert_all_reaped(pool.segments.history)

    def test_crash_degradation_reaps_segments(self):
        """Killing a worker mid-life and letting the pool discover it
        (failed round trip closes the pool) must still reap every
        segment ever published."""
        graph, workload = motif_testbed(5, instances=10, noise=30)
        session = Cluster.open(
            ClusterConfig(partitions=4, method="ldg", seed=5),
            workload=workload,
        )
        session.ingest(graph)
        pool = self.pool_for(session.store)
        victim = pool.handles[0].process
        victim.kill()
        victim.join(timeout=5.0)
        assert not victim.is_alive()
        with pytest.raises(WorkerCrashError):
            pool.refresh(
                ShardSnapshot.of(
                    session.store,
                    version=session.store.mutation_ticks + 1,
                )
            )
        assert not pool.alive
        assert_all_reaped(pool.segments.history)

    def test_failed_spawn_reaps_boot_segment(self, monkeypatch):
        """A worker that dies during the Hello handshake aborts the
        spawn -- and the half-built pool must reap its boot segment on
        the way out.  The failed constructor never hands back a pool, so
        a spy registry captures the instance for the audit."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        from repro.runtime import pool as pool_module
        from repro.runtime import worker as worker_module

        registries = []

        class SpyRegistry(SegmentRegistry):
            def __init__(self):
                super().__init__()
                registries.append(self)

        def broken_worker_main(worker_id, connection, *args):
            connection.close()

        monkeypatch.setattr(pool_module, "SegmentRegistry", SpyRegistry)
        # fork keeps the patched module in the child; spawn would
        # re-import the real worker_main.
        monkeypatch.setattr(worker_module, "worker_main", broken_worker_main)
        store = small_session().store
        snapshot = ShardSnapshot.of(store, version=store.mutation_ticks)
        with pytest.raises(WorkerCrashError):
            WorkerPool(snapshot, workers=2, start_method="fork", timeout=10.0)
        (registry,) = registries
        assert registry.history  # the boot segment was published...
        assert registry.active == ()  # ...and the failed spawn reaped it
        assert_all_reaped(registry.history)


class TestSessionLifecycle:
    def worker_config(self, **overrides):
        options = dict(count=2, start_method=START, fallback_serial=False)
        options.update(overrides)
        return WorkerConfig(**options)

    def collect_history(self, session):
        return list(session.pool.segments.history) if session.pool else []

    def test_open_query_close_leaves_no_segments(self):
        session = small_session(worker=self.worker_config())
        session.run_workload(executions=20, seed=3)
        names = self.collect_history(session)
        assert names  # the boot snapshot travelled via shared memory
        session.close()
        assert_all_reaped(names)

    def test_churny_session_leaves_no_segments(self):
        """Retractions force refreshes (delta or full); whatever mix
        ran, every published segment must be gone after close."""
        session = small_session(worker=self.worker_config())
        names = set()
        session.run_workload(executions=10, seed=3)
        names.update(self.collect_history(session))
        for _ in range(3):
            victim = next(iter(session.graph.vertices()))
            session.retract(vertices=[victim])
            session.run_workload(executions=10, seed=4)
            names.update(self.collect_history(session))
        session.close()
        assert_all_reaped(names)

    def test_kill_worker_crash_degradation_leaves_no_segments(self):
        """The crash-degradation path: a worker dies, the session
        degrades the call and respawns later -- across the dead pool and
        its replacement, no segment survives the session."""
        graph, workload = motif_testbed(5, instances=10, noise=30)
        session = Cluster.open(
            ClusterConfig(
                partitions=4,
                method="ldg",
                seed=5,
                worker=WorkerConfig(count=2, start_method=START),
            ),
            workload=workload,
        )
        names = set()
        try:
            session.ingest(graph)
            session.run_workload(executions=10, seed=3)
            dead_pool = session.pool
            names.update(dead_pool.segments.history)
            victim = dead_pool.handles[0].process
            victim.kill()
            victim.join(timeout=5.0)
            session.run_workload(executions=10, seed=3)  # respawns
            assert session.pool is not dead_pool
            names.update(self.collect_history(session))
        finally:
            session.close()
        assert names
        assert_all_reaped(names)

    def test_sigint_mid_call_closes_cleanly(self):
        """SIGINT landing mid-``run_workload`` must leave a closeable
        session: the command lock unwinds with the KeyboardInterrupt,
        ``close()`` (exempt from the lock precisely for this path) reaps
        the pool, and no shared-memory segment survives the process."""
        child = """
import json
import random

from repro.api import Cluster, ClusterConfig, WorkerConfig
from repro.runtime.pool import default_start_method
from repro.graph.labelled import LabelledGraph
from repro.workload import PatternQuery, Workload

workload = Workload([PatternQuery("ab", LabelledGraph.path("ab"))])
session = Cluster.open(
    ClusterConfig(
        partitions=3,
        method="ldg",
        seed=0,
        worker=WorkerConfig(
            count=2,
            start_method=default_start_method(),
            fallback_serial=False,
        ),
    ),
    workload=workload,
)
rng = random.Random(0)
graph = LabelledGraph()
for v in range(30):
    graph.add_vertex(v, rng.choice("abc"))
for v in range(1, 30):
    graph.add_edge(v, rng.randrange(v))
session.ingest(graph)
session.run_workload(executions=10, seed=3)
print("READY", flush=True)
try:
    while True:
        session.run_workload(executions=200, seed=4)
except KeyboardInterrupt:
    names = list(session.pool.segments.history) if session.pool else []
    session.close()
    print("SEGMENTS " + json.dumps(names), flush=True)
    print("CLOSED", flush=True)
"""
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-c", child],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        try:
            assert proc.stdout is not None
            for line in proc.stdout:
                if line.strip() == "READY":
                    break
            time.sleep(0.5)  # land inside a run_workload call
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "CLOSED" in out
        (segments_line,) = [
            line for line in out.splitlines() if line.startswith("SEGMENTS ")
        ]
        names = json.loads(segments_line[len("SEGMENTS "):])
        assert names  # the pool really was live when the signal hit
        assert_all_reaped(names)

    def test_publish_oserror_degrades_to_inline_transport(self, monkeypatch):
        """No usable shared memory (``SegmentRegistry.publish`` raises
        ``OSError``): the pool ships the snapshot inline, publishes no
        segment, answers exactly as the serial path, and the session
        counts the degradation once."""

        def no_shared_memory(self, payload, *, version):
            raise OSError("no usable /dev/shm")

        monkeypatch.setattr(SegmentRegistry, "publish", no_shared_memory)
        session = small_session(worker=self.worker_config())
        try:
            serial = session.run_workload(executions=10, seed=3, workers=1)
            assert session.run_workload(executions=10, seed=3) == serial
            assert session.pool is not None
            assert not session.pool.uses_shared_memory
            assert session.pool.segments.history == []
            assert session.resilience.shm_inline_degradations == 1
        finally:
            session.close()
