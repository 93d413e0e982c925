"""``Session.close()`` must be idempotent and crash-ordering-safe.

Close is the one call that always runs -- in ``finally`` blocks, in
``__exit__``, after a crash, sometimes twice -- so every teardown
ordering lands here: double close, close over dead workers, close after
a degradation, close after a SIGINT, close with a durable log attached,
and use-after-close (serial execution survives; only the pool and the
WAL are released).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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

    def test_sigint_mid_call_closes_cleanly(self):
        """SIGINT landing mid-``run_workload`` must leave a closeable
        session: the command lock unwinds with the KeyboardInterrupt,
        ``close()`` (exempt from the lock precisely for this path) reaps
        the pool, and no worker process outlives it."""
        child = """
import json
import multiprocessing
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
    workers = [h.process for h in session.pool.handles] if session.pool else []
    session.close()
    print(f"WORKERS {len(workers)}", flush=True)
    alive = [p.pid for p in workers if p.is_alive()]
    alive += [p.pid for p in multiprocessing.active_children()]
    print("ALIVE " + json.dumps(alive), flush=True)
    print("CLOSED", flush=True)
"""
        src = Path(__file__).resolve().parents[2] / "src"
        env = {"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"}
        if "REPRO_START_METHOD" in os.environ:
            env["REPRO_START_METHOD"] = os.environ["REPRO_START_METHOD"]
        proc = subprocess.Popen(
            [sys.executable, "-c", child],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
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
        reported = dict(
            line.split(" ", 1)
            for line in out.splitlines()
            if line.startswith(("WORKERS ", "ALIVE "))
        )
        assert int(reported["WORKERS"]) == 2  # the pool was live
        assert json.loads(reported["ALIVE"]) == []


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
