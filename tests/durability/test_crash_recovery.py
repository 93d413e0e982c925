"""Kill -9 a live durable session; recover byte-identically.

The differential harness at the heart of the durability guarantee: a
child process ingests a deterministic stream under WAL durability and
``SIGKILL``s *itself* mid-ingest (no cooperative shutdown, no flush
hook -- exactly what a crash leaves behind).  The parent recovers the
store from the WAL directory and proves it byte-identical (columnar
image equality) to the same prefix of an *uninterrupted* reference run
-- across seeds, and across churned streams whose deletions recycle
store slots.

The stream builder is one shared code string ``exec``-ed both here and
inside the child's ``python -c`` script, so the two processes cannot
drift apart.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import Cluster, ClusterConfig, DurabilityConfig, WorkerConfig
from repro.cluster.store import DistributedGraphStore
from repro.graph.labelled import LabelledGraph
from repro.runtime.pool import default_start_method
from repro.runtime.wal import (
    has_state,
    list_segments,
    read_segment,
    recover_store,
)
from repro.workload import PatternQuery, Workload

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

PARTITIONS = 4

#: Shared between parent and child (exec-ed below, embedded in the
#: child script): the parent's reference run must consume the exact
#: stream the killed child did.
STREAM_BUILDER = '''
def build_stream(seed, churn):
    import random
    from repro.graph.labelled import LabelledGraph
    from repro.stream.orderings import with_churn
    from repro.stream.sources import stream_from_graph

    rng = random.Random(seed)
    graph = LabelledGraph()
    for v in range(60):
        graph.add_vertex(v, rng.choice("abc"))
    for v in range(1, 60):
        graph.add_edge(v, rng.randrange(v))
        if v >= 2 and rng.random() < 0.4:
            graph.add_edge(v, rng.randrange(v - 1))
    events = stream_from_graph(
        graph, ordering="random", rng=random.Random(seed + 1)
    )
    if churn:
        events = with_churn(
            events, delete_fraction=0.2, rng=random.Random(seed + 2)
        )
    return events


def build_config(seed, wal_dir, checkpoint_interval=40):
    from repro.api import ClusterConfig, DurabilityConfig

    return ClusterConfig(
        partitions=4,
        method="ldg",
        seed=seed,
        batch_size=8,
        durability=DurabilityConfig(
            mode="wal",
            wal_dir=str(wal_dir),
            sync="async",
            checkpoint_interval=checkpoint_interval,
        ),
    )
'''
exec(STREAM_BUILDER)

CHILD_SCRIPT = STREAM_BUILDER + '''
import os
import signal
import sys

wal_dir, seed, churn, kill_batches = sys.argv[1:5]
seed, kill_batches = int(seed), int(kill_batches)

from repro.api import Cluster

session = Cluster.open(build_config(seed, wal_dir))
batches = [0]


def hook(stats):
    batches[0] += 1
    if batches[0] >= kill_batches:
        os.kill(os.getpid(), signal.SIGKILL)


session.ingest(
    build_stream(seed, churn == "1"), stats_hooks=[hook] if kill_batches else []
)
if not kill_batches:
    # The ingest completed (so the recovered assignment is queryable);
    # the crash lands between retraction mutations instead.
    for count, vertex in enumerate(list(session.graph.vertices())):
        session.retract(vertices=[vertex])
        if count >= 5:
            os.kill(os.getpid(), signal.SIGKILL)
sys.exit(3)  # the kill never fired: fail loudly, not with a false pass
'''


def kill9_mid_ingest(wal_dir, seed, churn, kill_batches):
    """Run the child until its self-SIGKILL; assert it really died hard."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            CHILD_SCRIPT,
            str(wal_dir),
            str(seed),
            "1" if churn else "0",
            str(kill_batches),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"child exited {proc.returncode}, wanted SIGKILL\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )


def replay_prefix(reference_wal, upto_tick):
    """Rebuild the reference store at exactly ``upto_tick`` by replaying
    the uninterrupted run's own (never-truncated) WAL."""
    store = DistributedGraphStore.incremental(PARTITIONS, 1)
    for path in list_segments(Path(reference_wal)):
        for tick, op in read_segment(path):
            if op[0] == "c":
                store.apply_op(op)
                continue
            if tick > upto_tick:
                return store
            assert tick == store.mutation_ticks + 1, "reference WAL gap"
            store.apply_op(op)
    return store


def reference_wal_dir(tmp_path, seed, churn):
    """One uninterrupted run, WAL kept whole (no mid-run checkpoint)."""
    ref_dir = tmp_path / "ref"
    session = Cluster.open(
        build_config(seed, ref_dir, checkpoint_interval=10**9)
    )
    try:
        session.ingest(build_stream(seed, churn))
        final = session.store.export_columns()
        ticks = session.store.mutation_ticks
    finally:
        session.close()
    return ref_dir, final, ticks


class TestKill9Recovery:
    #: >= 6 seeds, including churned streams (deletions recycle slots).
    SEEDS = [
        (0, False), (1, False), (2, True),
        (3, True), (4, True), (5, False), (6, True),
    ]

    @pytest.mark.parametrize("seed,churn", SEEDS)
    def test_recovered_state_is_byte_identical_prefix(
        self, tmp_path, seed, churn
    ):
        wal_dir = tmp_path / "wal"
        kill9_mid_ingest(wal_dir, seed, churn, kill_batches=3 + seed % 4)
        assert has_state(wal_dir)

        recovered, info = recover_store(wal_dir, partitions=PARTITIONS)
        assert info.recovered_ticks > 0, "child died before any mutation"

        ref_dir, final, final_ticks = reference_wal_dir(
            tmp_path, seed, churn
        )
        assert info.recovered_ticks < final_ticks, (
            "child was killed too late to exercise mid-ingest recovery"
        )
        reference = replay_prefix(ref_dir, info.recovered_ticks)
        assert reference.mutation_ticks == info.recovered_ticks
        assert recovered.export_columns() == reference.export_columns()

    def test_uninterrupted_close_recovers_the_full_state(self, tmp_path):
        ref_dir, final, final_ticks = reference_wal_dir(
            tmp_path, seed=11, churn=True
        )
        recovered, info = recover_store(ref_dir, partitions=PARTITIONS)
        assert info.recovered_ticks == final_ticks
        assert not info.torn_tail
        assert recovered.export_columns() == final

    def test_recovered_session_continues(self, tmp_path):
        """``Cluster.recover`` yields a *live* session: queryable,
        ingestable, and still durable (a second recovery sees the new
        mutations too)."""
        wal_dir = tmp_path / "wal"
        kill9_mid_ingest(wal_dir, seed=1, churn=False, kill_batches=4)

        session = Cluster.recover(wal_dir)
        try:
            assert session.recovery is not None
            assert session.recovery.recovered_ticks > 0
            assert session.config.durability.enabled
            before = session.store.mutation_ticks
            # Keep growing the same log: ingest a fresh tail...
            tail = LabelledGraph()
            tail.add_vertex("x1", "a")
            tail.add_vertex("x2", "b")
            tail.add_edge("x1", "x2")
            session.ingest(tail)
            assert session.store.mutation_ticks > before
            image = session.store.export_columns()
        finally:
            session.close()
        # ...and the directory now restores the continued state.
        again, info = recover_store(wal_dir, partitions=PARTITIONS)
        assert again.export_columns() == image

    def test_recovered_session_answers_in_parallel_as_serially(self, tmp_path):
        """Killed between retractions after a complete ingest, the
        recovered assignment is queryable: a 2-worker pool booted from
        it answers the workload exactly as the in-process executor."""
        wal_dir = tmp_path / "wal"
        kill9_mid_ingest(wal_dir, seed=1, churn=True, kill_batches=0)

        session = Cluster.recover(
            wal_dir,
            workload=Workload([PatternQuery("ab", LabelledGraph.path("ab"))]),
            config=dataclasses.replace(
                build_config(1, wal_dir),
                worker=WorkerConfig(
                    start_method=default_start_method(),
                    fallback_serial=False,
                ),
            ),
        )
        try:
            assert session.recovery.recovered_ticks > 0
            serial = session.run_workload(executions=20, seed=3, workers=1)
            assert session.run_workload(
                executions=20, seed=3, workers=2
            ) == serial
            assert session.pool is not None and session.pool.alive
        finally:
            session.close()

    def test_recover_accepts_retired_worker_keys(self, tmp_path):
        """A ``config.json`` persisted before ``refresh_mode`` and
        ``shared_memory`` were retired still recovers, and the recovered
        session rewrites it without them."""
        wal_dir = tmp_path / "wal"
        session = Cluster.open(build_config(2, wal_dir))
        try:
            session.ingest(build_stream(2, churn=True))
            image = session.store.export_columns()
        finally:
            session.close()
        config_path = wal_dir / "config.json"
        payload = json.loads(config_path.read_text())
        payload["worker"].update(refresh_mode="full", shared_memory=False)
        config_path.write_text(json.dumps(payload))

        recovered = Cluster.recover(wal_dir)
        try:
            assert recovered.store.export_columns() == image
            assert recovered.config == build_config(2, wal_dir)
        finally:
            recovered.close()
        rewritten = json.loads(config_path.read_text())["worker"]
        assert not {"refresh_mode", "shared_memory"} & set(rewritten)

    def test_recover_refuses_an_empty_directory(self, tmp_path):
        from repro.exceptions import SessionError

        with pytest.raises(SessionError):
            Cluster.recover(tmp_path / "nothing-here")
