"""Delta refresh: journal semantics, replay equivalence, pool protocol.

The contract under test, end to end: a worker replica that was
byte-equivalent to the coordinator's store at version ``v`` and replays
the journalled ops ``v -> v'`` through :func:`apply_delta` is
byte-equivalent at ``v'`` -- and the pool machinery only ever ships
deltas that satisfy that precondition, skipping no-op refreshes
entirely and degrading to full snapshots (or a respawn) everywhere the
precondition cannot be proven.
"""

import random

import pytest
from sharded_driver import run_sharded_workload

from repro.api import Cluster, ClusterConfig, WorkerConfig
from repro.runtime.pool import default_start_method
from repro.cluster.executor import run_workload
from repro.cluster.store import DistributedGraphStore
from repro.exceptions import PartitioningError, SessionError
from repro.graph.labelled import LabelledGraph
from repro.runtime import (
    DeltaRefresh,
    ShardSnapshot,
    WorkerCrashError,
    WorkerPool,
    apply_delta,
)
from repro.runtime.mailbox import RefreshRequest
from repro.runtime.worker import _handle_refresh
from repro.workload import PatternQuery, Workload

START = default_start_method()


def small_workload():
    return Workload([PatternQuery("ab", LabelledGraph.path("ab"))])


def small_session(partitions=3, seed=0, worker=None, method="ldg"):
    session = Cluster.open(
        ClusterConfig(
            partitions=partitions,
            method=method,
            seed=seed,
            worker=worker or WorkerConfig(),
        ),
        workload=small_workload(),
    )
    rng = random.Random(seed)
    graph = LabelledGraph()
    for v in range(30):
        graph.add_vertex(v, rng.choice("abc"))
    for v in range(1, 30):
        graph.add_edge(v, rng.randrange(v))
    session.ingest(graph)
    return session


class TestJournal:
    def test_disabled_by_default(self):
        store = small_session().store
        assert not store.journal_enabled
        assert store.drain_journal() is None

    def test_effective_mutations_tick_and_journal_in_order(self):
        store = DistributedGraphStore.incremental(2, 8)
        store.enable_journal(16)
        before = store.mutation_ticks
        store.add_vertex(1, "a")
        store.add_vertex(2, "b")
        store.add_edge(1, 2)
        store.assign_vertex(1, 0)
        store.assign_vertex(2, 1)
        store.move_vertex(2, 0)
        assert store.mutation_ticks == before + 6
        assert store.drain_journal() == (
            ("v+", 1, "a"),
            ("v+", 2, "b"),
            ("e+", 1, 2),
            ("a", 1, 0),
            ("a", 2, 1),
            ("m", 2, 0),
        )

    def test_noop_mutations_neither_tick_nor_journal(self):
        """The guts of the no-op-refresh fix: a mutation that changes
        nothing must not advance the version, or the session would ship
        content-free refresh broadcasts."""
        store = DistributedGraphStore.incremental(2, 8)
        store.enable_journal(16)
        store.add_vertex(1, "a")
        store.add_vertex(2, "b")
        store.add_edge(1, 2)
        store.assign_vertex(1, 0)
        ticks = store.mutation_ticks
        ops = store.drain_journal()
        store.add_vertex(1, "a")      # resident, same label
        store.add_edge(1, 2)          # resident edge
        store.add_edge(2, 1)          # same edge, other spelling
        store.move_vertex(1, 0)       # already there
        store.clear_replicas()        # nothing to drop
        assert store.mutation_ticks == ticks
        assert store.drain_journal() == ops

    def test_drain_does_not_restart(self):
        store = DistributedGraphStore.incremental(2, 8)
        store.enable_journal(16)
        store.add_vertex(1, "a")
        assert store.drain_journal() == (("v+", 1, "a"),)
        assert store.drain_journal() == (("v+", 1, "a"),)
        store.restart_journal()
        assert store.drain_journal() == ()

    def test_overflow_empties_log_until_restart(self):
        store = DistributedGraphStore.incremental(2, 8)
        store.enable_journal(2)
        for v in range(4):
            store.add_vertex(v, "a")
        assert store.drain_journal() is None          # overflowed
        store.add_vertex(9, "a")                      # still counted...
        assert store.mutation_ticks == 5              # ...by the version
        store.restart_journal()
        store.add_vertex(10, "b")
        assert store.drain_journal() == (("v+", 10, "b"),)

    def test_retract_assignment_journals_only_real_drops(self):
        store = DistributedGraphStore.incremental(2, 8)
        store.enable_journal(16)
        store.add_vertex(1, "a")
        store.assign_vertex(1, 0)
        assert store.retract_assignment(1) == 0
        assert store.retract_assignment(1) is None    # already vacated
        assert store.drain_journal() == (
            ("v+", 1, "a"), ("a", 1, 0), ("p-", 1),
        )

    def test_journal_limit_must_be_positive(self):
        store = DistributedGraphStore.incremental(2, 8)
        with pytest.raises(PartitioningError):
            store.enable_journal(0)

    def test_disable_journal(self):
        store = DistributedGraphStore.incremental(2, 8)
        store.enable_journal(4)
        store.add_vertex(1, "a")
        store.disable_journal()
        assert not store.journal_enabled
        assert store.drain_journal() is None


def assert_equivalent(original, rebuilt):
    """Semantic equivalence, including every order the executor's
    determinism rides on (iteration, label index, sorted adjacency)."""
    assert rebuilt.graph == original.graph
    assert list(rebuilt.graph.vertices()) == list(original.graph.vertices())
    for label in original.graph.labels():
        assert rebuilt.graph.vertices_with_label(label) == (
            original.graph.vertices_with_label(label)
        )
    for vertex in original.graph.vertices():
        assert rebuilt.graph.sorted_neighbours(vertex) == (
            original.graph.sorted_neighbours(vertex)
        )
        assert rebuilt.partition_of(vertex) == original.partition_of(vertex)
        assert rebuilt.replicas_of(vertex) == original.replicas_of(vertex)
    assert rebuilt.assignment.sizes() == original.assignment.sizes()
    assert rebuilt.assignment.capacity == original.assignment.capacity


def churn(s):
    """Removals, slot-recycled re-adds, a move and a replica -- every
    journalled op family in one mutation burst."""
    vertices = list(s.graph.vertices())
    doomed = vertices[:4]
    homes = {vertex: s.partition_of(vertex) for vertex in doomed}
    for vertex in doomed:
        s.remove_vertex(vertex)
    for vertex in doomed[:2]:                      # recycled slots
        s.add_vertex(vertex, "c")
        s.assign_vertex(vertex, homes[vertex])     # seat just freed
    s.add_edge(doomed[0], doomed[1])
    survivor = vertices[10]
    sizes = s.assignment.sizes()
    target = next(
        p for p in range(s.k)
        if p != s.partition_of(survivor) and sizes[p] < s.assignment.capacity
    )
    s.move_vertex(survivor, target)
    s.add_replica(vertices[12], (s.partition_of(vertices[12]) + 1) % s.k)


class TestApplyDelta:
    def mirror(self, store):
        return DistributedGraphStore.import_columns(store.export_columns())

    def delta_from(self, store, mutate):
        """Journal ``mutate`` on ``store`` and package it as a delta."""
        store.enable_journal(256)
        from_version = store.mutation_ticks
        mutate(store)
        ops = store.drain_journal()
        assert ops is not None
        return DeltaRefresh(
            from_version=from_version,
            to_version=store.mutation_ticks,
            capacity=store.assignment.capacity,
            ops=ops,
        )

    def test_replay_tracks_the_coordinator_through_churn(self):
        """A replica that replays the journalled ops ends up equivalent
        to the mutated coordinator -- orders included, so its query
        answers cannot drift."""
        store = small_session().store
        replica = self.mirror(store)
        delta = self.delta_from(store, churn)
        apply_delta(replica, delta)
        assert_equivalent(store, replica)

    def test_replay_is_byte_deterministic_across_replicas(self):
        """Two replicas decoding the same image and replaying the same
        delta are *byte*-identical -- the property cross-worker answer
        dedup stands on (all workers took exactly this path)."""
        store = small_session().store
        one, two = self.mirror(store), self.mirror(store)
        delta = self.delta_from(store, churn)
        apply_delta(one, delta)
        apply_delta(two, delta)
        assert one.export_columns() == two.export_columns()
        assert_equivalent(store, one)

    def test_replay_reproduces_clear_replicas(self):
        store = small_session().store
        anchor = next(iter(store.graph.vertices()))
        store.add_replica(anchor, (store.partition_of(anchor) + 1) % store.k)
        replica = self.mirror(store)

        def mutate(s):
            s.clear_replicas()
            s.add_replica(anchor, (s.partition_of(anchor) + 2) % s.k)

        delta = self.delta_from(store, mutate)
        apply_delta(replica, delta)
        assert_equivalent(store, replica)

    def test_replay_grows_capacity_first(self):
        """Capacity growth is not journalled (it is not an op); the
        delta carries the target capacity so replicas grow before any
        op could hit the old ceiling."""
        store = DistributedGraphStore.incremental(2, 2)
        store.add_vertex(1, "a")
        store.assign_vertex(1, 0)
        clone = self.mirror(store)
        store.assignment.grow_capacity(4)
        store.enable_journal(16)
        from_version = store.mutation_ticks
        store.add_vertex(2, "a")
        store.assign_vertex(2, 0)
        store.add_vertex(3, "a")
        store.assign_vertex(3, 0)    # over the clone's old capacity of 2
        delta = DeltaRefresh(
            from_version=from_version,
            to_version=store.mutation_ticks,
            capacity=store.assignment.capacity,
            ops=store.drain_journal(),
        )
        apply_delta(clone, delta)
        assert clone.assignment.capacity == 4
        assert clone.export_columns() == store.export_columns()

    def test_unknown_op_tag_raises(self):
        store = small_session().store
        clone = self.mirror(store)
        bogus = DeltaRefresh(
            from_version=0, to_version=1,
            capacity=store.assignment.capacity, ops=(("??", 1),),
        )
        with pytest.raises(ValueError, match="unknown op tag"):
            apply_delta(clone, bogus)


class TestWorkerHandleRefresh:
    def test_version_mismatch_refused_without_touching_state(self):
        store = small_session().store
        replica = DistributedGraphStore.import_columns(store.export_columns())
        image_before = replica.export_columns()
        delta = DeltaRefresh(
            from_version=3, to_version=5,
            capacity=store.assignment.capacity,
            ops=(("v+", 999, "a"), ("v+", 998, "a")),
        )
        out_store, out_version, response = _handle_refresh(
            replica, 7, RefreshRequest(delta=delta), worker_id=0
        )
        assert response.applied is False
        assert response.resident_version == 7
        assert out_store is replica
        assert out_version == 7
        assert replica.export_columns() == image_before

    def test_matching_delta_applies(self):
        store = small_session().store
        replica = DistributedGraphStore.import_columns(store.export_columns())
        delta = DeltaRefresh(
            from_version=7, to_version=9,
            capacity=store.assignment.capacity,
            ops=(("v+", 999, "a"), ("v+", 998, "b")),
        )
        out_store, out_version, response = _handle_refresh(
            replica, 7, RefreshRequest(delta=delta), worker_id=0
        )
        assert response.applied is True
        assert out_version == 9
        assert out_store.graph.has_vertex(999)


class TestPoolProtocol:
    def primed(self, session, workers=2):
        store = session.store
        snapshot = ShardSnapshot.of(store, version=store.mutation_ticks)
        return WorkerPool(
            snapshot, workers=workers, start_method=START, timeout=60.0
        )

    def test_version_equal_refresh_is_skipped(self):
        """The no-op regression: re-broadcasting an unchanged snapshot
        must cost nothing -- no round, no counter."""
        session = small_session()
        with self.primed(session) as pool:
            same = ShardSnapshot.of(
                session.store, version=session.store.mutation_ticks
            )
            assert pool.refresh(same) == 0.0
            assert pool.refreshes == 0
            assert pool.alive

    def test_version_equal_delta_is_skipped(self):
        session = small_session()
        store = session.store
        with self.primed(session) as pool:
            noop = DeltaRefresh(
                from_version=store.mutation_ticks,
                to_version=store.mutation_ticks,
                capacity=store.assignment.capacity,
                ops=(),
            )
            assert pool.refresh_delta(noop) == 0.0
            assert pool.delta_refreshes == 0
            assert pool.alive

    def test_delta_refresh_end_to_end_preserves_parity(self):
        """Mutate, ship the delta, and the delta-replayed workers must
        answer byte-identically to serial execution on the mutated
        store."""
        session = small_session()
        store = session.store
        workload = small_workload()
        with self.primed(session) as pool:
            store.enable_journal(64)
            from_version = store.mutation_ticks
            victims = list(store.graph.vertices())[:3]
            for vertex in victims:
                store.remove_vertex(vertex)
            delta = DeltaRefresh(
                from_version=from_version,
                to_version=store.mutation_ticks,
                capacity=store.assignment.capacity,
                ops=store.drain_journal(),
            )
            pool.refresh_delta(delta)
            assert pool.delta_refreshes == 1
            assert pool.version == store.mutation_ticks
            serial = run_workload(
                store, workload, executions=30, rng=random.Random(5)
            )
            parallel, _ = run_sharded_workload(
                store, workload, pool,
                executions=30, rng=random.Random(5), fallback=False,
            )
            assert (parallel.executions, parallel.matches,
                    parallel.fully_local, parallel.ledger.local,
                    parallel.ledger.remote) == (
                serial.executions, serial.matches, serial.fully_local,
                serial.ledger.local, serial.ledger.remote)

    def test_version_gap_closes_pool(self):
        session = small_session()
        store = session.store
        with self.primed(session) as pool:
            gapped = DeltaRefresh(
                from_version=pool.version + 3,
                to_version=pool.version + 4,
                capacity=store.assignment.capacity,
                ops=(("v+", 999, "a"),),
            )
            with pytest.raises(WorkerCrashError, match="primed at"):
                pool.refresh_delta(gapped)
            assert not pool.alive


class TestSessionRefreshPolicy:
    def worker_config(self, **overrides):
        options = dict(
            count=2, start_method=START, fallback_serial=False,
        )
        options.update(overrides)
        return WorkerConfig(**options)

    def test_unchanged_store_never_rebroadcasts(self):
        session = small_session(worker=self.worker_config())
        try:
            first = session.run_workload(executions=20, seed=3)
            pool = session.pool
            assert pool is not None
            # Repeat queries against an unchanged store: same pool, no
            # refresh round of either kind.
            again = session.run_workload(executions=20, seed=3)
            assert again == first
            assert session.pool is pool
            assert pool.refreshes == 0
            assert pool.delta_refreshes == 0
        finally:
            session.close()

    def test_failed_retract_does_not_refresh(self):
        """A retraction that validates-and-raises leaves the store
        untouched; the next query must not pay any refresh."""
        session = small_session(worker=self.worker_config())
        try:
            session.run_workload(executions=20, seed=3)
            pool = session.pool
            with pytest.raises(SessionError):
                session.retract(vertices=[424242])
            session.run_workload(executions=20, seed=3)
            assert session.pool is pool
            assert pool.refreshes == 0
            assert pool.delta_refreshes == 0
        finally:
            session.close()

    def test_real_retract_delta_refreshes_resident_pool(self):
        session = small_session(worker=self.worker_config())
        try:
            session.run_workload(executions=20, seed=3)
            pool = session.pool
            victim = next(iter(session.graph.vertices()))
            session.retract(vertices=[victim])
            parallel = session.run_workload(executions=20, seed=4)
            serial = session.run_workload(executions=20, seed=4, workers=1)
            assert parallel == serial
            assert session.pool is pool
            assert pool.delta_refreshes == 1
            assert pool.refreshes == 0
        finally:
            session.close()

    def test_journal_overflow_falls_back_to_full_snapshot(self):
        session = small_session(
            worker=self.worker_config(max_delta_events=2)
        )
        try:
            session.run_workload(executions=20, seed=3)
            pool = session.pool
            victims = list(session.graph.vertices())[:3]
            session.retract(vertices=victims)    # >> 2 journalled ops
            parallel = session.run_workload(executions=20, seed=4)
            serial = session.run_workload(executions=20, seed=4, workers=1)
            assert parallel == serial
            assert session.pool is pool
            assert pool.delta_refreshes == 0
            assert pool.refreshes == 1
        finally:
            session.close()

    def test_offline_reingest_swap_reaches_the_resident_pool(self):
        """An offline second ingest re-places residents through ordinary
        ops, so the primed pool follows it (delta or full, never stale)
        and answers as the serial executor does."""
        session = small_session(
            worker=self.worker_config(), method="offline"
        )
        try:
            session.run_workload(executions=20, seed=3)
            pool = session.pool
            before = session.store.assignment.assigned()
            extra = LabelledGraph()
            for v in range(100, 120):
                extra.add_vertex(v, "ab"[v % 2])
                if v > 100:
                    extra.add_edge(v - 1, v)
            session.ingest(extra)
            after = session.store.assignment.assigned()
            assert any(after[v] != p for v, p in before.items())
            parallel = session.run_workload(executions=20, seed=4)
            serial = session.run_workload(executions=20, seed=4, workers=1)
            assert parallel == serial
            assert session.pool is pool
            assert pool.delta_refreshes + pool.refreshes == 1
        finally:
            session.close()
