"""Generative differential harness for dynamic-graph churn.

A seeded simulator produces random event sequences -- vertex/edge
arrivals, explicit edge and vertex deletions, expiry-driven departures
(implicit: the window is small relative to the stream), re-adds of
deleted ids under *new* labels (slot-recycling stress) and re-creation
of deleted edges -- interleaved in arbitrary valid orders.  For every
seed the incremental Session state after ingesting the mixed stream must
be *equivalent to an offline rebuild from the surviving events*:

* the resident graph equals ``replay(events)`` (vertices, labels, edges),
* the assignment covers exactly the survivors, within capacity, with
  per-partition size accounting intact,
* the store's mirror and the partitioner's own assignment agree, and
* closing the durable session and recovering its WAL directory
  reproduces it all.

Placement *choices* are intentionally not compared against a from-scratch
rebuild -- streaming heuristics are history-dependent by design; the
differential contract is about state, and it is what pins the whole
retraction machinery (window, matcher, neighbour index, store, capacity
accounting) at once.
"""

import random

import pytest

from repro.api import Cluster, ClusterConfig, DurabilityConfig
from repro.graph.labelled import LabelledGraph, edge_key
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    VertexArrival,
    VertexRemoval,
)
from repro.stream.sources import replay
from repro.workload import PatternQuery, Workload

ALPHABET = "abcd"
SEEDS = range(24)


def _pick(rng, items):
    """Deterministic random choice from an arbitrarily ordered iterable."""
    pool = sorted(items, key=repr)
    return pool[rng.randrange(len(pool))]


def generate_events(seed, *, arrivals=40, keep_min=4):
    """One seeded random churn sequence over ``arrivals`` vertex arrivals.

    Every emitted removal references a live element, and a deleted
    vertex id may come back later carrying a different label -- the
    hardest case for interned-slot recycling and cached label state.
    """
    rng = random.Random(seed)
    live: dict[int, str] = {}
    live_edges: set[tuple[int, int]] = set()
    removed_ids: list[int] = []
    removed_edges: list[tuple[int, int]] = []
    events = []
    next_id = 0
    arrived = 0
    time = 0

    def arrive():
        nonlocal next_id, arrived, time
        if removed_ids and rng.random() < 0.3:
            vertex = removed_ids.pop(rng.randrange(len(removed_ids)))
        else:
            vertex = next_id
            next_id += 1
        label = rng.choice(ALPHABET)
        events.append(VertexArrival(vertex, label, time))
        live[vertex] = label
        arrived += 1
        time += 1
        neighbours = [v for v in live if v != vertex]
        for other in sorted(neighbours, key=repr)[: rng.randint(0, 2)]:
            events.append(EdgeArrival(other, vertex, time))
            live_edges.add(edge_key(other, vertex))
            time += 1

    while arrived < arrivals:
        roll = rng.random()
        if roll < 0.5 or len(live) < 2:
            arrive()
        elif roll < 0.62 and removed_edges:
            # Re-create a previously deleted edge (both endpoints live).
            u, v = removed_edges.pop(rng.randrange(len(removed_edges)))
            if u in live and v in live and edge_key(u, v) not in live_edges:
                events.append(EdgeArrival(u, v, time))
                live_edges.add(edge_key(u, v))
                time += 1
        elif roll < 0.8 and live_edges:
            u, v = _pick(rng, live_edges)
            events.append(EdgeRemoval(u, v, time))
            live_edges.discard(edge_key(u, v))
            removed_edges.append((u, v))
            time += 1
        elif len(live) > keep_min:
            vertex = _pick(rng, live)
            events.append(VertexRemoval(vertex, time))
            del live[vertex]
            live_edges.difference_update(
                e for e in set(live_edges) if vertex in e
            )
            removed_ids.append(vertex)
            time += 1
        else:
            arrive()
    return events


def churny_workload():
    return Workload(
        [
            PatternQuery("ab", LabelledGraph.path("ab"), 2.0),
            PatternQuery("abc", LabelledGraph.path("abc"), 1.0),
        ]
    )


def open_session(method, seed, wal_dir=None):
    durability = DurabilityConfig()
    if wal_dir is not None:
        durability = DurabilityConfig(mode="wal", wal_dir=str(wal_dir))
    return Cluster.open(
        ClusterConfig(
            partitions=3,
            method=method,
            window_size=7,
            motif_threshold=0.5,
            batch_size=16,
            seed=seed,
            durability=durability,
        ),
        workload=churny_workload(),
    )


def assert_equivalent_to_rebuild(session, events):
    expected = replay(events)
    # Resident graph == offline rebuild from the surviving events.
    assert session.graph == expected
    # Assignment covers exactly the survivors, within capacity.
    assert session.is_complete
    assignment = session.store.assignment
    assigned = assignment.assigned()
    assert set(assigned) == set(expected.vertices())
    sizes = assignment.sizes()
    assert sum(sizes) == expected.num_vertices
    assert [len(block) for block in assignment.blocks()] == sizes
    assert all(size <= assignment.capacity for size in sizes)
    # The partitioner's own assignment mirrors the store's exactly.
    if session._pipeline.partitioner is not None:
        assert session._pipeline.partitioner.assignment.assigned() == assigned
    # Recovery reproduces the churned state (nothing resurrects).
    session.close()
    with Cluster.recover(session.config.durability.wal_dir) as recovered:
        assert recovered.graph == expected
        assert recovered.assignment.assigned() == assigned


class TestDifferentialChurn:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_loom_matches_offline_rebuild(self, seed, tmp_path):
        events = generate_events(seed)
        session = open_session("loom", seed, tmp_path)
        report = session.ingest(events)
        assert report.removals > 0  # the generator really churns
        assert_equivalent_to_rebuild(session, events)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ldg_matches_offline_rebuild(self, seed, tmp_path):
        events = generate_events(seed + 1000)
        session = open_session("ldg", seed, tmp_path)
        session.ingest(events)
        assert_equivalent_to_rebuild(session, events)

    @pytest.mark.parametrize("seed", range(8))
    def test_split_ingest_matches_offline_rebuild(self, seed, tmp_path):
        """Churn spanning multiple ingests (removals of vertices placed by
        an earlier ingest) reaches the same surviving state."""
        events = generate_events(seed + 2000, arrivals=30)
        cut = len(events) // 2
        session = open_session("loom", seed, tmp_path)
        session.ingest(events[:cut])
        session.ingest(events[cut:])
        assert_equivalent_to_rebuild(session, events)

    @pytest.mark.parametrize("seed", range(8))
    def test_with_churn_respects_input_removals(self, seed):
        """Interleaving extra churn into a stream that already contains
        removal events must stay valid: no injected removal may collide
        with one the input stream issues later (code-review regression)."""
        from repro.stream.orderings import with_churn

        base = generate_events(seed + 4000)
        doubled = with_churn(
            base, delete_fraction=0.25, rng=random.Random(seed)
        )
        survivors = replay(doubled)  # raises on any invalid removal
        session = open_session("ldg", seed)
        session.ingest(doubled)
        assert session.graph == survivors

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("method", ["loom", "ldg"])
    def test_parallel_queries_match_serial_after_churn(self, seed, method):
        """The ``workers=2`` variant: after a churned ingest (slot
        recycling, retractions, re-adds) the sharded multi-process
        runtime must answer the sampled workload identically to the
        in-process executor, field for field."""
        from repro.api import WorkerConfig
        from repro.runtime.pool import default_start_method

        events = generate_events(seed + 5000)
        session = Cluster.open(
            ClusterConfig(
                partitions=3,
                method=method,
                window_size=7,
                motif_threshold=0.5,
                batch_size=16,
                seed=seed,
                worker=WorkerConfig(
                    count=2,
                    start_method=default_start_method(),
                    fallback_serial=False,
                ),
            ),
            workload=churny_workload(),
        )
        try:
            session.ingest(events, workers=1)
            serial = session.run_workload(executions=25, seed=9, workers=1)
            parallel = session.run_workload(executions=25, seed=9)
            assert parallel == serial
            for query in churny_workload():
                assert session.query(query, workers=2) == session.query(
                    query, workers=1
                )
        finally:
            session.close()

    @pytest.mark.parametrize("seed", range(6))
    def test_delta_replayed_workers_match_fresh_boot(self, seed):
        """Two sessions ingest the same churned stream through the same
        split; one keeps its workers resident across the split (the
        second half reaches them as a replayed mutation log), the other
        boots its workers fresh from a full snapshot of the final state.
        Both must answer the sampled workload identically to the serial
        executor, field for field -- the delta path may not leave even
        one bit of divergence behind."""
        from repro.api import WorkerConfig
        from repro.runtime.pool import default_start_method

        events = generate_events(seed + 6000)
        cut = len(events) // 2

        def churny_session():
            return Cluster.open(
                ClusterConfig(
                    partitions=3,
                    method="ldg",
                    window_size=7,
                    motif_threshold=0.5,
                    batch_size=16,
                    seed=seed,
                    worker=WorkerConfig(
                        count=2,
                        start_method=default_start_method(),
                        fallback_serial=False,
                    ),
                ),
                workload=churny_workload(),
            )

        resident = churny_session()
        fresh = churny_session()
        try:
            resident.ingest(events[:cut], workers=1)
            resident.run_workload(executions=25, seed=9)  # boots the pool
            boot_pool = resident.pool
            resident.ingest(events[cut:], workers=1)
            serial = resident.run_workload(executions=25, seed=11, workers=1)
            replayed = resident.run_workload(executions=25, seed=11)
            # The same workers answered, synced by replaying the second
            # half's mutation log -- not by a respawn or a re-prime.
            assert resident.pool is boot_pool
            assert boot_pool.delta_refreshes >= 1
            assert boot_pool.refreshes == 0

            # Identical coordinator state, workers booted from scratch.
            fresh.ingest(events[:cut], workers=1)
            fresh.ingest(events[cut:], workers=1)
            booted = fresh.run_workload(executions=25, seed=11)
            assert fresh.pool.delta_refreshes == 0

            assert replayed == serial
            assert booted == serial
            for query in churny_workload():
                reference = resident.query(query, workers=1)
                assert resident.query(query, workers=2) == reference
                assert fresh.query(query, workers=2) == reference
        finally:
            resident.close()
            fresh.close()

    @pytest.mark.parametrize("seed", range(8))
    def test_matcher_state_dies_with_the_stream(self, seed):
        """After a churned ingest the matcher tracks no match touching a
        deleted vertex, and retraction/eviction accounting is disjoint
        and complete: every registered match was eventually dropped."""
        events = generate_events(seed + 3000)
        session = open_session("loom", seed)
        session.ingest(events)
        matcher = session._pipeline.partitioner.matcher
        assert not matcher.matches()  # the flush drained the window
        stats = matcher.stats
        assert (
            stats["direct"] + stats["extended"] + stats["regrown"]
            == stats["evicted"] + stats["retracted"]
        )
