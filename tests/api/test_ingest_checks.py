"""A batch the store or the partitioner would reject fails whole.

``Session.ingest`` checks every event against the resident graph
overlaid with the batch's own arrivals, removals and cascades before it
mutates anything: a bad event raises ``SessionError`` naming its index,
and the store, the WAL and the partitioner stay as they were, so the
session keeps answering (before the check, a bad event left a vertex
stored but never placed, and every later query failed).
"""

import itertools
import os
import random
import re

import pytest

from repro.api import Cluster, DurabilityConfig
from repro.api.ingest import count_checked
from repro.datasets import fraud_workload
from repro.exceptions import PartitioningError, ReproError, SessionError
from repro.graph import LabelledGraph
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    VertexArrival,
    VertexRemoval,
)


def V(vertex, label="account"):
    return VertexArrival(vertex, label, 0)


def E(u, v):
    return EdgeArrival(u, v, 0)


def E_(u, v):
    return EdgeRemoval(u, v, 0)


def V_(vertex):
    return VertexRemoval(vertex, 0)


FIRST = [V(1), V(2), E(1, 2)]
NEXT = [V(4), E(4, 1), V(5), E(5, 2), E(4, 5)]

#: (bad batch, index of the culprit, words of the message).
BAD_BATCHES = {
    "label conflict": ([V(3), V(1, "device")], 1, "already resident"),
    "same-label re-arrival": ([V(3), V(1)], 1, "already resident"),
    "re-arrival inside the batch": ([V(3), V(3)], 1, "already resident"),
    "edge to an unknown vertex": ([V(3), E(3, 99)], 1, "resident endpoints"),
    "self-loop": ([V(3), E(3, 3)], 1, "resident endpoints"),
    "unknown vertex removed": ([V(3), V_(99)], 1, "vertex 99 is not resident"),
    "unknown edge removed": ([V(3), E_(1, 3)], 1, "edge (1, 3) is not resident"),
    "edge to a vertex the batch removed": ([V_(2), E(1, 2)], 1, "endpoints"),
    "resident edge removed twice": ([E_(1, 2), E_(2, 1)], 1, "not resident"),
    "resident edge cascaded": ([V_(1), E_(1, 2)], 1, "not resident"),
    "batch edge cascaded": (
        [V(3), E(1, 3), V_(3), E_(3, 1)], 3, "edge (3, 1) is not resident"
    ),
    "resident edge outlived by a re-arrival": (
        [V_(2), V(2), E_(1, 2)], 2, "edge (1, 2) is not resident"
    ),
    "batch edge outlived by a re-arrival": (
        [V(3), E(1, 3), V_(3), V(3), E_(1, 3)], 4, "edge (1, 3) is not resident"
    ),
    "not an event": ([V(3), ("v+", 4, "account")], 1, "not a stream event"),
}


def open_loom(**overrides):
    return Cluster.open(
        method="loom", partitions=2, workload=fraud_workload(), **overrides
    )


def state(session):
    partitioner = session._pipeline.partitioner
    return (
        session.store.export_columns(),
        session.store.mutation_ticks,
        session.is_complete,
        partitioner.window.arrival_order(),
        partitioner.assignment.assigned(),
        len(partitioner.matcher.matches()),
    )


@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
def test_bad_batch_mutates_nothing(case):
    batch, index, words = BAD_BATCHES[case]
    session = open_loom()
    session.ingest(FIRST)
    before = state(session)
    assert before[2]
    with pytest.raises(SessionError, match=f"event {index}: .*{re.escape(words)}"):
        session.ingest(batch)
    assert state(session) == before
    assert session.query(session.workload.queries[0]).matches >= 0
    # The session goes on exactly as if the batch had never come.
    session.ingest(NEXT)
    reference = open_loom()
    reference.ingest(FIRST)
    reference.ingest(NEXT)
    assert state(session) == state(reference)


def test_bad_batch_leaves_the_wal_untouched(tmp_path):
    wal_dir = tmp_path / "wal"
    durability = DurabilityConfig(mode="wal", wal_dir=str(wal_dir))
    session = open_loom(durability=durability)
    session.ingest(FIRST)
    logged = {name: (wal_dir / name).read_bytes() for name in os.listdir(wal_dir)}
    image = session.store.export_columns()
    with pytest.raises(SessionError, match="event 1"):
        session.ingest([V(3), V(1, "device")])
    after = {name: (wal_dir / name).read_bytes() for name in os.listdir(wal_dir)}
    assert after == logged
    session.close()
    recovered = Cluster.recover(wal_dir, workload=fraud_workload())
    try:
        assert recovered.store.export_columns() == image
        assert recovered.is_complete
    finally:
        recovered.close()


@pytest.mark.parametrize(
    "batch",
    [
        [V_(2), V(2), E(1, 2)],             # a removed id comes back
        [V(3), E(1, 3), E_(3, 1), E(1, 3)],  # an edge leaves and returns
        [E(1, 2), E_(2, 1)],                 # a resident edge re-sent, then gone
        [V(3), E(3, 1), E(1, 3)],            # an edge sent twice
    ],
)
def test_batch_overlays_accept_what_the_store_accepts(batch):
    session = open_loom()
    session.ingest(FIRST)
    session.ingest(batch)
    assert session.is_complete


def test_offline_reingest_accepts_the_same_labels_only():
    session = Cluster.open(
        method="offline", partitions=2, workload=fraud_workload()
    )
    session.ingest(FIRST)
    session.ingest([V(1), V(2), E(1, 2), V(3), E(2, 3)])
    assert session.store.graph.num_vertices == 3
    before = session.store.export_columns()
    with pytest.raises(SessionError, match="event 0: vertex 1"):
        session.ingest([V(1, "device")])
    assert session.store.export_columns() == before


# ----------------------------------------------------------------------
# The check against its oracle: a graph replay with the store's rules.
# ----------------------------------------------------------------------
def applied(graph, event, *, rearrival):
    """Apply ``event`` to ``graph`` with the store's semantics; False when
    the store (or, without ``rearrival``, the partitioner) rejects it."""
    try:
        if isinstance(event, VertexArrival):
            if not rearrival and graph.has_vertex(event.vertex):
                return False
            graph.add_vertex(event.vertex, event.label)
        elif isinstance(event, EdgeArrival):
            graph.add_edge(event.u, event.v)
        elif isinstance(event, EdgeRemoval):
            graph.remove_edge(event.u, event.v)
        else:
            graph.remove_vertex(event.vertex)
    except ReproError:
        return False
    return True


ALPHABET = [V(0), V(0, "b"), V(1), E(0, 1), E_(1, 0), V_(0), V_(1)]


@pytest.mark.parametrize("rearrival", [False, True])
@pytest.mark.parametrize("resident", [[], [V(0), V(1), E(0, 1)]])
def test_check_agrees_with_a_replay_on_every_short_batch(resident, rearrival):
    """Every batch of up to five events over two vertices."""
    graph = LabelledGraph()
    for event in resident:
        assert applied(graph, event, rearrival=True)
    for length in range(1, 6):
        for batch in itertools.product(ALPHABET, repeat=length):
            replay = graph.copy()
            verdicts = [applied(replay, e, rearrival=rearrival) for e in batch]
            if all(verdicts):
                counts = count_checked(batch, graph, rearrival=rearrival)
                assert sum(counts) == length
            elif verdicts.index(False) == length - 1:
                with pytest.raises(SessionError, match=f"^event {length - 1}: "):
                    count_checked(batch, graph, rearrival=rearrival)


def test_check_counts_a_large_churn_batch():
    rng = random.Random(3)
    alive = [0]
    batch = [V(0)]
    for step in range(1, 3000):
        batch += [V(step), E(step, rng.choice(alive))]
        alive.append(step)
        if step % 5 == 0:
            batch.append(V_(alive.pop(rng.randrange(len(alive) - 1))))
    assert count_checked(batch, LabelledGraph(), rearrival=False) == (
        3000, 2999, 599
    )


# ----------------------------------------------------------------------
# An explicit capacity bounds the resident count, checked up front too.
# ----------------------------------------------------------------------
CAPACITY_METHODS = ["ldg", "loom", "hash", "offline"]


def open_capped(method, **overrides):
    return Cluster.open(
        method=method, partitions=2, capacity=2, workload=fraud_workload(),
        **overrides,
    )


def stored(session):
    return (
        session.store.export_columns(),
        session.store.mutation_ticks,
        session.is_complete,
    )


@pytest.mark.parametrize("method", CAPACITY_METHODS)
def test_capacity_overflow_is_rejected_whole(method):
    """Two partitions of capacity 2 hold four vertices: a batch that would
    make five is refused before the store or the partitioner sees it."""
    session = open_capped(method)
    session.ingest(FIRST)
    before = stored(session)
    with pytest.raises(SessionError, match="^event 2: 5 vertices would be resident"):
        session.ingest([V(3), V(4), V(5)])
    assert stored(session) == before
    assert session.query(session.workload.queries[0]).matches >= 0
    session.ingest([V(3), V(4), E(3, 4)])
    assert session.is_complete
    assert session.graph.num_vertices == 4
    assert session.query(session.workload.queries[0]).matches >= 0


@pytest.mark.parametrize("method", CAPACITY_METHODS)
def test_a_streaming_method_bounds_every_prefix_an_offline_one_the_end(method):
    """A streaming method may place the fifth vertex before the removal
    that would free its room arrives, so every prefix must fit; an
    offline method places only the batch's final graph."""
    session = open_capped(method)
    session.ingest(FIRST)
    batch = [V(3), V(4), V(5), V_(5)]
    if method == "offline":
        session.ingest(batch)
        assert session.graph.num_vertices == 4
        assert session.is_complete
    else:
        with pytest.raises(SessionError, match="^event 2: "):
            session.ingest(batch)
        assert session.graph.num_vertices == 2


def test_capacity_check_counts_removals_and_names_the_event():
    resident = LabelledGraph.from_edges({1: "account", 2: "account"}, [(1, 2)])
    batch = [V_(1), V(3), V(4), V(5)]
    assert count_checked(batch, resident, rearrival=False, limit=4) == (3, 0, 1)
    with pytest.raises(SessionError, match="^event 3: 4 vertices"):
        count_checked(batch, resident, rearrival=False, limit=3)
    # A same-label re-arrival (offline) adds nobody; a removal frees room.
    assert count_checked(
        [V(1), V(3), V_(3), V(4)], resident, rearrival=True, limit=3
    ) == (3, 0, 1)
    with pytest.raises(SessionError, match="^event 1: 4 vertices"):
        count_checked([V(3), V(4)], resident, rearrival=True, limit=3)


def test_a_rejected_overflow_leaves_the_wal_at_the_pre_batch_state(tmp_path):
    wal_dir = tmp_path / "wal"
    durability = DurabilityConfig(mode="wal", wal_dir=str(wal_dir))
    session = open_capped("loom", durability=durability)
    session.ingest(FIRST)
    before = stored(session)
    with pytest.raises(SessionError, match="event 2"):
        session.ingest([V(3), V(4), V(5)])
    session.close()
    with Cluster.recover(wal_dir, workload=fraud_workload()) as recovered:
        assert stored(recovered) == before
        recovered.ingest([V(3), V(4)])
        assert recovered.is_complete


# ----------------------------------------------------------------------
# Offline methods: the session's capacity, and a build that fails first.
# ----------------------------------------------------------------------
OFFLINE_METHODS = ["offline", "offline_wa"]


@pytest.mark.parametrize("method", OFFLINE_METHODS)
def test_offline_methods_place_within_an_explicit_capacity(method):
    """Nine vertices fill three partitions of capacity 3 exactly; the
    multilevel build must size its partitions at that capacity, not at
    its own ``ceil(slack * n / k)``."""
    for seed in range(20):
        rng = random.Random(seed)
        pairs = list(itertools.combinations(range(9), 2))
        edges = rng.sample(pairs, 12)
        session = Cluster.open(
            method=method, partitions=3, capacity=3, workload=fraud_workload()
        )
        session.ingest([V(v) for v in range(9)] + [E(u, v) for u, v in edges])
        assert session.is_complete
        assert max(session.store.assignment.sizes()) <= 3


@pytest.mark.parametrize(
    ("method", "batch", "error"),
    [
        ("offline", [V(1), V_(1)], PartitioningError),
        ("offline_wa", FIRST, ValueError),
    ],
    ids=OFFLINE_METHODS,
)
def test_a_failing_offline_batch_on_a_fresh_session_stores_nothing(
    method, batch, error
):
    """The build runs on the batch's replay before any store exists."""
    session = Cluster.open(method=method, partitions=2)
    with pytest.raises(error):
        session.ingest(batch)
    assert session._pipeline.store is None
    assert not session.is_complete
    session.ingest(FIRST, workload=fraud_workload())
    assert session.is_complete
    assert session.query(session.workload.queries[0]).matches >= 0


@pytest.mark.parametrize(
    ("method", "batch", "error"),
    [
        ("offline", [V_(1), V_(2)], PartitioningError),
        ("offline_wa", [V(3), E(1, 3)], ValueError),
    ],
    ids=OFFLINE_METHODS,
)
def test_a_failing_offline_batch_leaves_the_residents_as_they_were(
    tmp_path, method, batch, error
):
    """With residents the build runs on a copy of their graph with the
    batch applied: a method that rejects it leaves the store, the WAL
    and completeness as they were.  ``offline_wa`` fails for want of a
    workload, which a session recovered without one lacks."""
    wal_dir = tmp_path / "wal"
    durability = DurabilityConfig(mode="wal", wal_dir=str(wal_dir))
    with Cluster.open(
        method=method, partitions=2, workload=fraud_workload(),
        durability=durability,
    ) as session:
        session.ingest(FIRST)
    session = Cluster.recover(wal_dir)
    before = stored(session)
    assert before[2]
    with pytest.raises(error):
        session.ingest(batch)
    assert stored(session) == before
    assert session.query(fraud_workload().queries[0]).matches >= 0
    session.close()
    with Cluster.recover(wal_dir, workload=fraud_workload()) as recovered:
        assert stored(recovered) == before
        recovered.ingest(NEXT)
        assert recovered.is_complete
        assert recovered.query(recovered.workload.queries[0]).matches >= 0
