"""The façade's collaborators keep the session's state whole across
commands: ``repartition`` swaps its ingest pipeline without leaking a
worker pool, every engine run reaches the batch histogram, and the
cumulative engine counters never go backwards."""

import multiprocessing
from itertools import pairwise

from repro.api import Cluster, ClusterConfig, WorkerConfig
from repro.runtime.pool import default_start_method


def _shard_workers():
    return [
        child.name
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-worker-")
    ]


def _loom_session(**overrides):
    config = ClusterConfig(partitions=4, method="loom", seed=0, **overrides)
    session = Cluster.open(config)
    session.ingest("fraud", size=100)
    return session


def _engine_metrics(session):
    metrics = session.metrics()["metrics"]
    histogram = metrics["engine.batch_seconds"]["series"][0]["count"]
    return (
        int(metrics["engine.events"]["series"][0]["value"]),
        int(metrics["engine.batches"]["series"][0]["value"]),
        histogram,
    )


def test_repartition_leaves_no_worker_behind():
    config = ClusterConfig(
        partitions=4,
        method="ldg",
        seed=0,
        worker=WorkerConfig(count=2, start_method=default_start_method()),
    )
    session = Cluster.open(config)
    try:
        session.ingest("fraud", size=100)
        assert _shard_workers()
        session.repartition(method="hash")
        session.close()
        assert _shard_workers() == []
        query = session.workload.queries[0]
        parallel = session.query(query, workers=2)
        assert parallel == session.query(query, workers=1)
    finally:
        session.close()
    assert _shard_workers() == []


def test_every_engine_run_reaches_the_batch_histogram():
    session = _loom_session(batch_size=64)
    _, batches, histogram = _engine_metrics(session)
    assert histogram == batches == session.engine_stats.batches == 10
    session.retract(vertices=sorted(session.graph.vertices(), key=repr)[:200])
    _, batches, histogram = _engine_metrics(session)
    assert batches > 10
    assert histogram == batches == session.engine_stats.batches
    session.repartition(method="ldg")
    _, batches, histogram = _engine_metrics(session)
    assert histogram == batches == session.engine_stats.batches


def test_engine_counters_never_decrease():
    session = _loom_session()
    seen = [_engine_metrics(session)[:2]]
    session.retract(vertices=sorted(session.graph.vertices(), key=repr)[:150])
    seen.append(_engine_metrics(session)[:2])
    session.repartition(method="ldg")
    seen.append(_engine_metrics(session)[:2])
    assert seen == sorted(seen)
    for (events, batches), (later_events, later_batches) in pairwise(seen):
        assert later_events > events
        assert later_batches >= batches
    assert seen[-1] == (
        session.engine_stats.events,
        session.engine_stats.batches,
    )
