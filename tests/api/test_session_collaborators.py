"""The façade's collaborators keep the session's state whole across
commands: every engine run reaches the batch histogram, and the
cumulative engine counters never go backwards."""

from itertools import pairwise

from repro.api import Cluster, ClusterConfig


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


def test_every_engine_run_reaches_the_batch_histogram():
    session = _loom_session(batch_size=64)
    _, batches, histogram = _engine_metrics(session)
    assert histogram == batches == session.engine_stats.batches == 10
    session.retract(vertices=sorted(session.graph.vertices(), key=repr)[:200])
    _, batches, histogram = _engine_metrics(session)
    assert batches > 10
    assert histogram == batches == session.engine_stats.batches


def test_engine_counters_never_decrease():
    session = _loom_session()
    seen = [_engine_metrics(session)[:2]]
    session.retract(vertices=sorted(session.graph.vertices(), key=repr)[:150])
    seen.append(_engine_metrics(session)[:2])
    assert seen == sorted(seen)
    for (events, batches), (later_events, later_batches) in pairwise(seen):
        assert later_events > events
        assert later_batches >= batches
    assert seen[-1] == (
        session.engine_stats.events,
        session.engine_stats.batches,
    )
