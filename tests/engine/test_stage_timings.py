"""Per-stage timing counters threaded through the streaming engine."""

import random

from repro.core.config import LoomConfig
from repro.core.loom import LoomPartitioner
from repro.engine.pipeline import StreamingEngine
from repro.graph.generators import barabasi_albert
from repro.graph.labelled import LabelledGraph
from repro.partitioning.base import default_capacity
from repro.stream.sources import stream_from_graph
from repro.workload import PatternQuery, Workload

STAGES = ("match", "extend", "regrow", "evict")


def build(stage_timings):
    graph = barabasi_albert(120, 2, rng=random.Random(0))
    events = stream_from_graph(graph, ordering="random", rng=random.Random(1))
    workload = Workload([PatternQuery("abc", LabelledGraph.path("abc"))])
    config = LoomConfig(
        k=2,
        capacity=default_capacity(graph.num_vertices, 2, 1.2),
        window_size=16,
        motif_threshold=0.2,
        stage_timings=stage_timings,
    )
    return LoomPartitioner(workload, config), events


def test_stage_seconds_off_by_default():
    loom, events = build(stage_timings=False)
    engine = StreamingEngine(loom)
    engine.run(events)
    assert loom.stage_seconds is None
    assert engine.stats.stage_seconds == {}


def test_stage_seconds_flow_to_engine_stats_and_hooks():
    loom, events = build(stage_timings=True)
    seen = []

    def hook(batch):
        if batch.stage_seconds is not None:
            seen.append(batch.stage_seconds)

    engine = StreamingEngine(loom, batch_size=64, hooks=(hook,))
    engine.run(events)

    final = engine.stats.stage_seconds
    assert set(final) == set(STAGES)
    assert all(seconds >= 0.0 for seconds in final.values())
    # Something matched and something was evicted on this stream.
    assert final["match"] > 0.0
    assert final["evict"] > 0.0
    assert seen, "hooks should observe per-batch stage snapshots"
    # Snapshots are cumulative: monotone per stage.
    for earlier, later in zip(seen, seen[1:], strict=False):
        for stage in STAGES:
            assert later[stage] >= earlier[stage]


def test_timed_and_untimed_assignments_agree():
    timed, events = build(stage_timings=True)
    plain, _ = build(stage_timings=False)
    assert StreamingEngine(timed).run(events).assigned() == (
        StreamingEngine(plain).run(events).assigned()
    )
