"""Golden outputs: LOOM placements pinned to recorded digests.

The companion of ``test_matcher_equivalence.py``: that file compares the
shipped matcher/window against the reference implementation run by run;
this one pins the shipped pipeline to values recorded once, at the commit
before the ``assignment_index`` and window-graph seams were removed from
``core/loom.py``.  A change to the driver that moves any placement, any
partitioner counter or any matcher ledger entry fails here even if it
moves the reference the same way.  The four streams are the ones the
equivalence tests use; the digest is SHA-256 over the ``repr`` of the
sorted ``(vertex, partition)`` pairs.
"""

import hashlib
import random

import pytest

from repro.core.config import LoomConfig
from repro.core.loom import LoomPartitioner
from repro.engine import StreamingEngine
from repro.graph.generators import barabasi_albert
from repro.graph.labelled import LabelledGraph
from repro.partitioning.base import default_capacity
from repro.stream.sources import stream_from_graph
from repro.workload import (
    PatternQuery,
    Workload,
    figure1_graph,
    figure1_workload,
)


def ba_case(ordering, seed):
    graph = barabasi_albert(300, 2, rng=random.Random(seed))
    events = stream_from_graph(
        graph, ordering=ordering, rng=random.Random(seed + 1)
    )
    workload = Workload(
        [
            PatternQuery("abc", LabelledGraph.path("abc"), 3.0),
            PatternQuery("square", LabelledGraph.cycle("abab"), 1.0),
            PatternQuery("abcd", LabelledGraph.path("abcd"), 2.0),
        ]
    )
    capacity = default_capacity(graph.num_vertices, 4, 1.2)
    config = LoomConfig(
        k=4, capacity=capacity, window_size=32, motif_threshold=0.2
    )
    return workload, config, events


def figure1_case():
    events = stream_from_graph(
        figure1_graph(), ordering="bfs", rng=random.Random(0)
    )
    config = LoomConfig(k=2, capacity=6, window_size=4, motif_threshold=0.5)
    return figure1_workload(q1_frequency=4.0), config, events


def partitioner_stats(groups, group_vertices, singles):
    return {
        "groups": groups,
        "group_vertices": group_vertices,
        "singles": singles,
        "split_groups": 0,
    }


def matcher_ledger(direct, extended, regrown, rejected, evicted):
    return {
        "direct": direct,
        "extended": extended,
        "regrown": regrown,
        "rejected": rejected,
        "evicted": evicted,
        "retracted": 0,
    }


GOLDEN = [
    pytest.param(
        ba_case("random", 0),
        "19a314c6e1aee5acdfaa9806b0beede8db90797d426c815200722dc85071dd43",
        partitioner_stats(37, 85, 215),
        matcher_ledger(48, 10, 0, 31, 58),
        id="ba300-random-0",
    ),
    pytest.param(
        ba_case("bfs", 1),
        "c75621e77fe7def6390c7942fc0de0d27554a3b496599915679fd75ed8484f42",
        partitioner_stats(28, 74, 226),
        matcher_ledger(46, 31, 0, 140, 77),
        id="ba300-bfs-1",
    ),
    pytest.param(
        ba_case("random", 2),
        "474bcb8c666ff6b174bc687a5ec218b30055c4d8c9eba1e6ab41d09a6a61aa7a",
        partitioner_stats(26, 63, 237),
        matcher_ledger(37, 9, 0, 23, 46),
        id="ba300-random-2",
    ),
    pytest.param(
        figure1_case(),
        "6613d4d3042f2eac8004246bc9843ef8646ebc986dcf40527aa30b3fd89f695e",
        partitioner_stats(1, 4, 4),
        matcher_ledger(6, 8, 1, 2, 15),
        id="figure1-bfs-0",
    ),
]


@pytest.mark.parametrize("case,digest,stats,ledger", GOLDEN)
def test_placements_and_ledgers_match_recording(case, digest, stats, ledger):
    workload, config, events = case
    partitioner = LoomPartitioner(workload, config)
    placed = sorted(StreamingEngine(partitioner).run(events).assigned().items())
    assert hashlib.sha256(repr(placed).encode()).hexdigest() == digest
    assert partitioner.stats == stats
    assert partitioner.matcher.stats == ledger
