"""Equivalence: optimised matcher == PR-1 reference, byte for byte.

The interned-signature / int-edge-key / trie-lookup-table rebuild of the
stream matcher is a pure representation change: on any label stream it
must produce the identical match set (edges, vertices, signatures), the
identical diagnostics, and -- through LOOM -- the identical partition
assignments as the reference implementation preserved verbatim in
:mod:`reference_matcher` (next to this file; it ships with the tests,
not the package).  These tests pin that down on the paper's
figure-1/figure-3 workloads and on randomised streams with window expiry.
"""

import random

import pytest
from reference_matcher import (
    LegacyLoomPartitioner,
    LegacySlidingWindow,
    LegacyStreamMotifMatcher,
)
from route_names import NamedRouteWindow

from repro.core.config import LoomConfig
from repro.core.loom import LoomPartitioner
from repro.core.matcher import StreamMotifMatcher
from repro.engine import StreamingEngine
from repro.graph.generators import barabasi_albert
from repro.graph.labelled import LabelledGraph
from repro.partitioning.base import default_capacity
from repro.stream.sources import stream_from_graph
from repro.tpstry.trie import TPSTryPP
from repro.workload import (
    PatternQuery,
    Workload,
    figure1_graph,
    figure1_workload,
)


def build_stacks(workload, *, window=16, threshold=0.3):
    """One optimised and one legacy (window, matcher) pair, same workload."""
    stacks = []
    for window_cls, matcher_cls in (
        (NamedRouteWindow, StreamMotifMatcher),
        (LegacySlidingWindow, LegacyStreamMotifMatcher),
    ):
        trie = TPSTryPP.from_workload(workload)
        win = window_cls(window)
        matcher = matcher_cls(
            trie,
            win.graph,
            frequent_signatures=trie.frequent_signatures(threshold),
        )
        stacks.append((win, matcher))
    return stacks


def match_set(matcher):
    """Representation-independent view of the tracked matches."""
    return {
        (m.edges, m.vertices, m.signature, m.node_signature)
        for m in matcher.matches()
    }


def created_set(created):
    return {(m.edges, m.vertices, m.signature, m.node_signature) for m in created}


COMMON_STATS = ("direct", "extended", "regrown", "rejected")


def assert_equivalent(new_stack, old_stack):
    _, new_matcher = new_stack
    _, old_matcher = old_stack
    assert match_set(new_matcher) == match_set(old_matcher)
    for key in COMMON_STATS:
        assert new_matcher.stats[key] == old_matcher.stats[key], key


def drive(stacks, script):
    """Replay a window script against both stacks, comparing throughout."""
    (new_win, new_matcher), (old_win, old_matcher) = stacks
    for op in script:
        if op[0] == "v":
            _, vertex, label = op
            for win, matcher in stacks:
                if win.is_full:
                    oldest = win.oldest()
                    win.remove(oldest)
                    matcher.forget({oldest})
                win.add_vertex(vertex, label)
        else:
            _, u, v = op
            new_kind = new_win.add_edge(u, v)
            old_kind = old_win.add_edge(u, v)
            assert new_kind == old_kind
            if new_kind == "internal":
                new_created = new_matcher.on_edge(u, v)
                old_created = old_matcher.on_edge(u, v)
                assert created_set(new_created) == created_set(old_created)
        assert_equivalent(stacks[0], stacks[1])


def abc_workload():
    return Workload([PatternQuery("abc", LabelledGraph.path("abc"))])


def mixed_workload():
    return Workload(
        [
            PatternQuery("abc", LabelledGraph.path("abc"), 3.0),
            PatternQuery("square", LabelledGraph.cycle("abab"), 1.0),
            PatternQuery("abcd", LabelledGraph.path("abcd"), 2.0),
        ]
    )


class TestScriptedEquivalence:
    def test_figure3_shared_substructure(self):
        stacks = build_stacks(abc_workload())
        drive(
            stacks,
            [
                ("v", 1, "a"), ("v", 2, "b"), ("v", 3, "c"), ("v", 4, "c"),
                ("e", 1, 2), ("e", 2, 3), ("e", 2, 4),
            ],
        )

    def test_fragment_join_regrow(self):
        stacks = build_stacks(
            Workload([PatternQuery("abcd", LabelledGraph.path("abcd"))])
        )
        drive(
            stacks,
            [
                ("v", 1, "a"), ("v", 2, "b"), ("v", 3, "c"), ("v", 4, "d"),
                ("e", 1, 2), ("e", 3, 4), ("e", 2, 3),
            ],
        )

    def test_window_expiry_evicts_identically(self):
        stacks = build_stacks(abc_workload(), window=3)
        script = [
            ("v", 1, "a"), ("v", 2, "b"), ("v", 3, "c"),
            ("e", 1, 2), ("e", 2, 3),
            # Window full: the next arrivals expire 1, then 2.
            ("v", 4, "b"), ("e", 3, 4),
            ("v", 5, "a"), ("e", 4, 5),
        ]
        drive(stacks, script)
        new_matcher = stacks[0][1]
        assert new_matcher.stats["evicted"] >= 1


@pytest.mark.parametrize("seed", range(6))
def test_randomised_streams_identical(seed):
    """Property-style: random label streams with expiry, every step equal."""
    rng = random.Random(seed)
    stacks = build_stacks(mixed_workload(), window=8, threshold=0.2)
    labels = "abcd"
    alive: list[int] = []
    script = []
    for vertex in range(60):
        script.append(("v", vertex, rng.choice(labels)))
        alive.append(vertex)
        window_view = alive[-8:]
        for _ in range(rng.randrange(3)):
            if len(window_view) < 2:
                break
            u, v = rng.sample(window_view, 2)
            script.append(("e", u, v))
    drive(stacks, script)


@pytest.mark.parametrize(
    "ordering,seed", [("random", 0), ("bfs", 1), ("random", 2)]
)
def test_loom_pipeline_assignments_identical(ordering, seed):
    """End-to-end: optimised LOOM == PR-1 LOOM on whole streams."""
    rng = random.Random(seed)
    graph = barabasi_albert(300, 2, rng=rng)
    events = stream_from_graph(graph, ordering=ordering, rng=random.Random(seed + 1))
    workload = mixed_workload()
    capacity = default_capacity(graph.num_vertices, 4, 1.2)
    config = LoomConfig(k=4, capacity=capacity, window_size=32, motif_threshold=0.2)
    new = LoomPartitioner(workload, config)
    old = LegacyLoomPartitioner(workload, config)
    new_assignment = StreamingEngine(new).run(events)
    old_assignment = StreamingEngine(old).run(events)
    assert new_assignment.assigned() == old_assignment.assigned()
    assert new.stats == old.stats
    for key in COMMON_STATS:
        assert new.matcher.stats[key] == old.matcher.stats[key]


def test_figure1_workload_assignments_identical():
    graph = figure1_graph()
    events = stream_from_graph(graph, ordering="bfs", rng=random.Random(0))
    workload = figure1_workload(q1_frequency=4.0)
    config = LoomConfig(k=2, capacity=6, window_size=4, motif_threshold=0.5)
    new = LoomPartitioner(workload, config)
    old = LegacyLoomPartitioner(workload, config)
    assert StreamingEngine(new).run(events).assigned() == (
        StreamingEngine(old).run(events).assigned()
    )
