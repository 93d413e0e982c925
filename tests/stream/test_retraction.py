"""Explicit retraction: window paths, matcher kill paths, and the
expire × retraction interaction (no double-eviction, counters exact)."""

import pytest

from repro.core import LoomConfig, LoomPartitioner
from repro.exceptions import StreamError
from repro.graph import LabelledGraph
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    VertexArrival,
    VertexRemoval,
)
from repro.stream.window import SlidingWindow
from repro.workload import PatternQuery, Workload


class TestWindowRetraction:
    def make_window(self):
        window = SlidingWindow(4)
        window.add_vertex(1, "a")
        window.add_vertex(2, "b")
        return window

    def test_internal_edge_retraction(self):
        window = self.make_window()
        window.route_edge(1, 2)
        assert window.retract_edge(1, 2) == "internal"
        assert not window.graph.has_edge(1, 2)
        # Tolerant re-retraction: the edge is simply gone.
        assert window.retract_edge(1, 2) == "internal"

    def test_external_edge_retraction(self):
        window = self.make_window()
        window.route_edge(1, 99)  # 99 already departed/placed
        assert window.external_neighbours(1) == frozenset({99})
        assert window.retract_edge(1, 99) == "external"
        assert window.external_neighbours(1) == frozenset()

    def test_departed_edge_retraction_is_noop(self):
        window = self.make_window()
        assert window.retract_edge(50, 60) == "departed"

    def test_vertex_retraction_does_not_externalise(self):
        """A deleted buffered vertex must NOT become an external (placed)
        neighbour of its buffered neighbours -- it no longer exists."""
        window = self.make_window()
        window.route_edge(1, 2)
        window.retract_vertex(1)
        assert 1 not in window
        assert window.external_neighbours(2) == frozenset()
        assert not window.graph.has_vertex(1)

    def test_vertices_without_internal_edges_retract(self):
        window = self.make_window()
        assert window.retract_edge(1, 2) == "internal"
        assert window.retract_vertex(1) == "a"
        assert 1 not in window
        window.route_edge(2, 99)
        window.retract_edge(2, 99)
        assert window.retract_vertex(2) == "b"
        assert len(window) == 0
        assert window.graph.num_vertices == 0

    def test_expire_does_externalise_for_contrast(self):
        window = self.make_window()
        window.route_edge(1, 2)
        window.expire(1)
        assert window.external_neighbours(2) == frozenset({1})

    def test_retract_unbuffered_vertex_raises(self):
        window = self.make_window()
        with pytest.raises(StreamError):
            window.retract_vertex(99)

    def test_forget_placed_purges_external_sets(self):
        window = self.make_window()
        window.route_edge(1, 99)
        window.route_edge(2, 99)
        assert sorted(window.forget_placed(99)) == [1, 2]
        assert window.external_neighbours(1) == frozenset()
        assert window.external_neighbours(2) == frozenset()
        assert window.forget_placed(99) == []


def make_loom(window_size=16):
    abc = LabelledGraph.path("abc")
    workload = Workload([PatternQuery("abc", abc)])
    config = LoomConfig(
        k=2, capacity=16, window_size=window_size, motif_threshold=0.5
    )
    return LoomPartitioner(workload, config)


def feed(loom, *events):
    loom.process_batch(events)


class TestMatcherRetraction:
    def test_retracting_matched_edge_kills_partial_matches(self):
        """The acceptance-criterion assertion: deleting a matched edge
        provably kills the partial matches containing it."""
        loom = make_loom()
        feed(
            loom,
            VertexArrival(1, "a", 0),
            VertexArrival(2, "b", 1),
            EdgeArrival(1, 2, 2),
        )
        matcher = loom.matcher
        before = len(matcher.matches())
        assert before >= 1  # the a-b pair is a TPSTry++ node
        feed(loom, EdgeRemoval(1, 2, 3))
        assert matcher.matches() == []
        assert matcher.stats["retracted"] == before
        assert matcher.stats["evicted"] == 0

    def test_retraction_then_expiry_no_double_count(self):
        """A match killed by retraction must not be re-counted when its
        vertices later expire out of the window (and vice versa)."""
        loom = make_loom()
        feed(
            loom,
            VertexArrival(1, "a", 0),
            VertexArrival(2, "b", 1),
            EdgeArrival(1, 2, 2),
            VertexArrival(3, "c", 3),
            EdgeArrival(2, 3, 4),
        )
        matcher = loom.matcher
        registered = (
            matcher.stats["direct"]
            + matcher.stats["extended"]
            + matcher.stats["regrown"]
        )
        assert registered >= 3  # ab, bc, abc at least
        feed(loom, EdgeRemoval(1, 2, 5))
        retracted = matcher.stats["retracted"]
        assert retracted >= 2  # ab and abc contained the edge
        loom.flush()
        # Whatever survived retraction was evicted exactly once; the
        # ledger balances with no overlap between the two counters.
        assert (
            matcher.stats["evicted"] + matcher.stats["retracted"]
            == registered
        )
        assert matcher.stats["retracted"] == retracted
        assert matcher.matches() == []

    def test_expiry_then_retraction_is_noop(self):
        """Deleting an edge whose endpoints already left the window must
        not disturb the eviction ledger (the 'departed' route)."""
        loom = make_loom(window_size=2)
        feed(
            loom,
            VertexArrival(1, "a", 0),
            VertexArrival(2, "b", 1),
            EdgeArrival(1, 2, 2),
        )
        loom.flush()  # both endpoints assigned; their matches evicted
        evicted = loom.matcher.stats["evicted"]
        assert evicted >= 1
        feed(loom, EdgeRemoval(1, 2, 3))
        assert loom.matcher.stats["retracted"] == 0
        assert loom.matcher.stats["evicted"] == evicted

    def test_vertex_retraction_kills_matches_and_frees_no_slot(self):
        loom = make_loom()
        feed(
            loom,
            VertexArrival(1, "a", 0),
            VertexArrival(2, "b", 1),
            EdgeArrival(1, 2, 2),
            VertexRemoval(2, 3),
        )
        matcher = loom.matcher
        assert matcher.matches() == []
        assert matcher.stats["retracted"] >= 1
        assert loom.assignment.num_assigned == 0
        loom.flush()  # vertex 1 places alone; 2 is gone for good
        assert loom.assignment.num_assigned == 1
        assert loom.assignment.partition_of(2) is None

    def test_removing_placed_vertex_frees_capacity(self):
        loom = make_loom(window_size=2)
        feed(
            loom,
            VertexArrival(1, "a", 0),
            VertexArrival(2, "b", 1),
            VertexArrival(3, "a", 2),  # forces 1 out of the window
        )
        assert loom.assignment.num_assigned == 1
        sizes_before = sum(loom.assignment.sizes())
        feed(loom, VertexRemoval(1, 3))
        assert sum(loom.assignment.sizes()) == sizes_before - 1
        assert loom.assignment.partition_of(1) is None

    def test_edge_readdition_after_retraction_rematches(self):
        loom = make_loom()
        feed(
            loom,
            VertexArrival(1, "a", 0),
            VertexArrival(2, "b", 1),
            EdgeArrival(1, 2, 2),
            EdgeRemoval(1, 2, 3),
            EdgeArrival(1, 2, 4),
        )
        assert len(loom.matcher.matches()) >= 1
        assert loom.matcher.stats["retracted"] >= 1


class TestNeighbourIndexUnderChurn:
    def test_adapter_unwinds_cascaded_edge_of_pending_vertex(self):
        """Deleting a placed neighbour of the pending vertex cascades over
        their shared edge: the pending vertex must not be scored against
        a ghost (code-review regression)."""
        from repro.engine.pipeline import VertexStreamAdapter
        from repro.partitioning.streaming import LinearDeterministicGreedy

        adapter = VertexStreamAdapter(
            LinearDeterministicGreedy(), k=3, capacity=4
        )
        adapter.process_batch((VertexArrival(1, "a", 0),))
        adapter.process_batch((VertexArrival(2, "a", 1),))  # places 1
        adapter.process_batch((EdgeArrival(2, 1, 2),))  # neighbour of pending 2
        adapter.process_batch((VertexRemoval(1, 3),))  # cascade kills the edge
        adapter.flush()
        # With no surviving neighbours 2 lands on the least-loaded
        # partition (0 -- everything is empty), not 1's old home.
        assert adapter.assignment.partition_of(2) == 0
