"""Tests for the graph-stream motif matcher, including the figure-3 case."""


from route_names import NamedRouteWindow

from repro.core.matcher import StreamMotifMatcher
from repro.graph import LabelledGraph
from repro.tpstry import TPSTryPP
from repro.workload import PatternQuery, Workload, figure1_workload


def make_matcher(workload, *, threshold=0.3, window=16, fix=True):
    trie = TPSTryPP.from_workload(workload)
    win = NamedRouteWindow(window)
    matcher = StreamMotifMatcher(
        trie,
        win.graph,
        frequent_signatures=trie.frequent_signatures(threshold),
        resignature_fix=fix,
    )
    return win, matcher


def abc_workload():
    return Workload([PatternQuery("abc", LabelledGraph.path("abc"))])


def feed_edge(win, matcher, u, v):
    kind = win.add_edge(u, v)
    assert kind == "internal"
    return matcher.on_edge(u, v)


class TestDirectAndExtended:
    def test_pair_match_registered(self):
        win, matcher = make_matcher(abc_workload())
        win.add_vertex(10, "a")
        win.add_vertex(11, "b")
        created = feed_edge(win, matcher, 10, 11)
        assert len(created) == 1
        assert created[0].vertices == frozenset({10, 11})

    def test_non_motif_edge_ignored(self):
        win, matcher = make_matcher(abc_workload())
        win.add_vertex(10, "a")
        win.add_vertex(11, "a")  # a-a never occurs in the workload
        created = feed_edge(win, matcher, 10, 11)
        assert created == []
        assert matcher.matches() == []

    def test_extension_to_full_motif(self):
        win, matcher = make_matcher(abc_workload())
        win.add_vertex(10, "a")
        win.add_vertex(11, "b")
        win.add_vertex(12, "c")
        feed_edge(win, matcher, 10, 11)
        created = feed_edge(win, matcher, 11, 12)
        sizes = sorted(m.size for m in matcher.matches())
        assert sizes == [2, 2, 3]  # ab, bc, abc
        assert any(m.vertices == frozenset({10, 11, 12}) for m in created)

    def test_no_growth_beyond_workload_motifs(self):
        win, matcher = make_matcher(abc_workload())
        for vid, label in [(10, "a"), (11, "b"), (12, "c"), (13, "c")]:
            win.add_vertex(vid, label)
        feed_edge(win, matcher, 10, 11)
        feed_edge(win, matcher, 11, 12)
        feed_edge(win, matcher, 12, 13)  # c-c edge: not in any query
        assert all(m.size <= 3 for m in matcher.matches())

    def test_square_motif_detected_via_cycle_close(self):
        win, matcher = make_matcher(figure1_workload())
        for vid, label in [(1, "a"), (2, "b"), (5, "b"), (6, "a")]:
            win.add_vertex(vid, label)
        feed_edge(win, matcher, 1, 2)
        feed_edge(win, matcher, 1, 5)
        feed_edge(win, matcher, 2, 6)
        created = feed_edge(win, matcher, 5, 6)  # closes the square
        assert any(m.size == 4 and len(m.edges) == 4 for m in created)


class TestFigure3Regrow:
    """The shared-substructure situation of the paper's figure 3, plus the
    general fragment-join case the 4.3 re-signature pass exists for."""

    def build_figure3(self, fix):
        win, matcher = make_matcher(abc_workload(), fix=fix)
        for vid, label in [(1, "a"), (2, "b"), (3, "c"), (4, "c")]:
            win.add_vertex(vid, label)
        feed_edge(win, matcher, 1, 2)
        feed_edge(win, matcher, 2, 3)   # S = a(1)-b(2)-c(3)
        feed_edge(win, matcher, 2, 4)   # the figure-3 edge
        return matcher

    def test_figure3_both_instances_found(self):
        # Song et al track one signature per sub-graph and so miss the
        # second abc; our matcher tracks every intermediate node match, so
        # DAG extension alone recovers it -- the re-signature fix is then
        # only needed for fragment joins (next tests).
        matcher = self.build_figure3(fix=False)
        abc_matches = {m.vertices for m in matcher.matches() if m.size == 3}
        assert frozenset({1, 2, 3}) in abc_matches
        assert frozenset({1, 2, 4}) in abc_matches

    def build_fragment_join(self, fix):
        workload = Workload([PatternQuery("abcd", LabelledGraph.path("abcd"))])
        win, matcher = make_matcher(workload, fix=fix)
        for vid, label in [(1, "a"), (2, "b"), (3, "c"), (4, "d")]:
            win.add_vertex(vid, label)
        feed_edge(win, matcher, 1, 2)   # fragment a-b
        feed_edge(win, matcher, 3, 4)   # disjoint fragment c-d
        feed_edge(win, matcher, 2, 3)   # joins them
        return matcher

    def test_fragment_join_with_fix_finds_full_motif(self):
        matcher = self.build_fragment_join(fix=True)
        assert any(m.size == 4 for m in matcher.matches())
        assert matcher.stats["regrown"] >= 1

    def test_fragment_join_without_fix_misses_full_motif(self):
        matcher = self.build_fragment_join(fix=False)
        sizes = {m.size for m in matcher.matches()}
        assert 4 not in sizes          # abcd never assembled
        assert 3 in sizes              # abc / bcd found by extension


class TestGroupsAndForgetting:
    def test_assignment_group_merges_overlaps(self):
        matcher = TestFigure3Regrow().build_figure3(fix=True)
        group = matcher.assignment_group(1, max_size=16)
        assert group == frozenset({1, 2, 3, 4})

    def test_assignment_group_respects_cap(self):
        matcher = TestFigure3Regrow().build_figure3(fix=True)
        group = matcher.assignment_group(3, max_size=3)
        # The 4-vertex merge is rejected; the 3-vertex match through 3 stays.
        assert group == frozenset({1, 2, 3})

    def test_vertex_without_matches_gets_singleton_group(self):
        win, matcher = make_matcher(abc_workload())
        win.add_vertex(42, "a")
        assert matcher.assignment_group(42, max_size=8) == frozenset({42})

    def test_forget_removes_all_touching_matches(self):
        matcher = TestFigure3Regrow().build_figure3(fix=True)
        matcher.forget({2})
        assert matcher.matches() == []  # every match contained vertex 2

    def test_forget_keeps_disjoint_matches(self):
        win, matcher = make_matcher(abc_workload())
        for vid, label in [(1, "a"), (2, "b"), (10, "a"), (11, "b")]:
            win.add_vertex(vid, label)
        feed_edge(win, matcher, 1, 2)
        feed_edge(win, matcher, 10, 11)
        matcher.forget({1})
        remaining = {m.vertices for m in matcher.matches()}
        assert remaining == {frozenset({10, 11})}

    def test_frequent_filter(self):
        # Threshold above every p-value: nothing is "frequent", groups are
        # singletons even though matches are tracked.
        win, matcher = make_matcher(abc_workload(), threshold=1.01)
        win.add_vertex(1, "a")
        win.add_vertex(2, "b")
        feed_edge(win, matcher, 1, 2)
        assert matcher.matches()  # tracked
        assert matcher.frequent_matches_containing(1) == []
        assert matcher.assignment_group(1, max_size=8) == frozenset({1})
