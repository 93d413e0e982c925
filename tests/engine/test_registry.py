"""Tests for the method table (discovery, capabilities, errors)."""

from dataclasses import fields

import pytest

from repro.core.config import LoomConfig
from repro.engine.registry import (
    OFFLINE,
    STREAMING,
    PartitionRequest,
    UnknownPartitionerError,
    default_registry,
)
from repro.graph.labelled import LabelledGraph
from repro.stream.sources import stream_from_graph
from repro.workload import figure1_graph, figure1_workload

BUILTIN_STREAMING = {
    "hash", "random", "balanced", "chunking", "greedy", "ldg", "edg",
    "fennel", "loom", "loom_ta", "ta-ldg",
}
BUILTIN_OFFLINE = {"offline", "offline_wa"}


def _request(**overrides) -> PartitionRequest:
    graph = figure1_graph()
    defaults = dict(
        graph=graph,
        events=stream_from_graph(graph, ordering="natural"),
        k=2,
        capacity=5,
        workload=figure1_workload(),
        window_size=8,
        motif_threshold=0.6,
    )
    defaults.update(overrides)
    return PartitionRequest(**defaults)


class TestBuiltins:
    def test_every_builtin_registered(self):
        names = set(default_registry.names())
        assert BUILTIN_STREAMING | BUILTIN_OFFLINE <= names

    def test_kind_filters(self):
        specs = default_registry.specs()
        assert {s.name for s in specs if s.kind == STREAMING} >= BUILTIN_STREAMING
        assert {s.name for s in specs if s.kind == OFFLINE} >= BUILTIN_OFFLINE

    def test_workload_capability_metadata(self):
        needy = {s.name for s in default_registry.specs() if s.needs_workload}
        assert {"loom", "loom_ta", "ta-ldg", "offline_wa"} <= needy
        assert "ldg" not in needy

    @pytest.mark.parametrize("name", sorted(BUILTIN_STREAMING))
    def test_streaming_round_trip_by_name(self, name):
        """Every streaming built-in builds and places the figure-1 graph."""
        spec = default_registry.resolve(name)
        assert spec.is_streaming
        request = _request()
        partitioner = spec.build(request)
        assert partitioner is not None

    @pytest.mark.parametrize("name", sorted(BUILTIN_OFFLINE))
    def test_offline_round_trip_by_name(self, name):
        spec = default_registry.resolve(name)
        assert not spec.is_streaming
        assignment = spec.build(_request())
        assert assignment.num_assigned == figure1_graph().num_vertices

    def test_descriptions_present(self):
        for spec in default_registry.specs():
            assert spec.description, spec.name

    def test_membership(self):
        assert "ldg" in default_registry
        assert "metis" not in default_registry


class TestTable:
    def test_names_unique(self):
        names = [spec.name for spec in default_registry.specs()]
        assert len(names) == len(set(names))
        assert default_registry.names() == tuple(names)

    def test_every_kind_is_streaming_or_offline(self):
        for spec in default_registry.specs():
            assert spec.kind in (STREAMING, OFFLINE), spec.name

    @pytest.mark.parametrize("name", ["loom", "loom_ta"])
    def test_loom_options_are_the_config_fields_a_request_leaves_open(
        self, name
    ):
        # The fields the table's LOOM builder (registry._loom) fills itself.
        filled_by_loom_builder = {
            "k", "capacity", "window_size", "motif_threshold",
            "traversal_aware_singles",
        }
        config_fields = {f.name for f in fields(LoomConfig)}
        assert default_registry.resolve(name).options == (
            config_fields - filled_by_loom_builder
        )


class TestErrors:
    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError):
            default_registry.resolve("metis")

    def test_unknown_name_error_type(self):
        known = ", ".join(sorted(default_registry.names()))
        with pytest.raises(UnknownPartitionerError) as raised:
            default_registry.resolve("no-such-method")
        assert str(raised.value) == (
            f"unknown method 'no-such-method'; known methods: {known}"
        )

    def test_workload_requirement_enforced(self):
        spec = default_registry.resolve("loom")
        with pytest.raises(ValueError, match="needs a workload"):
            spec.check_request(_request(workload=None))


class TestRequest:
    def test_request_capacity_resolution(self):
        request = _request(capacity=None, k=2, slack=1.0)
        graph = LabelledGraph.path("abcd")
        request.graph = graph
        assert request.resolved_capacity() == 2

    def test_request_rng_is_stable(self):
        request = _request(seed=42)
        assert request.resolved_rng() is request.resolved_rng()
