"""Registry semantics: buckets, merges, resets, expositions, tracing.

Everything here is deterministic by construction -- no clocks, no
processes.  The golden exposition tests pin exact bytes: a formatting
change that alters them is a wire-format change and should look like
one in review.
"""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    SpanTracer,
    build_registry,
    metric_names,
    render_json,
    render_prom,
)
from repro.obs.tracing import SPAN_METRIC


def fresh():
    registry = MetricsRegistry()
    registry.counter("t.hits", "hits", labels=("kind",))
    registry.counter("t.total", "total")
    registry.gauge("t.depth", "depth")
    registry.histogram("t.lat", "latency", buckets=(0.1, 1.0, 10.0))
    return registry


def series(snapshot, name):
    return snapshot["metrics"][name]["series"]


class TestDeclaration:
    def test_names_must_be_dotted_snake_case(self):
        registry = MetricsRegistry()
        for bad in ("flat", "Caps.name", "a.", "a..b", "a.B", "9a.b"):
            with pytest.raises(MetricError):
                registry.counter(bad, "help")

    def test_double_declaration_raises(self):
        registry = fresh()
        with pytest.raises(MetricError):
            registry.counter("t.hits", "again")

    def test_kind_mismatch_on_emission(self):
        registry = fresh()
        with pytest.raises(MetricError):
            registry.inc("t.depth")
        with pytest.raises(MetricError):
            registry.observe("t.total", 1.0)
        with pytest.raises(MetricError):
            registry.inc("t.unknown")

    def test_label_schema_is_checked(self):
        registry = fresh()
        with pytest.raises(MetricError):
            registry.inc("t.hits")  # missing the declared label
        with pytest.raises(MetricError):
            registry.inc("t.total", kind="x")  # undeclared label

    def test_counters_cannot_decrease(self):
        registry = fresh()
        with pytest.raises(MetricError):
            registry.inc("t.total", -1.0)

    def test_histogram_bounds_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.histogram("t.bad", "x", buckets=(1.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("t.bad", "x", buckets=())


class TestBuckets:
    def test_boundary_values_land_in_their_bound_bucket(self):
        # bisect_left: a value exactly on a bound belongs to that
        # bound's bucket (le semantics), one ulp above spills over.
        registry = fresh()
        registry.observe("t.lat", 0.1)
        registry.observe("t.lat", 0.100001)
        registry.observe("t.lat", 10.0)
        registry.observe("t.lat", 11.0)  # +Inf overflow
        [row] = series(registry.snapshot(), "t.lat")
        assert row["counts"] == [1, 1, 1, 1]
        assert row["count"] == 4
        assert row["sum"] == pytest.approx(21.200001)

    def test_default_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestMergeSemantics:
    def test_counters_add_and_gauges_max(self):
        a, b = fresh(), fresh()
        a.inc("t.total", 3)
        b.inc("t.total", 4)
        a.set("t.depth", 7)
        b.set("t.depth", 5)
        a.merge_snapshot(b.snapshot())
        assert a.value("t.total") == 7.0
        assert a.value("t.depth") == 7.0  # max, not last-write

    def test_labelled_series_merge_independently(self):
        a, b = fresh(), fresh()
        a.inc("t.hits", 2, kind="local")
        b.inc("t.hits", 3, kind="local")
        b.inc("t.hits", 5, kind="remote")
        a.merge_snapshot(b.snapshot())
        assert a.value("t.hits", kind="local") == 5.0
        assert a.value("t.hits", kind="remote") == 5.0

    def test_merge_is_order_independent(self):
        parts = []
        for hits in (1, 2, 3):
            registry = fresh()
            registry.inc("t.hits", hits, kind="local")
            # Binary-exact values: float addition stays associative.
            registry.observe("t.lat", float(hits) / 4)
            parts.append(registry.snapshot())
        forward, backward = fresh(), fresh()
        for snap in parts:
            forward.merge_snapshot(snap)
        for snap in reversed(parts):
            backward.merge_snapshot(snap)
        assert forward.snapshot() == backward.snapshot()

    def test_histogram_buckets_add(self):
        a, b = fresh(), fresh()
        a.observe("t.lat", 0.05)
        b.observe("t.lat", 0.05)
        b.observe("t.lat", 5.0)
        a.merge_snapshot(b.snapshot())
        [row] = series(a.snapshot(), "t.lat")
        assert row["counts"] == [2, 0, 1, 0]
        assert row["count"] == 3

    def test_merge_adopts_unknown_metrics(self):
        donor = MetricsRegistry()
        donor.counter("x.new", "adopted")
        donor.inc("x.new", 2)
        target = fresh()
        target.merge_snapshot(donor.snapshot())
        assert target.value("x.new") == 2.0

    def test_merge_rejects_foreign_schema_and_kind_drift(self):
        registry = fresh()
        with pytest.raises(MetricError):
            registry.merge_snapshot({"schema": "nope", "metrics": {}})
        drifted = MetricsRegistry()
        drifted.gauge("t.total", "total")  # counter here, gauge there
        with pytest.raises(MetricError):
            registry.merge_snapshot(drifted.snapshot())

    def test_merge_delta_adds_and_rejects_undeclared(self):
        registry = fresh()
        registry.merge_delta(
            [
                ("t.hits", {"kind": "local"}, 2.0),
                ("t.hits", {"kind": "local"}, 3.0),
                ("t.total", {}, 1.0),
            ]
        )
        assert registry.value("t.hits", kind="local") == 5.0
        assert registry.value("t.total") == 1.0
        with pytest.raises(MetricError):
            registry.merge_delta([("t.nope", {}, 1.0)])

    def test_reset_zeroes_values_but_keeps_declarations(self):
        registry = fresh()
        registry.inc("t.total", 9)
        registry.observe("t.lat", 0.2)
        registry.reset()
        assert registry.value("t.total") == 0.0
        snap = registry.snapshot()
        assert series(snap, "t.lat") == []
        assert "t.lat" in snap["metrics"]  # still declared
        registry.inc("t.total")  # and still writable


class TestExpositions:
    def golden(self):
        registry = fresh()
        registry.inc("t.hits", 2, kind="local")
        registry.inc("t.hits", 1, kind="remote")
        registry.set("t.depth", 3)
        registry.observe("t.lat", 0.05)
        registry.observe("t.lat", 2.0)
        return registry.snapshot()

    def test_render_json_is_canonical(self):
        text = render_json(self.golden())
        assert text == render_json(self.golden())  # byte-stable
        assert json.loads(text)["schema"] == "loom-repro/metrics/v1"
        assert ": " not in text and ", " not in text  # no whitespace

    def test_render_prom_golden(self):
        assert render_prom(self.golden()) == (
            "# HELP t_depth depth\n"
            "# TYPE t_depth gauge\n"
            "t_depth 3\n"
            "# HELP t_hits hits\n"
            "# TYPE t_hits counter\n"
            't_hits{kind="local"} 2\n'
            't_hits{kind="remote"} 1\n'
            "# HELP t_lat latency\n"
            "# TYPE t_lat histogram\n"
            't_lat_bucket{le="0.1"} 1\n'
            't_lat_bucket{le="1"} 1\n'
            't_lat_bucket{le="10"} 2\n'
            't_lat_bucket{le="+Inf"} 2\n'
            "t_lat_sum 2.05\n"
            "t_lat_count 2\n"
            "# HELP t_total total\n"
            "# TYPE t_total counter\n"
        )


class TestCatalogue:
    def test_build_registry_declares_the_published_names(self):
        registry = build_registry()
        assert registry.names() == metric_names()
        assert "executor.traversals" in registry.names()

    def test_catalogue_snapshot_is_self_describing(self):
        snap = build_registry().snapshot()
        assert set(snap["metrics"]) == set(metric_names())
        assert all(
            entry["help"] for entry in snap["metrics"].values()
        )


class TestTracer:
    def test_fake_clock_pins_exact_durations(self):
        ticks = iter(range(100))
        registry = build_registry()
        tracer = SpanTracer(clock=lambda: next(ticks), registry=registry)
        with tracer.span("outer", command="ingest"):
            pass
        [span] = tracer.spans()
        assert span.name == "outer"
        assert span.seconds == 1  # one tick elapsed
        assert dict(span.labels) == {"command": "ingest"}
        [row] = series(registry.snapshot(), SPAN_METRIC)
        assert row["labels"] == {"span": "outer"}
        assert row["count"] == 1

    def test_ring_is_bounded(self):
        tracer = SpanTracer(clock=lambda: 0.0, limit=2)
        for name in ("a.one", "b.two", "c.three"):
            with tracer.span(name):
                pass
        assert [s.name for s in tracer.spans()] == ["b.two", "c.three"]

    def test_exceptions_still_record_the_span(self):
        tracer = SpanTracer(clock=lambda: 0.0)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.spans()[-1].name == "boom"
