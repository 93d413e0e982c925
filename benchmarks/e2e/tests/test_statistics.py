"""The percentile rule, host-speed scaling, span self-time arithmetic
and compare verdicts."""

import compare
import hostspeed
import metrics
import pytest
from harness import (
    Scaled,
    Tracer,
    breakdown,
    latency_percentile,
    percentile,
    self_times,
    supported_percentile,
)


@pytest.mark.parametrize(
    ("count", "nominal", "expected"),
    [
        (1000, 99, 99),   # exactly ten samples beyond p99
        (999, 99, 98),    # one short: fall back a whole percentile
        (270, 95, 95),    # the ISSUE's ~270 writes support p95 ...
        (270, 99, 96),    # ... but not p99
        (200, 95, 95),
        (199, 95, 94),
        (20, 99, 50),     # ten beyond the median and no more
        (19, 99, 50),     # too few for any tail: the median
        (3, 95, 50),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, nominal, expected):
    assert supported_percentile(count, nominal) == expected


def test_ten_samples_really_lie_beyond_the_reported_value():
    samples = [float(i) for i in range(1, 1001)]
    measured = latency_percentile(samples, 99)
    assert measured.value == percentile(samples, 99) == 990.0
    assert sum(s > measured.value for s in samples) == 10
    assert "p99 of 1000" in measured.how


def test_timings_are_restated_at_nominal_host_speed():
    nominal = hostspeed.NOMINAL_MS
    trials = Scaled()
    trials.add(2.0, 2 * nominal, 2 * nominal)  # the host at half speed
    trials.add(1.0, nominal, nominal)
    trials.add(0.5, nominal / 3, nominal)      # bursts average to 2/3 nominal
    assert trials.values == pytest.approx([1.0, 1.0, 0.75])
    rate = trials.measured("1/s", convert=lambda seconds: 100 / seconds)
    assert (rate.value, rate.raw, rate.n) == (pytest.approx(100.0), 100.0, 3)
    # a window scaled as a whole: latencies times, rates over the factor
    slow = latency_percentile([10.0, 20.0, 30.0], 50, scale=0.5)
    assert (slow.value, slow.raw) == (10.0, 20.0)
    # a window with bursts made beside it; at least one is always made
    beside = Scaled()
    with beside.window():
        pass
    assert len(beside) == 1 and beside.scale > 0 and hostspeed.burst() > 0


def _span(span_id, name, start, end, parent=None, lane="main"):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "lane": lane, "workload": "w", "trial": None}


def test_self_time_is_duration_minus_children():
    spans = [
        _span(0, "run", 0.0, 10.0),
        _span(1, "ingest", 1.0, 4.0, parent=0),
        _span(2, "engine", 1.5, 3.5, parent=1),
        _span(3, "ingest", 5.0, 9.0, parent=0),
        # another thread's lane: its own root, overlapping the main lane
        _span(4, "query", 2.0, 8.0, lane="client-0"),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 1.0, 2: 2.0, 3: 4.0, 4: 6.0}
    # within a lane, self times add up to the lane root's duration
    assert sum(own[i] for i in (0, 1, 2, 3)) == pytest.approx(10.0)
    rows = {(r["lane"], r["name"]): r for r in breakdown(spans)}
    assert rows[("main", "ingest")]["calls"] == 2
    assert rows[("main", "ingest")]["self_s"] == pytest.approx(5.0)
    assert rows[("main", "ingest")]["total_s"] == pytest.approx(7.0)


def test_tracer_nests_by_thread_and_is_free_when_off():
    tracer = Tracer("w", enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner", trial=2):
            pass
    inner, outer = tracer.spans
    assert (inner["name"], inner["parent"], inner["trial"]) == ("inner", outer["id"], 2)
    assert outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    off = Tracer("w", enabled=False)
    with off.span("anything"):
        pass
    assert off.spans == []


def _side(median, q1, q3):
    return compare.Side(median, q1, q3, 5)


def test_compare_verdicts():
    lower = metrics.EndToEnd("latency_ms", "ms", metrics.LOWER, 0.10)
    higher = metrics.EndToEnd("rate", "1/s", metrics.HIGHER, 0.10)
    exact = metrics.EndToEnd("count", "count", metrics.LOWER, 0.10, exact=True)
    steady_a = _side(100, 99, 101)
    assert compare.verdict(lower, steady_a, _side(120, 119, 121), False)[1] == "worse"
    assert compare.verdict(lower, steady_a, _side(105, 104, 106), False)[1] == "within bound"
    assert compare.verdict(lower, steady_a, _side(80, 79, 81), False)[1] == "better"
    # worse by more than the bound, but too noisy to tell and overlapping
    assert compare.verdict(lower, _side(100, 85, 125), _side(115, 95, 135), False)[1] == "unresolved"
    # a throughput that fell is worse, one that rose is better
    assert compare.verdict(higher, steady_a, _side(80, 79, 81), False)[1] == "worse"
    assert compare.verdict(higher, steady_a, _side(120, 119, 121), False)[1] == "better"
    # a count must repeat exactly under equal seeds, and only then
    assert compare.verdict(exact, _side(0.25, 0.25, 0.25), _side(0.2501, 0.2501, 0.2501), True)[1] == "worse"
    assert compare.verdict(exact, _side(0.25, 0.25, 0.25), _side(0.2501, 0.2501, 0.2501), False)[1] == "within bound"
