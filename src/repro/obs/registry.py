"""Deterministic metrics: counters, gauges, bounded-bucket histograms.

One :class:`MetricsRegistry` owns every number the stack emits.  The
design constraints come from the rest of the repo:

- **Deterministic output.**  Snapshots list metrics and labelled series
  in sorted order, so two registries holding the same values render the
  same bytes -- both the canonical-JSON export and the Prometheus-style
  text exposition are byte-stable (the golden tests pin them).
- **Declared once, emitted anywhere.**  Every metric is declared
  up front (``counter``/``gauge``/``histogram``) with its help text and
  label schema; emitting against an undeclared name or with the wrong
  label keys raises immediately, as does a second declaration of a
  name or one that breaks the ``snake_case.dotted`` rule.
- **Mergeable.**  Worker processes report flat counter deltas over the
  mailbox protocol and whole snapshots merge across registries (the
  serve daemon folds each tenant session's snapshot into its own).
  Merge semantics are order-independent: counters and histogram
  buckets add, gauges take the maximum -- so the merged result does not
  depend on worker arrival order.

No wall clocks anywhere: durations are *observed into* histograms by
callers holding ``perf_counter`` deltas, the registry never reads time.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterable

#: Snapshot schema tag (bumped on layout changes, like the store's).
METRICS_SCHEMA = "loom-repro/metrics/v1"

#: Latency histogram bucket upper bounds, in seconds.  Bounded: values
#: above the last bound land in the implicit +Inf bucket.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: The ``snake_case.dotted`` naming rule, checked at declaration:
#: at least two dot-separated segments, each ``[a-z][a-z0-9_]*``.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

KINDS = ("counter", "gauge", "histogram")


class MetricError(ValueError):
    """A metric was declared or emitted against its own declaration."""


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """One declared metric: the self-describing metadata docs consume."""

    name: str
    kind: str
    help: str
    labels: tuple[str, ...] = ()
    unit: str = ""
    buckets: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not METRIC_NAME_RE.match(self.name):
            raise MetricError(
                f"metric name {self.name!r} is not snake_case.dotted"
            )
        if self.kind not in KINDS:
            raise MetricError(f"unknown metric kind {self.kind!r}")
        if not self.help:
            raise MetricError(f"metric {self.name!r} needs help text")
        if self.kind == "histogram":
            bounds = tuple(self.buckets)
            if not bounds or list(bounds) != sorted(set(bounds)):
                raise MetricError(
                    f"histogram {self.name!r} needs strictly increasing "
                    f"bucket bounds"
                )


class _Histogram:
    """Bounded-bucket histogram state for one labelled series."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        # One slot per bound plus the +Inf overflow slot.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def merge(self, counts: Iterable[int], total: float, count: int) -> None:
        incoming = list(counts)
        if len(incoming) != len(self.counts):
            raise MetricError("histogram bucket layouts differ; cannot merge")
        for index, extra in enumerate(incoming):
            self.counts[index] += extra
        self.total += total
        self.count += count


_LabelKey = tuple[tuple[str, str], ...]


def _label_key(spec: MetricSpec, labels: dict[str, Any]) -> _LabelKey:
    if tuple(sorted(labels)) != tuple(sorted(spec.labels)):
        raise MetricError(
            f"metric {spec.name!r} takes labels {sorted(spec.labels)}, "
            f"got {sorted(labels)}"
        )
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class MetricsRegistry:
    """Every counter, gauge and histogram the stack emits, in one place.

    Declaration (``counter``/``gauge``/``histogram``) is separate from
    emission (``inc``/``set``/``observe``): the catalogue module
    (:mod:`repro.obs.catalog`) declares every metric exactly once, and
    instrumentation sites emit by name.  Thread-safe -- the serve
    daemon's tenant executors share one registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._specs: dict[str, MetricSpec] = {}
        self._values: dict[str, dict[_LabelKey, float]] = {}
        self._histograms: dict[str, dict[_LabelKey, _Histogram]] = {}

    # -- declaration ---------------------------------------------------
    def _declare(self, spec: MetricSpec) -> None:
        with self._lock:
            if spec.name in self._specs:
                raise MetricError(
                    f"metric {spec.name!r} is already registered"
                )
            self._specs[spec.name] = spec
            if spec.kind == "histogram":
                self._histograms[spec.name] = {}
            else:
                self._values[spec.name] = {}

    def counter(
        self, name: str, help: str, *, labels: tuple[str, ...] = (),
        unit: str = "",
    ) -> None:
        """Declare a monotonic counter."""
        self._declare(MetricSpec(name, "counter", help, labels, unit))

    def gauge(
        self, name: str, help: str, *, labels: tuple[str, ...] = (),
        unit: str = "",
    ) -> None:
        """Declare a point-in-time gauge."""
        self._declare(MetricSpec(name, "gauge", help, labels, unit))

    def histogram(
        self, name: str, help: str, *, labels: tuple[str, ...] = (),
        unit: str = "s", buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        """Declare a bounded-bucket histogram (latencies, mostly)."""
        self._declare(
            MetricSpec(name, "histogram", help, labels, unit, tuple(buckets))
        )

    # -- introspection -------------------------------------------------
    def specs(self) -> tuple[MetricSpec, ...]:
        with self._lock:
            return tuple(self._specs[name] for name in sorted(self._specs))

    def names(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._specs)

    def _spec(self, name: str, *kinds: str) -> MetricSpec:
        spec = self._specs.get(name)
        if spec is None:
            raise MetricError(f"metric {name!r} is not registered")
        if kinds and spec.kind not in kinds:
            raise MetricError(
                f"metric {name!r} is a {spec.kind}, not {'/'.join(kinds)}"
            )
        return spec

    # -- emission ------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to a counter series (must be >= 0)."""
        if amount < 0:
            raise MetricError(f"counter {name!r} cannot decrease")
        with self._lock:
            spec = self._spec(name, "counter")
            series = self._values[name]
            key = _label_key(spec, labels)
            series[key] = series.get(key, 0.0) + amount

    def set(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge series to ``value``."""
        with self._lock:
            spec = self._spec(name, "gauge")
            self._values[name][_label_key(spec, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into a histogram series."""
        with self._lock:
            spec = self._spec(name, "histogram")
            series = self._histograms[name]
            key = _label_key(spec, labels)
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = _Histogram(spec.buckets)
            histogram.observe(value)

    def set_value(self, name: str, value: float, **labels: Any) -> None:
        """Overwrite a counter/gauge series (scrape-style collection).

        Pull-based collection reads an authoritative source (the
        engine's cumulative stats, the WAL's record count) and writes
        the *absolute* value; ``inc`` is for discrete events with no
        authoritative home.
        """
        with self._lock:
            spec = self._spec(name, "counter", "gauge")
            self._values[name][_label_key(spec, labels)] = float(value)

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge series (0.0 if never set)."""
        with self._lock:
            spec = self._spec(name, "counter", "gauge")
            return self._values[name].get(_label_key(spec, labels), 0.0)

    # -- snapshot / merge / reset --------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-plain snapshot of every declared metric, sorted.

        Metrics with no emissions yet appear with empty ``series`` --
        the snapshot is self-describing, covering the whole catalogue.
        """
        with self._lock:
            metrics: dict[str, Any] = {}
            for name in sorted(self._specs):
                spec = self._specs[name]
                entry: dict[str, Any] = {
                    "kind": spec.kind,
                    "help": spec.help,
                    "labels": list(spec.labels),
                    "unit": spec.unit,
                }
                if spec.kind == "histogram":
                    entry["buckets"] = list(spec.buckets)
                    entry["series"] = [
                        {
                            "labels": dict(key),
                            "counts": list(histogram.counts),
                            "sum": histogram.total,
                            "count": histogram.count,
                        }
                        for key, histogram in sorted(
                            self._histograms[name].items()
                        )
                    ]
                else:
                    entry["series"] = [
                        {"labels": dict(key), "value": value}
                        for key, value in sorted(self._values[name].items())
                    ]
                metrics[name] = entry
            return {"schema": METRICS_SCHEMA, "metrics": metrics}

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram buckets add; gauges keep the maximum of
        the two sides (the only order-independent choice).  Metrics the
        snapshot declares but this registry does not are adopted with
        the snapshot's own spec.
        """
        if snapshot.get("schema") != METRICS_SCHEMA:
            raise MetricError(
                f"cannot merge snapshot with schema "
                f"{snapshot.get('schema')!r} (want {METRICS_SCHEMA!r})"
            )
        for name, entry in snapshot.get("metrics", {}).items():
            if name not in self._specs:
                self._declare(
                    MetricSpec(
                        name,
                        entry["kind"],
                        entry["help"],
                        tuple(entry.get("labels", ())),
                        entry.get("unit", ""),
                        tuple(entry.get("buckets", ())),
                    )
                )
            with self._lock:
                spec = self._specs[name]
                if spec.kind != entry["kind"]:
                    raise MetricError(
                        f"metric {name!r} is a {spec.kind} here but a "
                        f"{entry['kind']} in the merged snapshot"
                    )
                for row in entry["series"]:
                    key = _label_key(spec, row["labels"])
                    if spec.kind == "histogram":
                        series = self._histograms[name]
                        histogram = series.get(key)
                        if histogram is None:
                            histogram = series[key] = _Histogram(spec.buckets)
                        histogram.merge(
                            row["counts"], row["sum"], row["count"]
                        )
                    elif spec.kind == "counter":
                        values = self._values[name]
                        values[key] = values.get(key, 0.0) + row["value"]
                    else:  # gauge: max is order-independent
                        values = self._values[name]
                        values[key] = max(
                            values.get(key, row["value"]), row["value"]
                        )

    def merge_delta(
        self, entries: Iterable[tuple[str, dict[str, Any], float]]
    ) -> None:
        """Fold a flat counter delta (the worker wire format) in.

        Each entry is ``(name, labels, amount)``.  Only declared
        counters are accepted: a name the catalogue does not know is a
        protocol drift bug, surfaced loudly rather than absorbed.
        """
        for name, labels, amount in entries:
            with self._lock:
                spec = self._spec(name, "counter")
                key = _label_key(spec, labels)
                series = self._values[name]
                series[key] = series.get(key, 0.0) + amount

    def reset(self) -> None:
        """Zero every series; declarations survive."""
        with self._lock:
            for series in self._values.values():
                series.clear()
            for histograms in self._histograms.values():
                histograms.clear()


# ---------------------------------------------------------------------
# Exposition formats.  Both operate on snapshots (plain dicts), so the
# serve client can render what came over the wire without a registry.
# ---------------------------------------------------------------------

def render_json(snapshot: dict[str, Any]) -> str:
    """Canonical-JSON exposition: sorted keys, no whitespace."""
    return json.dumps(
        snapshot, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _prom_name(name: str) -> str:
    return name.replace(".", "_")


def _prom_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _prom_bound(bound: float) -> str:
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


def _prom_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prom(snapshot: dict[str, Any]) -> str:
    """Prometheus-style text exposition of a snapshot.

    Dots become underscores (Prometheus names reject dots); histograms
    expose cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.  Only series with data are rendered -- an empty metric
    still gets its HELP/TYPE header, so scrapes see the full catalogue.
    """
    lines: list[str] = []
    for name, entry in sorted(snapshot.get("metrics", {}).items()):
        flat = _prom_name(name)
        lines.append(f"# HELP {flat} {entry['help']}")
        lines.append(f"# TYPE {flat} {entry['kind']}")
        if entry["kind"] == "histogram":
            bounds = entry["buckets"]
            for row in entry["series"]:
                cumulative = 0
                for bound, count in zip(
                    [*bounds, "+Inf"], row["counts"], strict=True
                ):
                    cumulative += count
                    labels = dict(row["labels"])
                    labels["le"] = (
                        bound if bound == "+Inf" else _prom_bound(bound)
                    )
                    lines.append(
                        f"{flat}_bucket{_prom_labels(labels)} {cumulative}"
                    )
                lines.append(
                    f"{flat}_sum{_prom_labels(row['labels'])} "
                    f"{_prom_number(row['sum'])}"
                )
                lines.append(
                    f"{flat}_count{_prom_labels(row['labels'])} "
                    f"{row['count']}"
                )
        else:
            for row in entry["series"]:
                lines.append(
                    f"{flat}{_prom_labels(row['labels'])} "
                    f"{_prom_number(row['value'])}"
                )
    return "\n".join(lines) + "\n"
