"""The experiment grid: one table declaration, one Session-backed driver.

A :class:`TableSpec` declares one result table: its title, its columns
and -- for the partition-and-evaluate experiments -- the grid of cells
behind it (dataset x ordering x k x window x ``T`` x LOOM option
overrides x method x replica budget, nested in that order).  ``fast``
and full mode are two value sets of the *same* grid (:class:`Sized`).
:func:`run_grid` runs each cell the only way the suite knows:
``Cluster.open(config, workload).ingest(events, graph=g)``, then one
*measure* over the live session.  Every cell yields a flat record (axis
values + measured metrics); a table row is that record projected onto
the declared columns, so the columns are the schema.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro import datasets
from repro.api.cluster import Cluster
from repro.api.config import ClusterConfig
from repro.api.results import IngestReport
from repro.api.session import Session
from repro.bench.tables import Table
from repro.graph import LabelledGraph, generators
from repro.stream.sources import stream_from_graph
from repro.workload import PatternQuery, Workload, figure1_graph, figure1_workload

Record = dict[str, Any]


@dataclass(frozen=True)
class Sized:
    """One grid value per mode: ``fast`` (tier-1, CLI ``--fast``) and full."""

    fast: Any
    full: Any


@dataclass(frozen=True)
class Case:
    """One dataset of a grid; ``params`` override the cell's axis values
    (a per-dataset ``k`` or ``T``) and flow into its record."""

    label: str
    graph: LabelledGraph
    workload: Workload | None = None
    params: Mapping[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Measures: what one ingested session contributes to its cell's record
# ----------------------------------------------------------------------
def _sampled(session: Session, workload: Workload, m: Record, rng_seed: int) -> Record:
    report = session.run_workload(
        workload, executions=m["executions"], rng=random.Random(rng_seed)
    )
    return {
        "p_remote": report.remote_probability,
        "remote_per_query": report.remote_per_query,
        "local_rate": report.fully_local_rate,
        "cost": report.mean_cost,
    }


def quality(session: Session, _report: IngestReport, m: Record, seed: int):
    """Structural quality and, with ``executions``, the workload metrics."""
    stats = session.stats()
    loom = stats.partitioner_counters or {}
    sampled = _sampled(session, m["case"].workload, m, seed + 7) if m["executions"] else {}
    yield {
        "cut": stats.cut_fraction,
        "rho": stats.max_load,
        "max_size": max(stats.sizes),
        "min_size": min(stats.sizes),
        "capacity": stats.capacity,
        "groups": loom.get("groups"),
        "group_vertices": loom.get("group_vertices"),
        "regrown_matches": (stats.matcher_counters or {}).get("regrown"),
        **sampled,
    }


def per_query(session: Session, _report: IngestReport, m: Record, seed: int):
    """One record per query of the workload, each sampled on its own."""
    for query in m["case"].workload:
        yield {"query": query.name, **_sampled(session, Workload([query]), m, seed + 9)}


def throughput(session: Session, report: IngestReport, _m: Record, _seed: int):
    """Engine-level vertices/second; wall clock for the offline pipeline."""
    seconds = session.stats().engine_seconds or report.seconds
    yield {"vertices_per_second": round(report.vertices / seconds)}


def replication(session: Session, _report: IngestReport, m: Record, seed: int):
    """Hotspot replication under a budget of ``n // budget_divisor`` replicas."""
    divisor = m["budget_divisor"]
    budget = m["case"].graph.num_vertices // divisor if divisor else 0
    report = session.replicate(
        budget=budget, executions=m["executions"], rng=random.Random(seed + 17)
    )
    yield {
        "budget": budget,
        "replicas_added": report.replicas_added,
        "replication_factor": report.replication_factor,
        "p_remote": report.remote_probability_after,
    }


# ----------------------------------------------------------------------
# The declaration and its driver
# ----------------------------------------------------------------------
def _no_extras(_row: Record) -> Record:
    return {}


@dataclass(frozen=True)
class TableSpec:
    """One result table.  Without ``cases`` the experiment's custom body
    fills it; with them :func:`run_grid` does, one cell per combination
    of the axes below (each a value, a tuple of values, or a
    :class:`Sized` of either)."""

    title: str
    columns: tuple[str, ...]
    #: ``(seed, size) -> datasets``, called at run time only.
    cases: Callable[[int, Any], list[Case]] | None = None
    size: Any = None
    #: The stream is serialised with ``random.Random(seed + salt)``.
    salt: int = 0
    ordering: Any = "random"
    k: Any = 8
    window: Any = 128
    threshold: Any = 0.2
    #: LOOM ``method_options`` overrides; their keys become record fields.
    options: Any = field(default_factory=dict)
    method: Any = ()
    budget_divisor: Any = 0
    #: Sampled query executions per measurement (0: structural only).
    executions: Any = 0
    measure: Callable[[Session, IngestReport, Record, int], Iterable[Record]] = quality
    #: Spread this metric over one column per method (rows keyed by the
    #: remaining declared columns) instead of one row per record.
    pivot: str | None = None
    #: Extra columns computed from the finished row (in a long table the
    #: row's whole record).
    derive: Callable[[Record], Record] = _no_extras


AXES = ("ordering", "k", "window", "threshold", "options", "method", "budget_divisor")


def pick(value: Any, fast: bool) -> Any:
    if isinstance(value, Sized):
        return value.fast if fast else value.full
    return value


def _values(value: Any, fast: bool) -> tuple:
    value = pick(value, fast)
    return value if isinstance(value, tuple) else (value,)


def run_grid(spec: TableSpec, table: Table, seed: int, fast: bool) -> None:
    """Run every cell of ``spec`` through a fresh session; fill ``table``."""
    records: list[Record] = []
    axes = [_values(getattr(spec, axis), fast) for axis in AXES]
    for case, combo in itertools.product(
        spec.cases(seed, pick(spec.size, fast)), itertools.product(*axes)
    ):
        m: Record = {
            "graph": case.label,
            "case": case,
            "salt": spec.salt,
            "executions": pick(spec.executions, fast),
            **dict(zip(AXES, combo, strict=True)),
            **case.params,
        }
        m.update(m["options"])
        events = stream_from_graph(
            case.graph, ordering=m["ordering"], rng=random.Random(seed + m["salt"])
        )
        config = ClusterConfig(
            partitions=m["k"],
            method=m["method"],
            window_size=m["window"],
            motif_threshold=m["threshold"],
            seed=seed,
            method_options=dict(m["options"]),
        )
        with Cluster.open(config, workload=case.workload) as session:
            report = session.ingest(events, graph=case.graph)
            records += [{**m, **r} for r in spec.measure(session, report, m, seed)]
    if spec.pivot is None:
        rows = [{c: m[c] for c in spec.columns if c in m} | spec.derive(m) for m in records]
    else:
        pivoted: dict[tuple, Record] = {}
        for m in records:
            keyed = {c: m[c] for c in spec.columns if c in m}
            pivoted.setdefault(tuple(keyed.values()), keyed)[m["method"]] = m[spec.pivot]
        rows = [row | spec.derive(row) for row in pivoted.values()]
    for row in rows:
        table.add_row(**row)


# ----------------------------------------------------------------------
# Datasets of the evaluation (built per run, never at import)
# ----------------------------------------------------------------------
def motifs(seed: int, instances: int) -> list[Case]:
    """The canonical workload-correlated testbed (planted abc + abab)."""
    return [Case("motifs", *datasets.motif_testbed(seed, instances=instances))]


def structural_graphs(seed: int, n: int) -> list[Case]:
    """E1: four unlabelled-structure families drawn from one RNG."""
    rng = random.Random(seed)
    return [
        Case("ba", generators.barabasi_albert(n, 3, rng=rng)),
        Case("ws", generators.watts_strogatz(n, 6, 0.1, rng=rng)),
        Case("planted", generators.planted_partition(n, 8, 24.0 / n, 0.8 / n, rng=rng)),
        Case("er", generators.erdos_renyi(n, 6.0 / n, rng=rng)),
    ]


def property_graphs(seed: int, scale: float) -> list[Case]:
    """E2: the motif testbed plus four property-graph domains.

    The motif threshold T is the paper's per-workload tuning knob: the
    planted workload has a hot 0.75 / cold 0.25 split, so a low T keeps
    both motifs; the hub-heavy domains work best when T focuses grouping
    on the head of the Zipf query mix.
    """
    rng = random.Random(seed)

    def n(full: int) -> int:
        return int(full * scale)

    testbed = datasets.motif_testbed(seed, instances=n(50), noise=n(100))
    head = {"threshold": 0.4}
    return [
        Case("motifs", *testbed, {"threshold": 0.2}),
        Case("social", datasets.social_network(n(120), rng=rng),
             datasets.social_workload(), head),
        Case("fraud", datasets.fraud_network(n(100), n_rings=6, rng=rng),
             datasets.fraud_workload(), head),
        Case("citation", datasets.citation_network(n(130), rng=rng),
             datasets.citation_workload(), head),
        Case("protein", datasets.protein_network(n(30), n_complexes=n(20), rng=rng),
             datasets.protein_workload(), head),
    ]


def query_shapes(seed: int, labels: tuple[str, ...]) -> list[Case]:
    """E8: figure 1 with the workload skewed toward q1 (the square is the
    hot motif LOOM should keep local), and a social graph."""
    build = {
        "figure1": lambda: Case("figure1", figure1_graph(),
                                figure1_workload(q1_frequency=4.0),
                                {"k": 2, "threshold": 0.6}),
        "social": lambda: Case("social",
                               datasets.social_network(100, rng=random.Random(seed)),
                               datasets.social_workload()),
    }
    return [build[label]() for label in labels]


def scaling_graphs(seed: int, sizes: tuple[int, ...]) -> list[Case]:
    """E9: Barabasi-Albert graphs of growing size under one workload."""
    _, workload = datasets.motif_testbed(seed, instances=10, noise=0)
    return [
        Case(str(n), generators.barabasi_albert(n, 3, rng=random.Random(seed + n)),
             workload, {"n": n, "salt": n + 1})
        for n in sizes
    ]


def _planted(name: str, motif: LabelledGraph, seed: int, instances: int) -> list[Case]:
    graph = generators.plant_motifs(
        [(motif, instances)], noise_vertices=40, noise_edge_probability=0.004,
        rng=random.Random(seed),
    )
    return [Case(name, graph, Workload([PatternQuery(name, motif)]))]


def planted_paths(seed: int, instances: int) -> list[Case]:
    """A1: abcd paths in sparse noise, queried by that path alone."""
    return _planted("abcd", LabelledGraph.path("abcd"), seed, instances)


def planted_squares(seed: int, instances: int) -> list[Case]:
    """A3: abab squares in sparse noise, queried by the square alone."""
    return _planted("square", LabelledGraph.cycle("abab"), seed, instances)
