"""Experiments E1-E13 and ablations A1-A4, one declaration each.

The paper is a progress paper without an evaluation section; these
tables *are* the evaluation it promises.  Each :class:`Experiment`
states the claim it checks, declares its tables (and, for the
partition-and-evaluate experiments, the grid behind them -- see
:mod:`repro.bench.grid`), names its wall-clock columns and carries the
*shape* the paper predicts (who wins, which way the trend goes) as a
predicate over the finished tables.  Absolute numbers are environment
noise; shapes are the reproduction.

``python -m repro.bench`` prints the claim-vs-reproduced
catalogue committed as ``docs/experiments.md``.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.bench import custom, grid
from repro.bench.grid import Sized, TableSpec
from repro.bench.tables import Table
from repro.tpstry import TPSTryPP


@dataclass(frozen=True)
class Experiment:
    id: str
    title: str
    #: The claim of the paper this experiment checks, with its section.
    claim: str
    tables: tuple[TableSpec, ...]
    #: Raises ``AssertionError`` when the tables miss the predicted shape.
    shape: Callable[..., None]
    #: Fills the tables that declare no grid.
    body: Callable[[list[Table], int, bool], None] | None = None
    #: Wall-clock columns: excluded from determinism checks and digests.
    timing: frozenset[str] = frozenset()

    def run(self, seed: int, fast: bool) -> list[Table]:
        tables = [Table(spec.title, spec.columns) for spec in self.tables]
        for spec, table in zip(self.tables, tables, strict=True):
            if spec.cases is not None:
                grid.run_grid(spec, table, seed, fast)
        if self.body is not None:
            self.body(tables, seed, fast)
        return tables

    def verdict(self, tables: list[Table]) -> str:
        try:
            self.shape(*tables)
        except AssertionError:
            return "not reproduced"
        return "reproduced"

    def digest(self, tables: list[Table]) -> str:
        """sha256[:12] over titles, columns and every non-timing cell."""
        payload = [
            [t.title, t.columns]
            + [[repr(row[c]) for c in t.columns if c not in self.timing] for row in t.rows]
            for t in tables
        ]
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# Shapes (helpers first)
# ----------------------------------------------------------------------
_RATES = ("hash", "ldg", "fennel", "loom", "offline")


def _rows(table: Table, **filters: object) -> list[dict[str, object]]:
    return [r for r in table.rows if all(r[k] == v for k, v in filters.items())]


def _by(table: Table, key: str, value: str | None = None, **filters: object) -> dict:
    """``{row[key]: row}`` (or ``row[value]``) over the matching rows."""
    return {r[key]: r[value] if value else r for r in _rows(table, **filters)}


def _shape_e1(table: Table) -> None:
    for row in table.rows:
        assert row["ldg"] < row["hash"], f"LDG must beat hash on {row['graph']}"
        assert row["offline"] <= row["hash"]
    # Structured graphs see large reductions; ER (no structure) the least.
    assert max(table.column("ldg_vs_hash_reduction")) > 0.4


def _shape_e2(table: Table) -> None:
    for graph in set(table.column("graph")):
        p = _by(table, "method", "p_remote", graph=graph)
        assert p["loom"] < p["hash"], f"LOOM must beat hash on {graph}"
        assert p["ldg"] < p["hash"]
    # On the motif-planted case (maximal workload correlation) LOOM must
    # also beat plain LDG -- the paper's core contribution.
    motifs = _by(table, "method", "p_remote", graph="motifs")
    assert motifs["loom"] < motifs["ldg"]
    # The hard capacity is ceil(slack * n / k), so on small graphs rho
    # can exceed the 1.2 slack by up to k/n of rounding.
    assert all(rho <= 1.2 + 0.1 for rho in table.column("rho"))


def _shape_e3(table: Table) -> None:
    # Hash is ordering-independent: its cut varies only by sampling noise.
    hash_cuts = [r["cut"] for r in _rows(table, method="hash")]
    assert max(hash_cuts) - min(hash_cuts) < 0.08
    # Greedy heuristics are ordering-sensitive (the section 3.1 point).
    ldg_cuts = [r["cut"] for r in _rows(table, method="ldg")]
    assert max(ldg_cuts) - min(ldg_cuts) > 0.01
    for ordering in set(table.column("ordering")):
        p = _by(table, "method", "p_remote", ordering=ordering)
        assert p["loom"] <= p["hash"], f"LOOM lost to hash under {ordering}"


def _shape_e4(table: Table, _reference: Table) -> None:
    rows = sorted(table.rows, key=lambda r: r["window"])
    assert rows[0]["groups"] == 0  # window=1: no motif can assemble
    assert rows[-1]["groups"] > 0
    assert rows[-1]["p_remote"] < rows[0]["p_remote"]
    groups = [r["groups"] for r in rows]
    assert groups == sorted(groups), "group activity grows with the window"


def _shape_e5(table: Table) -> None:
    rows = sorted(table.rows, key=lambda r: r["threshold"])
    assert rows[-1]["threshold"] > 1.0
    assert rows[-1]["frequent_motifs"] == 0
    assert rows[-1]["groups"] == 0
    counts = [r["frequent_motifs"] for r in rows]
    assert counts == sorted(counts, reverse=True)
    assert rows[0]["groups"] > 0


def _shape_e6(table: Table) -> None:
    # The hard constraint is the capacity (ceil(slack * n / k)); rho may
    # exceed the slack itself only by the ceil rounding.
    for row in table.rows:
        assert row["max_size"] <= row["capacity"], f"{row['method']} broke capacity"
    for row in _rows(table, method="balanced"):
        assert row["max_size"] - row["min_size"] <= 1


def _shape_e7(collisions: Table, build: Table, precision: Table) -> None:
    (crow,) = collisions.rows
    assert crow["pairs"] > 1000
    assert crow["collisions"] == 0
    # Soundness direction: signature equality covers all isomorphic pairs.
    assert crow["signature_equal_pairs"] >= crow["isomorphic_pairs"]
    for row in build.rows:
        assert row["build_seconds"] < 2.0
        assert row["nodes"] > row["queries"]
    (prow,) = precision.rows
    assert prow["matches_checked"] > 0
    assert prow["precision"] == 1.0


def _shape_e8(table: Table) -> None:
    assert set(_by(table, "query", graph="figure1")) == {"q1", "q2", "q3"}
    # The workload is skewed toward q1; LOOM's promise is for the hot
    # query shape (rare queries may pay, as the paper concedes).
    q1 = _by(table, "method", "remote_per_query", graph="figure1", query="q1")
    assert q1["loom"] <= q1["hash"] + 1e-9
    assert q1["loom"] <= q1["ldg"] + 1e-9
    assert all(cost >= 0.0 for cost in table.column("cost"))


def _shape_e9(table: Table) -> None:
    for row in table.rows:
        assert row["hash"] > row["offline"], "streaming must beat offline"
        assert row["hash"] >= row["ldg"] * 0.5  # same order of magnitude
        assert all(row[method] > 0 for method in _RATES)


def _shape_e10(table: Table) -> None:
    rows = sorted(table.rows, key=lambda r: r["k"])
    assert all(r["loom"] < r["hash"] for r in rows)
    # Hash worsens as k grows (expected cut fraction 1 - 1/k).
    assert rows[-1]["hash"] > rows[0]["hash"]


def _shape_e11(table: Table) -> None:
    p = _by(table, "method", "p_remote")
    assert p["loom"] < p["ldg"] < p["hash"]
    assert p["offline_wa"] <= p["offline"] + 1e-9
    assert p["offline_wa"] < p["ldg"]


def _shape_e12(table: Table) -> None:
    for method in ("hash", "ldg", "loom"):
        ps = _by(table, "budget", "p_remote", method=method)
        ordered = [ps[b] for b in sorted(ps)]
        # More replicas never hurt (weakly monotone improvement).
        assert all(b <= a + 0.02 for a, b in zip(ordered, ordered[1:], strict=False))
    full = _by(table, "method", "p_remote", budget=max(table.column("budget")))
    (bare_loom,) = _rows(table, method="loom", budget=0)
    # LOOM with no replicas at all beats the others at full budget.
    assert bare_loom["p_remote"] < full["hash"]
    assert bare_loom["p_remote"] < full["ldg"]


def _shape_e13(churn: Table, rebalance: Table) -> None:
    for row in churn.rows:
        # The differential invariant: incremental == offline rebuild.
        assert row["state_ok"] is True
        assert row["events_per_second"] > 0
    (insert_only,) = _rows(churn, delete_fraction=0.0)
    assert insert_only["removals"] == 0
    assert insert_only["retracted_matches"] == 0
    assert all(r["removals"] > 0 for r in _rows(churn, delete_fraction=0.3))
    for row in rebalance.rows:
        assert row["cut_after"] <= row["cut_before"]
        assert row["moved"] <= row["candidates"]


def _shape_a1(table: Table) -> None:
    fix = _by(table, "resignature_fix")
    assert fix[True]["regrown_matches"] > 0
    assert fix[False]["regrown_matches"] == 0
    assert fix[True]["groups"] >= fix[False]["groups"]
    assert fix[True]["p_remote"] <= fix[False]["p_remote"] + 0.02


def _shape_a2(table: Table) -> None:
    grouped = _by(table, "group_matches")
    assert grouped[True]["groups"] > 0
    assert grouped[False]["groups"] == 0
    assert grouped[True]["p_remote"] < grouped[False]["p_remote"]


def _shape_a3(summary: Table, quality: Table) -> None:
    edges = _by(summary, "structure", "largest_motif_edges")
    assert edges["tpstry++"] == 4  # the square
    assert edges["path-trie"] < 4  # the cycle is invisible to the path trie
    q = _by(quality, "structure")
    assert q["tpstry++"]["p_remote"] <= q["path-trie"]["p_remote"]
    assert q["tpstry++"]["groups"] >= q["path-trie"]["groups"]


def _shape_a4(table: Table) -> None:
    p = _by(table, "method", "p_remote")
    assert set(p) == {"ldg", "ta-ldg", "loom", "loom_ta"}
    assert p["ta-ldg"] <= p["ldg"] + 0.03
    assert p["loom_ta"] <= p["loom"] + 0.03
    assert p["loom"] < p["ldg"]


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
def _ldg_reduction(row: dict) -> dict:
    return {"ldg_vs_hash_reduction": 1.0 - row["ldg"] / row["hash"] if row["hash"] else 0.0}


def _frequent_motifs(m: dict) -> dict:
    trie = TPSTryPP.from_workload(m["case"].workload)
    return {"frequent_motifs": len(trie.frequent_motifs(m["threshold"]))}


def _experiment(id, title, claim, shape, *tables, body=None, timing=()):
    return Experiment(id, title, claim, tables, shape, body, frozenset(timing))


_TESTBED = {"cases": grid.motifs, "size": Sized(30, 50)}
_SAMPLED = Sized(40, 100)
_QUALITY = ("graph", "method", "cut", "rho", "p_remote", "local_rate", "cost")

_DECLARED = [
    _experiment(
        "E1", "Edge-cut fraction of workload-agnostic partitioners",
        '§4.1 "LDG is an effective heuristic, reducing the number of edges cut by up to '
        '90%" (vs hash); §3.1 streaming cuts more than offline multilevel',
        _shape_e1,
        TableSpec("E1: edge-cut fraction by partitioner (lower is better)",
                  ("graph", "k", "hash", "ldg", "fennel", "offline", "ldg_vs_hash_reduction"),
                  cases=grid.structural_graphs, size=Sized(300, 500), salt=1,
                  k=Sized((4, 16), (2, 4, 8, 16, 32)),
                  method=("hash", "ldg", "fennel", "offline"),
                  pivot="cut", derive=_ldg_reduction),
    ),
    _experiment(
        "E2", "Inter-partition traversal probability (headline)",
        '§1 a workload-aware partitioning lowers "the probability of inter-partition '
        'traversals ... given a workload Q" vs workload-agnostic baselines, at comparable balance',
        _shape_e2,
        TableSpec("E2: workload quality by partitioner (k=8; p_remote is the paper's metric)",
                  _QUALITY, cases=grid.property_graphs, size=Sized(0.5, 1.0), salt=2,
                  ordering="bfs", window=Sized(128, 256),
                  method=("hash", "ldg", "fennel", "offline", "loom"),
                  executions=Sized(40, 120)),
    ),
    _experiment(
        "E3", "Stream-ordering sensitivity",
        "§5 (promised axis), §3.1: hash is order-free, greedy heuristics degrade under "
        "adversarial orderings, LOOM's window buys back part of the loss",
        _shape_e3,
        TableSpec("E3: P(remote traversal) by stream ordering (k=8)",
                  ("ordering", "method", "cut", "p_remote"), **_TESTBED, salt=3,
                  ordering=("natural", "random", "bfs", "dfs", "adversarial"),
                  method=("hash", "ldg", "fennel", "loom"), executions=_SAMPLED),
    ),
    _experiment(
        "E4", "Window-size sweep",
        "§4.1/§4.4 with a window of 1 no motif can assemble and LOOM degrades to LDG; "
        "larger windows assemble more matches and lower P(remote)",
        _shape_e4,
        TableSpec("E4: LOOM quality vs stream-window size (k=8, random ordering)",
                  ("window", "cut", "p_remote", "groups", "group_vertices"),
                  **_TESTBED, salt=4, method="loom", executions=_SAMPLED,
                  window=Sized((1, 16, 128), (1, 8, 32, 128, 512))),
        TableSpec("E4 reference: plain LDG on the same stream",
                  ("method", "cut", "p_remote"),
                  **_TESTBED, salt=4, method="ldg", executions=_SAMPLED),
    ),
    _experiment(
        "E5", "Motif frequency threshold sweep",
        "§4.2 user-defined frequency threshold T: T > 1 leaves no frequent motif (no "
        "grouping, LOOM = LDG); lowering T adds motifs and grouping activity",
        _shape_e5,
        TableSpec("E5: LOOM quality vs motif threshold T (k=8)",
                  ("threshold", "frequent_motifs", "cut", "p_remote", "groups"),
                  **_TESTBED, salt=5, method="loom", executions=_SAMPLED,
                  threshold=Sized((0.1, 0.4, 1.01), (0.05, 0.1, 0.2, 0.4, 0.8, 1.01)),
                  derive=_frequent_motifs),
    ),
    _experiment(
        "E6", "Partition balance",
        "§2/§4.1 balance constraint: partitions stay within the capacity C; LOOM's "
        "whole-group placement must not break it",
        _shape_e6,
        TableSpec("E6: balance (normalised max load; capacity slack 1.2)",
                  ("method", "k", "rho", "max_size", "min_size", "capacity"),
                  **_TESTBED, salt=6, k=Sized((4, 16), (4, 8, 16)),
                  method=("hash", "balanced", "ldg", "edg", "fennel", "offline", "loom")),
    ),
    _experiment(
        "E7", "Signature soundness & TPSTry++ construction",
        '§4.3 signature equality is non-authoritative but "the probability of signature '
        'collisions ... is shown to be very low"; Algorithm 1 is cheap for realistic queries',
        _shape_e7,
        TableSpec("E7a: signature collisions over random labelled graph pairs",
                  ("pairs", "isomorphic_pairs", "signature_equal_pairs", "collisions",
                   "collision_rate", "max_signature_bits")),
        TableSpec("E7b: TPSTry++ construction (Algorithm 1) cost",
                  ("queries", "max_query_size", "nodes", "build_seconds")),
        TableSpec("E7c: stream matcher precision (signature hits verified by isomorphism)",
                  ("matches_checked", "verified", "precision", "evictions")),
        body=custom.signatures_and_trie, timing={"build_seconds"},
    ),
    _experiment(
        "E8", "Per-query communication cost",
        "§1 figure 1: multi-hop queries pay the most under workload-agnostic placement; "
        "LOOM keeps the frequent query shapes local",
        _shape_e8,
        TableSpec("E8: per-query communication (remote traversals per execution)",
                  ("graph", "query", "method", "remote_per_query", "local_rate", "cost"),
                  cases=grid.query_shapes, size=Sized(("figure1",), ("figure1", "social")),
                  salt=8, ordering="bfs", window=64, method=("hash", "ldg", "loom"),
                  executions=Sized(30, 80), measure=grid.per_query),
    ),
    _experiment(
        "E9", "Partitioner throughput",
        "§3.1 streaming partitioners see each element once, offline multilevel re-processes "
        "the whole graph (the ordering between methods reproduces, not absolute C++ rates)",
        _shape_e9,
        TableSpec("E9: partitioner throughput (vertices/second, k=8)", ("n", *_RATES),
                  cases=grid.scaling_graphs, size=Sized((500, 1000), (1000, 2000, 4000)),
                  window=64, method=_RATES, measure=grid.throughput,
                  pivot="vertices_per_second"),
        timing=_RATES,
    ),
    _experiment(
        "E10", "k sweep for traversal probability",
        "§2 more partitions mean more boundaries to cross: P(remote) grows with k and "
        "LOOM stays below hash at every k",
        _shape_e10,
        TableSpec("E10: P(remote traversal) vs k", ("k", "hash", "ldg", "loom"),
                  **_TESTBED, salt=10, k=Sized((2, 8), (2, 4, 8, 16, 32)),
                  method=("hash", "ldg", "loom"), executions=_SAMPLED, pivot="p_remote"),
    ),
    _experiment(
        "E11", "Offline workload-aware skyline",
        '§3.1 an offline partitioner "may account for a static query workload known a '
        'priori": hash (floor) > LDG > LOOM > the offline bounds, workload-aware offline best',
        _shape_e11,
        TableSpec("E11: workload-aware offline skyline (k=8)", _QUALITY,
                  **_TESTBED, salt=15, executions=Sized(40, 120),
                  method=("hash", "ldg", "loom", "offline", "offline_wa")),
    ),
    _experiment(
        "E12", "Hotspot replication complementarity",
        '§3.2 a workload-agnostic initial partitioning makes "replication mechanisms do far '
        'more work than is necessary"; LOOM "could effectively complement" replication',
        _shape_e12,
        TableSpec("E12: P(remote) after hotspot replication, by initial partitioner (k=8)",
                  ("method", "budget", "replicas_added", "replication_factor", "p_remote"),
                  cases=grid.motifs, size=Sized(25, 40), salt=16,
                  method=("hash", "ldg", "loom"),
                  budget_divisor=Sized((0, 20, 10), (0, 20, 10, 5)),
                  executions=Sized(30, 60), measure=grid.replication),
    ),
    _experiment(
        "E13", "Dynamic-graph churn: deletions & rebalancing",
        "beyond the paper's append-only model: deletions keep the incremental state equal "
        "to an offline rebuild, retraction stays disjoint from eviction, live rebalancing "
        "never worsens the cut",
        _shape_e13,
        TableSpec("E13a: churn stream ingest (k=8, loom; state_ok = incremental == offline rebuild)",
                  ("delete_fraction", "events", "removals", "events_per_second",
                   "retracted_matches", "evicted_matches", "survivors", "state_ok")),
        TableSpec("E13b: live rebalance after churn (max_moves=n/10)",
                  ("delete_fraction", "candidates", "moved", "cut_before", "cut_after")),
        body=custom.churn, timing={"events_per_second"},
    ),
    _experiment(
        "A1", "Ablation: section-4.3 re-signature fix",
        "§4.3 figure 3: the re-signature fix recovers full-motif matches whose fragments "
        "grew disjointly (it changes identification, not placement: every partial match is "
        "tracked and §4.4's group closure already merges the overlapping partials)",
        _shape_a1,
        TableSpec("A1: section-4.3 re-signature fix ablation (k=8, random ordering)",
                  ("resignature_fix", "regrown_matches", "groups", "cut", "p_remote"),
                  cases=grid.planted_paths, size=Sized(25, 40), salt=11, method="loom",
                  threshold=0.5, executions=_SAMPLED,
                  options=({"resignature_fix": True}, {"resignature_fix": False})),
    ),
    _experiment(
        "A2", "Ablation: motif-group assignment",
        "§4.4 whole-match grouped assignment is LOOM's contribution: switching it off "
        "removes every group and gives up the P(remote) advantage",
        _shape_a2,
        TableSpec("A2: motif-group assignment ablation (k=8)",
                  ("group_matches", "groups", "cut", "p_remote"),
                  **_TESTBED, salt=12, method="loom", executions=_SAMPLED,
                  options=({"group_matches": True}, {"group_matches": False})),
    ),
    _experiment(
        "A3", "Ablation: TPSTry++ DAG vs path-only TPSTry",
        "§4.2 cyclic motifs (figure 1's q1) are invisible to the original path-only TPSTry "
        "(placement can still match the DAG's: a cycle's path sub-motifs cover its vertices "
        "and §4.4 merges them)",
        _shape_a3,
        TableSpec("A3a: motif coverage, TPSTry++ DAG vs path-only TPSTry",
                  ("structure", "nodes", "frequent_motifs", "largest_motif_edges")),
        TableSpec("A3b: LOOM quality with DAG vs path-restricted motifs (k=8)",
                  ("structure", "cut", "p_remote", "groups")),
        body=custom.dag_vs_path_trie,
    ),
    _experiment(
        "A4", "Extension: traversal-aware LDG",
        "§5 future work: LDG scoring weighted by TPSTry++ edge traversal probabilities "
        "never hurts the workload metric, standalone or inside LOOM",
        _shape_a4,
        TableSpec("A4: traversal-aware LDG extension (k=8)", ("method", "cut", "p_remote"),
                  **_TESTBED, salt=14, method=("ldg", "ta-ldg", "loom", "loom_ta"),
                  executions=_SAMPLED),
    ),
]
EXPERIMENTS: dict[str, Experiment] = {exp.id: exp for exp in _DECLARED}


def run_experiment(
    experiment_id: str, *, seed: int = 0, fast: bool = False
) -> list[Table]:
    """Run one experiment by id (``E1`` ... ``E13``, ``A1`` ... ``A4``)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key].run(seed, fast)


def catalogue(results: Mapping[str, list[Table]]) -> str:
    """The claim-vs-reproduced table over ``{id: tables at seed 0, fast}``.

    ``docs/experiments.md`` embeds this output verbatim and
    ``tests/docs/test_doc_sync.py`` regenerates and compares.
    """
    lines = [
        "| id | title | claim checked (paper §) | verdict at seed 0 fast "
        "| sha256[:12] of the non-timing cells |",
        "| --- | --- | --- | --- | --- |",
    ]
    for exp in EXPERIMENTS.values():
        tables = results[exp.id]
        lines.append(
            f"| {exp.id} | {exp.title} | {exp.claim} | {exp.verdict(tables)} "
            f"| `{exp.digest(tables)}` |"
        )
    return "\n".join(lines)
