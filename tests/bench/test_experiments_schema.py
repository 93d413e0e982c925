"""Schema tests: every experiment produces well-formed tables in fast mode.

These run all seventeen experiments end to end (small grids), asserting the
table schemas the benchmarks and EXPERIMENTS.md rely on.  They double as
integration smoke tests of the full pipeline behind each experiment.
"""

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment

EXPECTED_COLUMNS = {
    "E1": [["graph", "k", "hash", "ldg", "fennel", "offline",
            "ldg_vs_hash_reduction"]],
    "E2": [["graph", "method", "cut", "rho", "p_remote", "local_rate", "cost"]],
    "E3": [["ordering", "method", "cut", "p_remote"]],
    "E4": [["window", "cut", "p_remote", "groups", "group_vertices"],
           ["method", "cut", "p_remote"]],
    "E5": [["threshold", "frequent_motifs", "cut", "p_remote", "groups"]],
    "E6": [["method", "k", "rho", "max_size", "min_size", "capacity"]],
    "E7": [
        ["pairs", "isomorphic_pairs", "signature_equal_pairs", "collisions",
         "collision_rate", "max_signature_bits"],
        ["queries", "max_query_size", "nodes", "build_seconds"],
        ["matches_checked", "verified", "precision",
         "trusted_hits", "verified_hits", "evictions"],
    ],
    "E8": [["graph", "query", "method", "remote_per_query", "local_rate",
            "cost"]],
    "E9": [["n", "hash", "ldg", "fennel", "loom", "offline"]],
    "E10": [["k", "hash", "ldg", "loom"]],
    "E11": [["graph", "method", "cut", "rho", "p_remote", "local_rate",
             "cost"]],
    "E12": [["method", "budget", "replicas_added", "replication_factor",
             "p_remote"]],
    "E13": [
        ["delete_fraction", "events", "removals", "events_per_second",
         "retracted_matches", "evicted_matches", "survivors", "state_ok"],
        ["delete_fraction", "candidates", "moved", "cut_before", "cut_after"],
    ],
    "A1": [["resignature_fix", "regrown_matches", "groups", "cut",
            "p_remote"]],
    "A2": [["group_matches", "groups", "cut", "p_remote"]],
    "A3": [
        ["structure", "nodes", "frequent_motifs", "largest_motif_edges"],
        ["structure", "cut", "p_remote", "groups"],
    ],
    "A4": [["method", "cut", "p_remote"]],
}


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_schema(experiment_id):
    tables = run_experiment(experiment_id, seed=0, fast=True)
    expected = EXPECTED_COLUMNS[experiment_id]
    assert len(tables) == len(expected), f"{experiment_id}: table count"
    for table, columns in zip(tables, expected, strict=True):
        assert table.columns == columns, f"{experiment_id}: {table.title}"
        assert len(table) > 0, f"{experiment_id}: {table.title} is empty"
        # Every row must format cleanly (render exercises the formatter).
        rendered = table.render()
        assert table.title in rendered


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_deterministic(experiment_id):
    """Same seed, same tables -- the reproducibility contract."""
    if experiment_id == "E9":  # wall-clock rates
        pytest.skip("timing-based table")
    first = run_experiment(experiment_id, seed=3, fast=True)
    second = run_experiment(experiment_id, seed=3, fast=True)
    for a, b in zip(first, second, strict=True):
        non_timing = [
            c for c in a.columns
            if "seconds" not in c and not c.endswith("per_second")
        ]
        for row_a, row_b in zip(a.rows, b.rows, strict=True):
            for column in non_timing:
                assert row_a[column] == row_b[column], (
                    f"{experiment_id}:{a.title}:{column}"
                )
