"""Schema, shape and determinism of all seventeen experiments.

One cached run per experiment (``seed0_fast``) feeds the schema check
(the spec's declared tables *are* the schema), the shape predicate the
paper predicts and the render/``as_dict`` round trip; one rerun at the
same seed is the determinism check.
"""

import dataclasses
import json

import pytest

from repro.bench import Table
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.grid import Sized

IDS = sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", IDS)
def test_experiment_schema(experiment_id, seed0_fast):
    tables = seed0_fast[experiment_id]
    assert [(t.title, t.columns) for t in tables] == [
        (spec.title, list(spec.columns))
        for spec in EXPERIMENTS[experiment_id].tables
    ]
    for table in tables:
        assert len(table) > 0, f"{experiment_id}: {table.title} is empty"
        payload = json.loads(json.dumps(table.as_dict()))
        clone = Table(payload["title"], payload["columns"])
        for row in payload["rows"]:
            clone.add_row(**row)
        assert table.title in clone.render() == table.render()


@pytest.mark.parametrize("experiment_id", IDS)
def test_experiment_shape(experiment_id, seed0_fast):
    """The shape the paper predicts: who wins, which way the trend goes."""
    EXPERIMENTS[experiment_id].shape(*seed0_fast[experiment_id])


def test_swapping_loom_and_hash_breaks_the_e2_shape(seed0_fast):
    (table,) = seed0_fast["E2"]
    swapped = Table(table.title, table.columns)
    other = {"loom": "hash", "hash": "loom"}
    for row in table.rows:
        swapped.add_row(**{**row, "method": other.get(row["method"], row["method"])})
    assert EXPERIMENTS["E2"].verdict([table]) == "reproduced"
    assert EXPERIMENTS["E2"].verdict([swapped]) == "not reproduced"


@pytest.mark.parametrize("experiment_id", IDS)
def test_experiment_deterministic(experiment_id, seed0_fast):
    """Same seed, same tables, the spec's timing columns excepted."""
    experiment = EXPERIMENTS[experiment_id]
    first = seed0_fast[experiment_id]
    second = run_experiment(experiment_id, seed=0, fast=True)
    for a, b in zip(first, second, strict=True):
        assert len(a) == len(b)
        for column in set(a.columns) - experiment.timing:
            assert a.column(column) == b.column(column), f"{a.title}:{column}"


def test_fast_and_full_differ_only_in_grid_values():
    """One title, one column list, one method line-up in either mode."""
    sized = {"size", "ordering", "k", "window", "threshold", "options",
             "budget_divisor", "executions"}
    for experiment in EXPERIMENTS.values():
        for spec in experiment.tables:
            for field in dataclasses.fields(spec):
                value = getattr(spec, field.name)
                if isinstance(value, Sized):
                    assert field.name in sized, (experiment.id, field.name)
                    assert type(value.fast) is type(value.full)
