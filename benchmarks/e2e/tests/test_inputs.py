"""Inputs come from --seed and from nothing else."""

import inputs
from repro.datasets import fraud_workload


def test_same_seed_same_input_other_seed_other_input():
    _, first = inputs.fraud_input(5, 300)
    _, again = inputs.fraud_input(5, 300)
    _, other = inputs.fraud_input(6, 300)
    assert inputs.stream_digest(first) == inputs.stream_digest(again)
    assert inputs.stream_digest(first) != inputs.stream_digest(other)
    assert inputs.stream_digest(inputs.churn_input(5, 300)) == inputs.stream_digest(
        inputs.churn_input(5, 300)
    )
    assert inputs.stream_digest(inputs.churn_input(5, 300)) != inputs.stream_digest(
        inputs.churn_input(6, 300)
    )


def test_schedule_keeps_the_workload_mix_and_only_reorders_by_seed():
    workload = fraud_workload()
    first = inputs.query_schedule(workload, 1000, 1)
    other = inputs.query_schedule(workload, 1000, 2)
    assert [q.name for q in first] != [q.name for q in other]
    assert sorted(q.name for q in first) == sorted(q.name for q in other)
    assert len(first) == 1000
    for query in workload:
        share = sum(q.name == query.name for q in first) / 1000
        assert abs(share - workload.probability(query)) <= 0.001
    assert [q.name for q in first] == [
        q.name for q in inputs.query_schedule(workload, 1000, 1)
    ]
