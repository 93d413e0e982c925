"""Branching and cyclic query generators, the shapes the path-only TPSTry
cannot encode but TPSTry++ can (imported by bare module name, like
``tests/core/reference_matcher.py``)."""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.exceptions import WorkloadError
from repro.graph.labelled import LabelledGraph
from repro.workload.query import PatternQuery
from repro.workload.workloads import (
    Workload,
    _check_generator_args,
    path_workload,
    zipf_frequencies,
)


def tree_workload(
    alphabet: Sequence[str],
    *,
    count: int,
    min_size: int = 3,
    max_size: int = 5,
    skew: float = 1.0,
    rng: random.Random,
) -> Workload:
    """Random labelled-tree (branching) queries -- shapes the path-only
    TPSTry cannot encode but TPSTry++ can."""
    _check_generator_args(alphabet, count, min_size, max_size)
    frequencies = zipf_frequencies(count, skew)
    queries = []
    for index in range(count):
        size = rng.randint(min_size, max_size)
        graph = LabelledGraph()
        graph.add_vertex(0, rng.choice(list(alphabet)))
        for v in range(1, size):
            graph.add_vertex(v, rng.choice(list(alphabet)))
            graph.add_edge(v, rng.randrange(v))
        queries.append(
            PatternQuery(name=f"tree{index}", graph=graph, frequency=frequencies[index])
        )
    return Workload(queries)


def cycle_workload(
    alphabet: Sequence[str],
    *,
    count: int,
    min_size: int = 3,
    max_size: int = 5,
    skew: float = 1.0,
    rng: random.Random,
) -> Workload:
    """Random labelled-cycle queries (e.g. the paper's q1 square)."""
    _check_generator_args(alphabet, count, min_size, max_size)
    frequencies = zipf_frequencies(count, skew)
    queries = []
    for index in range(count):
        size = rng.randint(min_size, max_size)
        labels = [rng.choice(list(alphabet)) for _ in range(size)]
        queries.append(
            PatternQuery(
                name=f"cycle{index}",
                graph=LabelledGraph.cycle(labels),
                frequency=frequencies[index],
            )
        )
    return Workload(queries)


def mixed_workload(
    alphabet: Sequence[str],
    *,
    paths: int = 3,
    trees: int = 2,
    cycles: int = 1,
    skew: float = 1.0,
    rng: random.Random,
) -> Workload:
    """A workload mixing all three query shapes (frequencies re-Zipfed over
    the concatenation, heaviest first)."""
    parts: list[PatternQuery] = []
    if paths:
        parts.extend(path_workload(alphabet, count=paths, skew=0, rng=rng))
    if trees:
        parts.extend(tree_workload(alphabet, count=trees, skew=0, rng=rng))
    if cycles:
        parts.extend(cycle_workload(alphabet, count=cycles, skew=0, rng=rng))
    if not parts:
        raise WorkloadError("mixed workload needs at least one query shape")
    frequencies = zipf_frequencies(len(parts), skew)
    reweighted = [
        PatternQuery(name=f"q{i}_{q.name}", graph=q.graph, frequency=frequencies[i])
        for i, q in enumerate(parts)
    ]
    return Workload(reweighted)
