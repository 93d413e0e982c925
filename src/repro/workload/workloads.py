"""Workload container and generators.

A :class:`Workload` holds pattern queries with relative frequencies and
offers the operations the rest of the system needs: normalised
probabilities, frequency-weighted sampling (to drive the executor), and the
total label alphabet (to freeze signature schemes).

Generators produce label-path queries (the original TPSTry's domain) with
optionally Zipf-skewed frequencies, since workload skew is the paper's
motivation, and ``workload_from_graph`` samples query patterns out of a
concrete data graph, guaranteeing the workload and graph share structure
(the regime where workload-aware partitioning can win).
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence

from repro.exceptions import WorkloadError
from repro.graph.labelled import LabelledGraph, Vertex
from repro.graph.views import induced_subgraph
from repro.workload.query import PatternQuery


def zipf_frequencies(count: int, skew: float = 1.0) -> list[float]:
    """Zipf-like relative frequencies ``1/rank**skew`` for ``count`` queries.

    ``skew=0`` gives a uniform workload; larger values concentrate
    probability on the head -- the "query workload exhibits skew" setting
    of the paper's abstract.
    """
    if count < 1:
        raise WorkloadError("need at least one frequency")
    if skew < 0:
        raise WorkloadError("skew must be non-negative")
    return [1.0 / (rank ** skew) for rank in range(1, count + 1)]


class Workload:
    """An immutable set of weighted pattern queries."""

    def __init__(self, queries: Sequence[PatternQuery]) -> None:
        if not queries:
            raise WorkloadError("a workload needs at least one query")
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate query names in workload: {names}")
        self._queries = tuple(queries)
        self._total = sum(q.frequency for q in queries)

    # ------------------------------------------------------------------
    @property
    def queries(self) -> tuple[PatternQuery, ...]:
        return self._queries

    @property
    def total_frequency(self) -> float:
        return self._total

    def probability(self, query: PatternQuery) -> float:
        """Normalised probability that a random workload query is ``query``."""
        return query.frequency / self._total

    def probabilities(self) -> dict[str, float]:
        return {q.name: self.probability(q) for q in self._queries}

    def alphabet(self) -> set[str]:
        """Union of all labels used by the query graphs."""
        labels: set[str] = set()
        for query in self._queries:
            labels |= query.graph.labels()
        return labels

    def max_query_size(self) -> int:
        return max(q.size for q in self._queries)

    def sample(self, rng: random.Random) -> PatternQuery:
        """Draw one query with probability proportional to its frequency."""
        point = rng.random() * self._total
        cumulative = 0.0
        for query in self._queries:
            cumulative += query.frequency
            if point < cumulative:
                return query
        return self._queries[-1]

    def sample_many(self, count: int, rng: random.Random) -> list[PatternQuery]:
        return [self.sample(rng) for _ in range(count)]

    def __iter__(self) -> Iterator[PatternQuery]:
        return iter(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    def __repr__(self) -> str:
        return f"Workload({', '.join(str(q) for q in self._queries)})"


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def path_workload(
    alphabet: Sequence[str],
    *,
    count: int,
    min_length: int = 2,
    max_length: int = 4,
    skew: float = 1.0,
    rng: random.Random,
) -> Workload:
    """Random label-path queries with Zipf frequencies."""
    _check_generator_args(alphabet, count, min_length, max_length)
    frequencies = zipf_frequencies(count, skew)
    queries = []
    seen: set[tuple[str, ...]] = set()
    for index in range(count):
        labels = _fresh_path_labels(alphabet, min_length, max_length, rng, seen)
        queries.append(
            PatternQuery(
                name=f"path{index}",
                graph=LabelledGraph.path(labels),
                frequency=frequencies[index],
            )
        )
    return Workload(queries)


def workload_from_graph(
    graph: LabelledGraph,
    *,
    count: int,
    min_size: int = 2,
    max_size: int = 4,
    skew: float = 1.0,
    rng: random.Random,
) -> Workload:
    """Sample connected sub-graphs of ``graph`` as query patterns.

    Patterns extracted from the data graph are guaranteed to have at least
    one match, and frequent local structure naturally becomes frequent in
    the workload -- the realistic "online GDBMS workload" regime.
    """
    if graph.num_edges == 0:
        raise WorkloadError("cannot sample patterns from an edgeless graph")
    _check_generator_args(["x"], count, min_size, max_size)
    frequencies = zipf_frequencies(count, skew)
    queries = []
    vertices = list(graph.vertices())
    for index in range(count):
        size = rng.randint(min_size, max_size)
        pattern = _sample_connected_pattern(graph, vertices, size, rng)
        queries.append(
            PatternQuery(name=f"sampled{index}", graph=pattern, frequency=frequencies[index])
        )
    return Workload(queries)


def _sample_connected_pattern(
    graph: LabelledGraph,
    vertices: Sequence[Vertex],
    size: int,
    rng: random.Random,
) -> LabelledGraph:
    """Random connected induced pattern of ``size`` vertices (BFS-biased),
    re-identified with fresh vertex ids 0..size-1."""
    for _ in range(100):
        seed = rng.choice(list(vertices))
        chosen = [seed]
        frontier = [n for n in graph.neighbours(seed)]
        while len(chosen) < size and frontier:
            nxt = rng.choice(frontier)
            if nxt not in chosen:
                chosen.append(nxt)
                frontier.extend(
                    n for n in graph.neighbours(nxt) if n not in chosen
                )
            frontier.remove(nxt)
        if len(chosen) == size:
            sampled = induced_subgraph(graph, chosen)
            mapping = {old: new for new, old in enumerate(chosen)}
            fresh = LabelledGraph()
            for old in chosen:
                fresh.add_vertex(mapping[old], sampled.label(old))
            for u, v in sampled.edges():
                fresh.add_edge(mapping[u], mapping[v])
            return fresh
    raise WorkloadError(
        f"could not sample a connected pattern of {size} vertices; "
        "graph may be too sparse"
    )


def _fresh_path_labels(
    alphabet: Sequence[str],
    min_length: int,
    max_length: int,
    rng: random.Random,
    seen: set[tuple[str, ...]],
) -> list[str]:
    """Label sequence for a path query, avoiding exact duplicates when the
    alphabet allows it."""
    for _ in range(50):
        length = rng.randint(min_length, max_length)
        labels = tuple(rng.choice(list(alphabet)) for _ in range(length))
        if labels not in seen and labels[::-1] not in seen:
            seen.add(labels)
            return list(labels)
    # Tiny alphabets can exhaust distinct paths; fall back to a duplicate
    # shape (frequencies still differ, so the workload remains valid).
    length = rng.randint(min_length, max_length)
    return [rng.choice(list(alphabet)) for _ in range(length)]


def _check_generator_args(
    alphabet: Sequence[str], count: int, low: int, high: int
) -> None:
    if not alphabet:
        raise WorkloadError("alphabet must be non-empty")
    if count < 1:
        raise WorkloadError("count must be >= 1")
    if not 1 <= low <= high:
        raise WorkloadError(f"need 1 <= min ({low}) <= max ({high})")
