"""Seeded inputs: the same ``--seed`` gives the same graph, stream and
query schedule; another seed gives other ones.

The program under test receives only what these functions return.
Sizes are per workload (``SIZES``); ``--quick`` divides them for the
self-tests.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence

from repro.datasets import churn_stream, fraud_network
from repro.graph.labelled import LabelledGraph
from repro.stream.events import StreamEvent
from repro.stream.sources import stream_from_graph
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload

#: Input size per workload: fraud accounts (one ring per 20 accounts),
#: or arriving vertices of the churn stream.  Sized so that one run --
#: three set-ups, ``run_seconds`` of measurement, the reference run and
#: the checks -- stays near 25 s on a 2-core box.  ``churn_stream`` is
#: quadratic in its size, which is what holds ``churn-recover`` down.
SIZES = {
    "ingest-static": 10000,
    "churn-recover": 6000,
    "serve-query": 2000,
    "serve-mixed-sharded": 10000,
}
QUICK_DIVISOR = 10


def input_size(workload: str, quick: bool) -> int:
    size = SIZES[workload]
    return max(200, size // QUICK_DIVISOR) if quick else size


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"e2e:{seed}:{purpose}")


def fraud_input(seed: int, accounts: int) -> tuple[LabelledGraph, list[StreamEvent]]:
    """The fraud graph and its randomly ordered arrival stream."""
    graph = fraud_network(
        accounts, n_rings=accounts // 20, rng=_rng(seed, "fraud-graph")
    )
    events = stream_from_graph(
        graph, ordering="random", rng=_rng(seed, "fraud-order")
    )
    return graph, events


def churn_input(seed: int, vertices: int) -> list[StreamEvent]:
    """A growth stream with about one removal per five arrivals."""
    return churn_stream(
        vertices, m=3, delete_fraction=0.2, rng=_rng(seed, "churn")
    )


def query_schedule(
    workload: Workload, count: int, seed: int
) -> list[PatternQuery]:
    """``count`` queries in the workload's frequency proportions, in a
    seeded order.

    Stratified rather than sampled: every seed sends the same mix, so
    run-to-run differences in latency percentiles come from the system
    and not from how many slow patterns a seed happened to draw.
    """
    queries = list(workload)
    shares = [workload.probability(q) * count for q in queries]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(queries)), key=lambda i: shares[i] - counts[i], reverse=True
    )
    for index in by_remainder[: count - sum(counts)]:
        counts[index] += 1
    schedule = [q for q, n in zip(queries, counts, strict=True) for _ in range(n)]
    _rng(seed, "schedule").shuffle(schedule)
    return schedule


def stream_digest(events: Sequence[StreamEvent]) -> str:
    """SHA-256 of the event stream, to show what a seed produced."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(event).encode())
    return digest.hexdigest()
