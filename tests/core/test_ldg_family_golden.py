"""Golden outputs: LDG-family placements pinned to recorded digests.

The per-vertex companion of ``test_loom_golden.py``.  The digests were
recorded at the commit before ``PartitionAssignment``'s neighbour index
was removed, when ``VertexStreamAdapter`` still fed cached counts to the
greedy heuristics; the neighbour scan that is now the only path must
reproduce every placement.  The churn stream is small and dense so that
removals keep hitting the pending vertex's own neighbourhood (8 deleted
neighbours -- the ghost-neighbour case of
``tests/stream/test_retraction.py`` -- and 95 deleted edges), the one
place where index and scan could have disagreed.  The digest is SHA-256
over the ``repr`` of the sorted ``(vertex, partition)`` pairs.
"""

import hashlib
import random

import pytest
from stream_driver import partition_stream

from repro.datasets.churn import churn_stream, churn_workload
from repro.engine.registry import PartitionRequest, default_registry
from repro.graph.generators import barabasi_albert
from repro.partitioning.base import default_capacity
from repro.stream.events import VertexArrival
from repro.stream.sources import replay, stream_from_graph

K = 4


def ba_events():
    graph = barabasi_albert(300, 2, rng=random.Random(0))
    return stream_from_graph(graph, ordering="bfs", rng=random.Random(1))


def churn_events():
    return churn_stream(80, m=6, delete_fraction=0.8, rng=random.Random(2))


GOLDEN = {
    "ldg": (
        "7080a889041f1ba1e38e1acb1a0f3ec46896454b134704a8644a07a4a6d82598",
        "78497548fb1c08274a415a990e2f2fcc0bcc84e101e2f34955ccefc474d66888",
    ),
    "fennel": (
        "6dbd830981ce414363175b2ec5f0a1d5812e23fbd754d58b25b90a9360948d34",
        "aee1b25aaa35023a15a68565b5c20951effdf762b0085c600bd9ba9e7a91c64d",
    ),
    "greedy": (
        "7080a889041f1ba1e38e1acb1a0f3ec46896454b134704a8644a07a4a6d82598",
        "e9f0895bc5dac0107eac36377087f1d9baf708c70077d0eb8b6e5dc04ae0612c",
    ),
    "edg": (
        "7080a889041f1ba1e38e1acb1a0f3ec46896454b134704a8644a07a4a6d82598",
        "e9f0895bc5dac0107eac36377087f1d9baf708c70077d0eb8b6e5dc04ae0612c",
    ),
    "ta-ldg": (
        "fd6b804455b1cb80a77faf3c2320741780c0c8a6d2301a6b0ef6ec1380f0ef8c",
        "25240f14be5825cbf32801d497955a73e8b7e47e90685ef127a2536bc81f62c0",
    ),
}


def placement_digest(method, events):
    arrivals = sum(isinstance(event, VertexArrival) for event in events)
    capacity = default_capacity(arrivals, K, 1.2)
    request = PartitionRequest(
        graph=replay(events),
        events=events,
        k=K,
        capacity=capacity,
        workload=churn_workload(),
    )
    partitioner = default_registry.resolve(method).build(request)
    assignment = partition_stream(partitioner, events, k=K, capacity=capacity)
    placed = sorted(assignment.assigned().items())
    return hashlib.sha256(repr(placed).encode()).hexdigest()


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_placements_match_recording(method):
    ba_digest, churn_digest = GOLDEN[method]
    assert placement_digest(method, ba_events()) == ba_digest
    assert placement_digest(method, churn_events()) == churn_digest
