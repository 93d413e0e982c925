"""LOOM co-location behaviour on each domain dataset (mini versions).

The E2 experiment measures the aggregate; these tests pin down the
specific structural outcomes LOOM is supposed to deliver per domain:
fraud rings staying intact, protein complexes staying intact, and the
hot social pattern's matches not straddling partitions more than the
baseline's.
"""

import random

from stream_driver import partition_stream

from repro.core import LoomConfig, LoomPartitioner
from repro.datasets import (
    fraud_network,
    fraud_workload,
    protein_network,
    protein_workload,
)
from repro.engine import StreamingEngine
from repro.partitioning import LinearDeterministicGreedy
from repro.partitioning.base import default_capacity
from repro.stream.sources import stream_from_graph


def loom_assign(graph, workload, *, k=4, window=96, threshold=0.4, seed=5):
    events = stream_from_graph(
        graph, ordering="random", rng=random.Random(seed)
    )
    capacity = default_capacity(graph.num_vertices, k, 1.2)
    loom = LoomPartitioner(
        workload,
        LoomConfig(k=k, capacity=capacity, window_size=window,
                   motif_threshold=threshold),
    )
    return loom, StreamingEngine(loom).run(events), events, capacity


class TestFraudRings:
    def test_rings_mostly_intact(self):
        graph = fraud_network(
            80, n_rings=6, ring_size=4, rng=random.Random(1)
        )
        loom, assignment, events, capacity = loom_assign(
            graph, fraud_workload(), window=128
        )

        def intact(assignment):
            count = 0
            for ring in range(6):
                members = [f"a{ring * 4 + j}" for j in range(4)]
                members += [f"d{ring}", f"k{ring}"]
                if len({assignment.partition_of(v) for v in members}) == 1:
                    count += 1
            return count

        ldg = partition_stream(
            LinearDeterministicGreedy(), events, k=4, capacity=capacity
        )
        assert intact(assignment) >= intact(ldg)
        assert intact(assignment) >= 4  # most rings survive

    def test_ring_grouping_counted_in_stats(self):
        graph = fraud_network(60, n_rings=5, rng=random.Random(2))
        loom, assignment, _, _ = loom_assign(graph, fraud_workload())
        assert loom.stats["groups"] > 0


class TestProteinStructures:
    def test_complex_triangles_colocated(self):
        graph = protein_network(
            4, n_complexes=8, background_proteins=0, rng=random.Random(3)
        )
        loom, assignment, _, _ = loom_assign(
            graph, protein_workload(), threshold=0.2, window=64
        )
        triangle = protein_workload().queries[2]
        matches = triangle.answer(graph)
        assert matches
        split = sum(
            1
            for match in matches
            if len({assignment.partition_of(v) for v in match.vertices()}) > 1
        )
        assert split <= len(matches) // 2

    def test_pathways_benefit_from_grouping(self):
        graph = protein_network(
            16, n_complexes=0, background_proteins=10, rng=random.Random(4)
        )
        loom, assignment, events, capacity = loom_assign(
            graph, protein_workload(), threshold=0.2, window=96
        )
        signalling = protein_workload().queries[0]

        def split_fraction(assignment):
            matches = signalling.answer(graph)
            split = sum(
                1
                for match in matches
                if len({assignment.partition_of(v) for v in match.vertices()}) > 1
            )
            return split / len(matches)

        ldg = partition_stream(
            LinearDeterministicGreedy(), events, k=4, capacity=capacity
        )
        assert split_fraction(assignment) <= split_fraction(ldg) + 1e-9
