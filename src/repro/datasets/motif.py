"""The motif testbed: planted workload motifs in uniform noise."""

from __future__ import annotations

import random

from repro.graph.generators import plant_motifs
from repro.graph.labelled import LabelledGraph
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload


def motif_testbed(seed: int, *, instances: int = 50, noise: int = 100):
    """The canonical workload-correlated graph: planted abc paths and abab
    squares plus uniform noise, with the matching skewed workload."""
    rng = random.Random(seed)
    abc = LabelledGraph.path("abc")
    square = LabelledGraph.cycle("abab")
    graph = plant_motifs(
        [(abc, instances), (square, instances * 2 // 3)],
        noise_vertices=noise,
        noise_edge_probability=0.005,
        rng=rng,
    )
    workload = Workload(
        [
            PatternQuery("abc", abc, 3.0),
            PatternQuery("square", square, 1.0),
        ]
    )
    return graph, workload
