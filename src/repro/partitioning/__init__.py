"""Graph partitioners: the baselines LOOM builds on and competes with.

* :mod:`repro.partitioning.base` -- the assignment state and the one-pass
  placement policy every streaming heuristic implements.
* :mod:`repro.partitioning.hashing` -- hash/random placement (the default
  in distributed graph systems, per the paper's introduction).
* :mod:`repro.partitioning.streaming` -- the Stanton & Kliot heuristic
  family, including Linear Deterministic Greedy (LDG), LOOM's base.
* :mod:`repro.partitioning.fennel` -- Fennel (Tsourakakis et al).
* :mod:`repro.partitioning.offline` -- a METIS-like multilevel partitioner
  (the offline quality bound).
* :mod:`repro.partitioning.metrics` -- edge-cut / balance measures.
"""

from repro.partitioning.base import (
    PartitionAssignment,
    StreamingVertexPartitioner,
)
from repro.partitioning.hashing import HashPartitioner, RandomPartitioner
from repro.partitioning.streaming import (
    BalancedPartitioner,
    ChunkingPartitioner,
    DeterministicGreedy,
    ExponentialDeterministicGreedy,
    LinearDeterministicGreedy,
    ldg_group_score,
    ldg_score,
)
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.offline import multilevel_partition
from repro.partitioning.metrics import (
    cut_edges,
    edge_cut,
    edge_cut_fraction,
    normalised_max_load,
)

__all__ = [
    "PartitionAssignment",
    "StreamingVertexPartitioner",
    "HashPartitioner",
    "RandomPartitioner",
    "BalancedPartitioner",
    "ChunkingPartitioner",
    "DeterministicGreedy",
    "ExponentialDeterministicGreedy",
    "LinearDeterministicGreedy",
    "ldg_group_score",
    "ldg_score",
    "FennelPartitioner",
    "multilevel_partition",
    "cut_edges",
    "edge_cut",
    "edge_cut_fraction",
    "normalised_max_load",
]
