"""LOOM: workload-aware streaming graph partitioning -- full reproduction.

Reproduction of Firth & Missier, "Workload-Aware Streaming Graph
Partitioning", GraphQ Workshop @ EDBT/ICDT 2016.

Quick tour (see ``examples/quickstart.py`` for the runnable version)::

    from repro import Cluster, ClusterConfig, figure1_graph, figure1_workload

    config = ClusterConfig(partitions=2, method="loom", capacity=5,
                           window_size=8, motif_threshold=0.6, seed=0)
    session = Cluster.open(config, workload=figure1_workload())
    session.ingest(figure1_graph())          # stream -> place -> store
    report = session.run_workload(executions=100)
    print(report.remote_probability)         # the paper's quality metric

Package map, one sub-package per subsystem, bottom layer first: each
imports only from the rows above it (``tests/docs/test_layers.py`` holds
the order; ``repro.exceptions`` and ``repro.configbase`` sit under all):

======================  ====================================================
``repro.graph``         labelled graphs, isomorphism, canonical forms
``repro.signatures``    Song-et-al number-theoretic signatures
``repro.workload``      pattern queries and workload generators
``repro.tpstry``        TPSTry++ DAG (and the path-only ablation)
``repro.stream``        orderings, event sources, sliding windows
``repro.partitioning``  hash/S&K/Fennel/offline baselines + metrics
``repro.core``          the LOOM partitioner itself
``repro.cluster``       simulated distributed store + instrumented executor
``repro.engine``        method table + batched streaming engine
``repro.replication``   workload-aware hotspot replication (section 3.2)
``repro.obs``           metrics registry, catalogue, span tracer
``repro.runtime``       worker pool, sharded executor, WAL
``repro.datasets``      domain graphs + workloads, churn stream, motif testbed
``repro.api``           the session façade (Cluster/Session, typed results)
``repro.bench``         experiment suite (E1-E13, A1-A4)
``repro.serve``         the TCP daemon and its client
``repro.cli``           the command line
======================  ====================================================
"""

from repro.graph import LabelledGraph
from repro.signatures import SignatureScheme
from repro.stream import SlidingWindow
from repro.stream.sources import growth_stream, stream_from_graph
from repro.workload import (
    PatternQuery,
    Workload,
    figure1_graph,
    figure1_workload,
)
from repro.tpstry import PathTPSTry, StreamingTPSTry, TPSTryPP
from repro.partitioning import (
    FennelPartitioner,
    HashPartitioner,
    LinearDeterministicGreedy,
    PartitionAssignment,
    edge_cut_fraction,
    multilevel_partition,
    normalised_max_load,
)
from repro.engine import (
    PartitionerRegistry,
    StreamingEngine,
    default_registry,
)
from repro.core import LoomConfig, LoomPartitioner, TraversalAwareLDG
from repro.cluster import (
    DistributedGraphStore,
    DistributedQueryExecutor,
    LatencyModel,
    run_workload,
)
from repro.api import (
    Cluster,
    ClusterConfig,
    ClusterStats,
    IngestReport,
    QueryResult,
    Session,
    WorkloadReport,
)

__version__ = "1.1.0"

__all__ = [
    "Cluster",
    "ClusterConfig",
    "Session",
    "ClusterStats",
    "IngestReport",
    "QueryResult",
    "WorkloadReport",
    "LabelledGraph",
    "SignatureScheme",
    "SlidingWindow",
    "growth_stream",
    "stream_from_graph",
    "PatternQuery",
    "Workload",
    "figure1_graph",
    "figure1_workload",
    "PathTPSTry",
    "StreamingTPSTry",
    "TPSTryPP",
    "FennelPartitioner",
    "HashPartitioner",
    "LinearDeterministicGreedy",
    "PartitionAssignment",
    "edge_cut_fraction",
    "multilevel_partition",
    "normalised_max_load",
    "PartitionerRegistry",
    "StreamingEngine",
    "default_registry",
    "LoomConfig",
    "LoomPartitioner",
    "TraversalAwareLDG",
    "DistributedGraphStore",
    "DistributedQueryExecutor",
    "LatencyModel",
    "run_workload",
    "__version__",
]
