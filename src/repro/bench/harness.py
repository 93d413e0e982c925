"""Experiment-harness vocabulary: one-shot glue over :mod:`repro.api`.

The partition -> store -> query lifecycle has one owner, the session
façade (:class:`repro.api.Cluster` / :class:`repro.api.Session`).  The
experiment suite (``repro.bench.experiments``) still speaks in
"partition this graph with that method, then evaluate it", so the two
adapters that phrase that over a session live here, next to their only
non-test consumer:

* :func:`partition_with` opens a one-shot session and ingests the events;
* :func:`evaluate_assignment` runs the sampled query stream against the
  resulting placement;
* :class:`MethodResult` / :class:`AssignmentEvaluation` are re-exported
  from :mod:`repro.api.results`.

New code should open a session instead of calling these.
"""

from __future__ import annotations

import random
import time

from repro.api.config import ClusterConfig
from repro.api.results import AssignmentEvaluation, MethodResult
from repro.api.session import Cluster
from repro.cluster.executor import run_workload as _execute_workload
from repro.cluster.latency import LatencyModel
from repro.cluster.store import DistributedGraphStore
from repro.engine.pipeline import DEFAULT_BATCH_SIZE, StatsHook
from repro.engine.registry import OFFLINE, STREAMING, default_registry
from repro.graph.labelled import LabelledGraph
from repro.stream.events import StreamEvent
from repro.workload.workloads import Workload

#: Streaming vertex-at-a-time baselines available to every experiment:
#: a registry-derived name -> :class:`PartitionerSpec` snapshot (methods
#: that stream and need no workload).  Note the values are specs, not the
#: partitioner classes the pre-registry dict held -- build instances via
#: ``spec.build(request)`` or just call :func:`partition_with` by name.
STREAMING_METHODS = default_registry.mapping(
    kind=STREAMING, needs_workload=False
)

#: The default method line-up for quality tables.
DEFAULT_LINEUP = ("hash", "ldg", "fennel", "offline", "loom")


def partition_with(
    method: str,
    graph: LabelledGraph,
    events: list[StreamEvent],
    *,
    k: int,
    capacity: int | None = None,
    slack: float = 1.2,
    workload: Workload | None = None,
    window_size: int = 128,
    motif_threshold: float = 0.2,
    seed: int = 0,
    rng: random.Random | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    stats_hooks: tuple[StatsHook, ...] = (),
    **method_overrides,
) -> MethodResult:
    """Partition ``graph`` (already serialised as ``events``) with ``method``.

    Opens a one-shot :class:`~repro.api.session.Session` under an
    equivalent :class:`~repro.api.config.ClusterConfig` and ingests the
    events, so the session's registry build and streaming engine are the
    only implementation of the lifecycle.
    """
    config = ClusterConfig(
        partitions=k,
        method=method,
        capacity=capacity,
        slack=slack,
        window_size=window_size,
        motif_threshold=motif_threshold,
        batch_size=batch_size,
        seed=seed,
        method_options=dict(method_overrides),
    )
    session = Cluster.open(config, workload=workload, rng=rng)
    start = time.perf_counter()
    session.ingest(list(events), graph=graph, stats_hooks=stats_hooks)
    seconds = time.perf_counter() - start
    engine_stats = (
        None if session._spec.kind == OFFLINE else session.engine_stats
    )
    return MethodResult(method, session.assignment, seconds, engine_stats)


def evaluate_assignment(
    graph: LabelledGraph,
    result: MethodResult,
    workload: Workload,
    *,
    executions: int = 120,
    seed: int = 99,
    rng: random.Random | None = None,
    latency: LatencyModel | None = None,
) -> AssignmentEvaluation:
    """Run the sampled query stream against the partitioned store.

    The query sampler draws from ``rng`` when given, else from a fresh
    ``random.Random(seed)`` -- reproducible either way.
    """
    store = DistributedGraphStore(graph, result.assignment)
    stats = _execute_workload(
        store, workload, executions=executions, rng=rng or random.Random(seed)
    )
    model = latency or LatencyModel()
    return AssignmentEvaluation(
        cut_fraction=result.cut_fraction(graph),
        max_load=result.max_load(),
        remote_probability=stats.remote_probability,
        remote_per_query=stats.remote_per_query,
        fully_local_rate=stats.fully_local_rate,
        mean_cost=stats.mean_cost(model),
    )


__all__ = [
    "partition_with",
    "evaluate_assignment",
    "MethodResult",
    "AssignmentEvaluation",
    "STREAMING_METHODS",
    "DEFAULT_LINEUP",
]
