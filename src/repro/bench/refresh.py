"""Delta-refresh vs full-snapshot republication (experiment E15's engine).

Measures what a resident worker pool pays to get back in sync after the
coordinator's store mutates: the pre-PR-6 path re-encodes the whole
columnar snapshot and ships it to every worker (``WorkerPool.refresh``),
the delta path drains the store's mutation journal and ships only the
op log for workers to replay in place (``WorkerPool.refresh_delta``).
Both paths are timed end to end as a session pays them -- snapshot
encoding / journal draining included -- against the same E14 motif
testbed, mutation size by mutation size.

Every repeat performs a *fresh* mutation cycle (remove ``m`` edges,
re-add the same ``m`` edges: state nets out identical while the store
version advances), because replaying one delta twice would trip the
pool's from-version guard by design.

The headline number is ``refresh_delta_speedup``: full/delta latency
at the smallest measured mutation size (the "<= 1% of edges changed"
regime where delta refresh is the whole point).
"""

from __future__ import annotations

import pickle
import random
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.runtime.mailbox import DeltaRefresh
from repro.runtime.pool import WorkerPool
from repro.runtime.snapshot import ShardSnapshot


@dataclass(frozen=True, slots=True)
class RefreshPoint:
    """One mutation size's measured refresh latencies (best of repeats)."""

    mutations: int
    mutated_fraction: float
    delta_ops: int
    delta_bytes: int
    full_bytes: int
    delta_seconds: float
    full_seconds: float

    @property
    def speedup(self) -> float:
        """Full-snapshot latency over delta latency (higher = delta wins)."""
        return (
            self.full_seconds / self.delta_seconds
            if self.delta_seconds > 0
            else 0.0
        )

    @property
    def bytes_ratio(self) -> float:
        """Full-snapshot payload bytes over delta payload bytes."""
        return self.full_bytes / self.delta_bytes if self.delta_bytes else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "mutations": self.mutations,
            "mutated_fraction": round(self.mutated_fraction, 4),
            "delta_ops": self.delta_ops,
            "delta_bytes": self.delta_bytes,
            "full_bytes": self.full_bytes,
            "delta_seconds": round(self.delta_seconds, 6),
            "full_seconds": round(self.full_seconds, 6),
            "speedup": round(self.speedup, 2),
            "bytes_ratio": round(self.bytes_ratio, 2),
        }


@dataclass(frozen=True, slots=True)
class RefreshResult:
    """The full mutation-size sweep against one resident pool."""

    graph_vertices: int
    graph_edges: int
    partitions: int
    workers: int
    start_method: str
    snapshot_bytes: int
    points: tuple[RefreshPoint, ...]

    @property
    def headline_speedup(self) -> float:
        """Delta-vs-full speedup at the smallest mutation size measured."""
        if not self.points:
            return 0.0
        return min(self.points, key=lambda p: p.mutations).speedup

    def as_dict(self) -> dict[str, Any]:
        return {
            "graph_vertices": self.graph_vertices,
            "graph_edges": self.graph_edges,
            "partitions": self.partitions,
            "workers": self.workers,
            "start_method": self.start_method,
            "snapshot_bytes": self.snapshot_bytes,
            "mutations": {
                str(point.mutations): point.as_dict() for point in self.points
            },
            "speedups": {
                "refresh_delta_speedup": round(self.headline_speedup, 2)
            },
        }


def _payload_bytes(delta: DeltaRefresh) -> int:
    """Wire size of a delta: what the mailbox pipe actually carries."""
    return len(pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL))


def run_refresh_benchmark(
    *,
    seed: int = 0,
    mutation_sizes: Sequence[int] = (2, 8, 64, 256),
    instances: int = 40,
    noise: int = 150,
    partitions: int = 8,
    workers: int = 2,
    start_method: str | None = None,
    request_timeout: float = 120.0,
    repeats: int = 15,
) -> RefreshResult:
    """Measure delta vs full refresh latency on the E14 motif testbed.

    Builds one placed cluster (LDG, ``partitions`` shards), boots a
    resident ``workers``-process pool from a shared-memory snapshot,
    then for each mutation size ``m`` alternates fresh mutation cycles
    (remove+re-add ``m`` edges = ``2m`` journalled ops) refreshed via
    the delta path and via full-snapshot republication.  Each timed
    section covers everything the session façade pays for that path:
    journal drain + ``DeltaRefresh`` construction + broadcast + replay,
    or columnar re-encode + segment publish + worker decode.  Best of
    ``repeats`` per mode, as usual for latency microbenchmarks.
    """
    from repro.api import Cluster, ClusterConfig
    from repro.bench.experiments import _motif_testbed
    from repro.bench.scaling import default_start_method

    graph, workload = _motif_testbed(seed, instances=instances, noise=noise)
    session = Cluster.open(
        ClusterConfig(partitions=partitions, method="ldg", seed=seed),
        workload=workload,
    )
    session.ingest(graph, seed=seed + 1)
    store = session.store
    method = start_method or default_start_method()
    rng = random.Random(seed + 17)
    edges = list(store.graph.edges())
    sizes = tuple(sorted(set(mutation_sizes)))
    if not sizes or sizes[0] < 1:
        raise ValueError("mutation_sizes must be positive")
    if sizes[-1] > len(edges):
        raise ValueError(
            f"largest mutation size {sizes[-1]} exceeds |E|={len(edges)}"
        )
    store.enable_journal(4 * sizes[-1] + 16)

    def mutate(count: int) -> None:
        # Remove then re-add the same edges: the graph nets out
        # byte-identical while the store version advances by 2*count --
        # a fresh, replayable delta every cycle.
        chosen = rng.sample(edges, count)
        for u, v in chosen:
            store.remove_edge(u, v)
        for u, v in chosen:
            store.add_edge(u, v)

    snapshot = ShardSnapshot.of(store, version=store.mutation_ticks)
    snapshot_bytes = snapshot.num_bytes
    points = []
    with WorkerPool(
        snapshot,
        workers=workers,
        start_method=method,
        timeout=request_timeout,
    ) as pool:
        store.restart_journal()
        for count in sizes:
            delta_best = float("inf")
            full_best = float("inf")
            delta_bytes = 0
            full_bytes = 0
            for _ in range(max(1, repeats)):
                mutate(count)
                began = time.perf_counter()
                ops = store.drain_journal()
                assert ops is not None and len(ops) == 2 * count
                delta = DeltaRefresh(
                    from_version=pool.version,
                    to_version=store.mutation_ticks,
                    capacity=store.assignment.capacity,
                    ops=ops,
                )
                pool.refresh_delta(delta)
                delta_best = min(delta_best, time.perf_counter() - began)
                delta_bytes = _payload_bytes(delta)
                store.restart_journal()

                mutate(count)
                began = time.perf_counter()
                snap = ShardSnapshot.of(store, version=store.mutation_ticks)
                pool.refresh(snap)
                full_best = min(full_best, time.perf_counter() - began)
                full_bytes = snap.num_bytes
                store.restart_journal()
            points.append(
                RefreshPoint(
                    mutations=count,
                    mutated_fraction=count / len(edges),
                    delta_ops=2 * count,
                    delta_bytes=delta_bytes,
                    full_bytes=full_bytes,
                    delta_seconds=delta_best,
                    full_seconds=full_best,
                )
            )
    return RefreshResult(
        graph_vertices=graph.num_vertices,
        graph_edges=graph.num_edges,
        partitions=partitions,
        workers=pool.worker_count,
        start_method=method,
        snapshot_bytes=snapshot_bytes,
        points=tuple(points),
    )
