"""Batched mailbox protocol between the coordinator and shard workers.

One duplex :func:`multiprocessing.Pipe` per worker carries a small,
versioned vocabulary of picklable messages.  Requests are *batched* by
construction -- an :class:`ExecuteRequest` ships a whole list of query
payloads in one message, and the matching :class:`ExecuteResponse` ships
every partial result back in one message -- so a full workload run costs
exactly one round trip per worker, not one per query.

The coordinator holds the raw pipe ends: the
:class:`~repro.runtime.pool.WorkerPool` polls them together under one
deadline and turns a broken pipe, an EOF or a silent worker into
:class:`~repro.runtime.pool.WorkerCrashError`, on which the sharded
executor falls back to in-process execution instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.graph.labelled import LabelledGraph
from repro.runtime.snapshot import ShardSnapshot
from repro.workload.query import PatternQuery

#: Rebuilt queries kept by :meth:`QueryPayload.to_query`, least recently
#: used out first: a client sending endless distinct patterns holds at
#: most this many.
QUERY_CACHE_SIZE = 256


@dataclass(frozen=True, slots=True)
class QueryPayload:
    """A pattern query flattened to plain picklable tuples.

    Vertices ship in the pattern graph's insertion order, so the worker
    rebuilds a graph with identical iteration order -- and therefore an
    identical search order -- to the coordinator's.
    """

    name: str
    vertices: tuple[tuple[Any, str], ...]
    edges: tuple[tuple[Any, Any], ...]

    @classmethod
    def from_query(cls, query: PatternQuery) -> "QueryPayload":
        graph = query.graph
        return cls(
            name=query.name,
            vertices=tuple(
                (vertex, graph.label(vertex)) for vertex in graph.vertices()
            ),
            edges=tuple(graph.edges()),
        )

    def to_query(self) -> PatternQuery:
        """The payload's query, rebuilt once per distinct payload, so its
        cached :attr:`~PatternQuery.plan` and |Aut(P)| carry over to
        the next request for the same pattern.  Equal payloads share
        the query: its pattern graph must not be mutated."""
        return _rebuild(self)


@lru_cache(maxsize=QUERY_CACHE_SIZE)
def _rebuild(payload: QueryPayload) -> PatternQuery:
    graph = LabelledGraph()
    for vertex, label in payload.vertices:
        graph.add_vertex(vertex, label)
    for u, v in payload.edges:
        graph.add_edge(u, v)
    return PatternQuery(payload.name, graph)


@dataclass(frozen=True, slots=True)
class Ready:
    """Worker -> coordinator, once, first: the worker is about to read
    its snapshot, so the coordinator's send of an image larger than a
    pipe holds will not block on it."""

    worker_id: int


@dataclass(frozen=True, slots=True)
class Hello:
    """Worker -> coordinator, once, after the shard snapshot imported."""

    worker_id: int
    partitions: tuple[int, ...]
    import_seconds: float


@dataclass(frozen=True, slots=True)
class ExecuteRequest:
    """Coordinator -> worker: run every query against the worker's seeds."""

    request_id: int
    queries: tuple[QueryPayload, ...]
    track_edges: bool = False


@dataclass(frozen=True, slots=True)
class PartialResult:
    """One query's partial execution on one worker's owned partitions.

    ``embeddings`` counts the pattern embeddings under the worker's
    seeds; summing it and the traversal counts across workers
    reproduces the serial execution exactly.
    """

    local: int
    remote: int
    embeddings: int
    edge_counts: tuple[tuple[Any, int], ...] | None


@dataclass(frozen=True, slots=True)
class ExecuteResponse:
    """Worker -> coordinator: every partial result of one request, plus
    the CPU seconds the worker spent producing them (the scaling
    experiment's makespan input).

    ``metrics`` is the worker's flat counter delta for this request --
    ``(name, labels, amount)`` triples in the
    :meth:`repro.obs.MetricsRegistry.merge_delta` wire format.  The
    pool merges the deltas only after a *complete* successful gather,
    so a crashed/hung round trip contributes nothing and a retried
    request never double-counts.
    """

    request_id: int
    worker_id: int
    results: tuple[PartialResult, ...]
    cpu_seconds: float
    metrics: tuple[tuple[str, dict[str, Any], float], ...]


@dataclass(frozen=True, slots=True)
class DeltaRefresh:
    """Compact mutation log between two published store versions.

    ``ops`` is the coordinator store's journal slice -- plain tuples
    tagged ``"v+"``/``"v-"``/``"e+"``/``"e-"``/``"a"``/``"p-"``/``"m"``/
    ``"r+"``/``"r0"`` -- replayed verbatim through the worker replica's
    own mutators (:func:`repro.runtime.worker.apply_delta`).  Replay is
    deterministic: a replica that imported the ``from_version`` image
    reaches byte-for-byte the coordinator's ``to_version`` iteration
    orders, label index and slot recycling.  ``capacity`` ships the
    coordinator's current bound so replayed placements never hit a stale
    ceiling (capacity growth is not a journalled op).
    """

    from_version: int
    to_version: int
    capacity: int
    ops: tuple[tuple, ...]


@dataclass(frozen=True, slots=True)
class RefreshRequest:
    """Coordinator -> worker: bring the resident shard state up to date.

    Exactly one of the two fields is set.  ``snapshot`` replaces the
    whole resident store with the pickled columnar image it carries.
    ``delta`` replays a mutation log into the resident store instead
    (O(changes), the common case).
    """

    snapshot: ShardSnapshot | None = None
    delta: DeltaRefresh | None = None


@dataclass(frozen=True, slots=True)
class RefreshResponse:
    """Worker -> coordinator: refresh outcome.

    ``applied`` is False when a delta's ``from_version`` did not match
    the worker's resident version -- the worker's state is then
    untouched, and ``resident_version`` tells the coordinator what the
    worker still holds (grounds for a full re-prime).
    """

    worker_id: int
    import_seconds: float
    applied: bool = True
    resident_version: int = 0


@dataclass(frozen=True, slots=True)
class ErrorResponse:
    """Worker -> coordinator: a request raised; the traceback rides along."""

    worker_id: int
    traceback: str


@dataclass(frozen=True, slots=True)
class Shutdown:
    """Coordinator -> worker: drain and exit cleanly."""
