"""Partitioner registry: the one table of every method the repo runs.

The paper measures one streaming pipeline (LOOM) against a fixed set of
baselines, so the methods are not plug-ins: :data:`_METHODS` names all
of them once, with their capability metadata -- streaming vs offline,
whether a workload is required, the option names a
``ClusterConfig.method_options`` may set -- and :data:`default_registry`
is the lookup the session, the CLI and the benchmark probes resolve
names through.  Every provider sits below this module, so the table is
built once, at import.

A :class:`PartitionRequest` carries everything a builder might need (the
graph, the serialised event stream, ``k``/capacity/slack, the workload,
LOOM knobs, seeding).  Builders pick what they use, and this module is
the one place a request becomes a partitioner:

* ``kind="streaming"`` builders return an object the
  :class:`~repro.engine.pipeline.StreamingEngine` can drive (a
  :class:`~repro.partitioning.base.StreamingVertexPartitioner`, lifted by
  :func:`~repro.engine.pipeline.as_stream_partitioner`, or LOOM);
* ``kind="offline"`` builders consume the whole graph and return the
  finished :class:`~repro.partitioning.base.PartitionAssignment` directly.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from typing import Any

from repro.core.config import LoomConfig
from repro.core.loom import LoomPartitioner
from repro.core.traversal_aware import TraversalAwareLDG
from repro.engine.workload_offline import workload_aware_multilevel
from repro.graph.labelled import LabelledGraph
from repro.partitioning.base import default_capacity
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.hashing import HashPartitioner, RandomPartitioner
from repro.partitioning.offline import multilevel_partition
from repro.partitioning.streaming import (
    BalancedPartitioner,
    ChunkingPartitioner,
    DeterministicGreedy,
    ExponentialDeterministicGreedy,
    LinearDeterministicGreedy,
)
from repro.stream.events import StreamEvent
from repro.stream.sources import replay
from repro.tpstry.trie import TPSTryPP

STREAMING = "streaming"
OFFLINE = "offline"


class UnknownPartitionerError(ValueError):
    """Raised when a name is not in the registry (a ``ValueError`` so
    pre-registry call sites that caught ``ValueError`` keep working)."""


@dataclass
class PartitionRequest:
    """Everything a partitioner builder may draw on, in one value object."""

    #: The materialised graph the events replay, when the caller has one.
    graph: LabelledGraph | None
    events: Sequence[StreamEvent] = ()
    k: int = 2
    capacity: int | None = None
    slack: float = 1.2
    workload: Any | None = None
    window_size: int = 128
    motif_threshold: float = 0.2
    seed: int = 0
    rng: random.Random | None = None
    #: Extra method-specific keyword overrides (e.g. LOOM config knobs);
    #: the names a method accepts are its spec's ``options``.
    options: dict[str, Any] = field(default_factory=dict)

    def resolved_capacity(self) -> int:
        """The explicit capacity, or the usual ``ceil(slack * n / k)``."""
        if self.capacity is not None:
            return self.capacity
        return default_capacity(self.size_hint()[0], self.k, self.slack)

    def size_hint(self) -> tuple[int, int]:
        """``(vertices, edges)`` of the graph this request partitions:
        the caller's graph when given, else what the events replay to."""
        graph = self.graph if self.graph is not None else replay(self.events)
        return graph.num_vertices, graph.num_edges

    def resolved_rng(self) -> random.Random:
        """The injected RNG, or a fresh one seeded from ``seed``.

        Every randomised component receives this instance (or a derived
        seed) rather than touching the module-global ``random`` state, so
        runs are reproducible by construction.
        """
        if self.rng is None:
            self.rng = random.Random(self.seed)
        return self.rng


@dataclass(frozen=True)
class PartitionerSpec:
    """One method: its name, builder and capabilities."""

    name: str
    build: Callable[[PartitionRequest], Any]
    description: str
    kind: str = STREAMING  # or OFFLINE
    needs_workload: bool = False
    #: ``PartitionRequest.options`` names the builder accepts (what a
    #: ``ClusterConfig.method_options`` may set); empty for most methods.
    options: frozenset[str] = frozenset()

    @property
    def is_streaming(self) -> bool:
        return self.kind == STREAMING

    def check_request(self, request: PartitionRequest) -> None:
        """Validate a request against this spec's capability metadata."""
        if self.needs_workload and request.workload is None:
            raise ValueError(f"method {self.name!r} needs a workload")


def _fennel(request: PartitionRequest) -> FennelPartitioner:
    vertices, edges = request.size_hint()
    return FennelPartitioner(
        expected_vertices=vertices,
        expected_edges=edges,
        balance_slack=request.slack,
    )


def _offline(request: PartitionRequest) -> Any:
    return multilevel_partition(
        request.graph, request.k, capacity=request.resolved_capacity(),
        rng=request.resolved_rng(), **request.options,
    )


def _offline_wa(request: PartitionRequest) -> Any:
    return workload_aware_multilevel(
        request.graph, request.workload, request.k,
        capacity=request.resolved_capacity(),
        rng=request.resolved_rng(), **request.options,
    )


def _loom(
    request: PartitionRequest, *, traversal_aware: bool = False
) -> LoomPartitioner:
    """Assemble the LOOM config from a request; every ``LoomConfig``
    field it does not fill is a request option (:data:`_LOOM_OPTIONS`)."""
    config = LoomConfig(
        k=request.k,
        capacity=request.resolved_capacity(),
        window_size=request.window_size,
        motif_threshold=request.motif_threshold,
        traversal_aware_singles=traversal_aware,
        **request.options,
    )
    return LoomPartitioner(request.workload, config)


#: The LoomConfig knobs a request may override: all but the ones
#: :func:`_loom` fills itself.
_LOOM_OPTIONS = frozenset(f.name for f in fields(LoomConfig)) - {
    "k", "capacity", "window_size", "motif_threshold",
    "traversal_aware_singles",
}

#: Every method, in the order :meth:`PartitionerRegistry.names` lists them.
_METHODS: tuple[PartitionerSpec, ...] = (
    PartitionerSpec(
        "hash", lambda request: HashPartitioner(),
        "Stable-hash placement (the GDBMS default baseline)",
    ),
    PartitionerSpec(
        "random", lambda request: RandomPartitioner(request.resolved_rng()),
        "Uniformly random feasible placement",
    ),
    PartitionerSpec(
        "balanced", lambda request: BalancedPartitioner(),
        "Least-loaded placement, edges ignored (balance-only baseline)",
    ),
    PartitionerSpec(
        "chunking", lambda request: ChunkingPartitioner(),
        "Fill partitions in arrival order (chunking baseline)",
    ),
    PartitionerSpec(
        "greedy", lambda request: DeterministicGreedy(),
        "Unweighted greedy neighbour count (cautionary baseline)",
    ),
    PartitionerSpec(
        "ldg", lambda request: LinearDeterministicGreedy(),
        "Linear Deterministic Greedy -- LOOM's base heuristic",
    ),
    PartitionerSpec(
        "edg", lambda request: ExponentialDeterministicGreedy(),
        "Exponentially weighted deterministic greedy",
    ),
    PartitionerSpec(
        "fennel", _fennel,
        "Fennel interpolated-objective streaming partitioner (WSDM'14)",
    ),
    PartitionerSpec(
        "offline", _offline,
        "Multilevel (METIS-style) offline partitioner -- the "
        "structure-only quality bound",
        kind=OFFLINE,
        options=frozenset({"coarsen_to", "refinement_passes", "edge_weights"}),
    ),
    PartitionerSpec(
        "ta-ldg",
        lambda request: TraversalAwareLDG(
            TPSTryPP.from_workload(request.workload)
        ),
        "LDG weighted by TPSTry++ edge-traversal probabilities "
        "(section-5 extension, standalone)",
        needs_workload=True,
    ),
    PartitionerSpec(
        "loom", _loom,
        "LOOM: workload-aware streaming partitioner over a sliding "
        "window (paper section 4)",
        needs_workload=True,
        options=_LOOM_OPTIONS,
    ),
    PartitionerSpec(
        "loom_ta",
        lambda request: _loom(request, traversal_aware=True),
        "LOOM with traversal-aware single-vertex placement "
        "(section-5 extension)",
        needs_workload=True,
        options=_LOOM_OPTIONS,
    ),
    PartitionerSpec(
        "offline_wa", _offline_wa,
        "Workload-aware offline skyline: profile -> edge weights -> "
        "weighted multilevel",
        kind=OFFLINE,
        needs_workload=True,
        options=frozenset({"executions", "base_weight"}),
    ),
)


class PartitionerRegistry:
    """Name -> :class:`PartitionerSpec` lookup over :data:`_METHODS`."""

    def __init__(self) -> None:
        self._specs = {spec.name: spec for spec in _METHODS}

    def resolve(self, name: str) -> PartitionerSpec:
        """The spec listed under ``name`` (``ValueError`` if unknown)."""
        spec = self._specs.get(name)
        if spec is None:
            raise UnknownPartitionerError(
                f"unknown method {name!r}; known methods: "
                f"{', '.join(sorted(self._specs))}"
            )
        return spec

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def names(self) -> tuple[str, ...]:
        """Every method name, in table order."""
        return tuple(self._specs)

    def specs(self) -> tuple[PartitionerSpec, ...]:
        """Every method spec, in table order."""
        return tuple(self._specs.values())


#: The process-wide lookup over the method table.
default_registry = PartitionerRegistry()
