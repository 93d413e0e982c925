"""Partitioner registry: one discovery surface for every method.

Partitioner dispatch has one owner, :class:`PartitionerRegistry`:
streaming and offline partitioners *self-register* (via the
:meth:`PartitionerRegistry.register` decorator or
:meth:`PartitionerRegistry.add`) together with capability
metadata -- streaming vs offline, whether a workload is required -- so the
session, the CLI and future executors discover methods through one uniform
interface.

A :class:`PartitionRequest` carries everything a builder might need (the
graph, the serialised event stream, ``k``/capacity/slack, the workload,
LOOM knobs, seeding).  Builders pick what they use:

* ``kind="streaming"`` builders return an object the
  :class:`~repro.engine.pipeline.StreamingEngine` can drive (either a
  :class:`~repro.partitioning.base.StreamingVertexPartitioner` or a
  windowed partitioner exposing ``process``/``flush``/``assignment``);
* ``kind="offline"`` builders consume the whole graph and return the
  finished :class:`~repro.partitioning.base.PartitionAssignment` directly.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import PartitioningError
from repro.graph.labelled import LabelledGraph
from repro.partitioning.base import default_capacity
from repro.stream.events import StreamEvent
from repro.stream.sources import replay

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
    """One registered method: its name, capabilities and builder."""

    name: str
    kind: str  # STREAMING or OFFLINE
    build: Callable[[PartitionRequest], Any]
    needs_workload: bool = False
    description: str = ""
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


class PartitionerRegistry:
    """Name -> :class:`PartitionerSpec` mapping with self-registration."""

    def __init__(self) -> None:
        self._specs: dict[str, PartitionerSpec] = {}
        self._builtins_loaded = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        *,
        kind: str,
        build: Callable[[PartitionRequest], Any],
        needs_workload: bool = False,
        description: str = "",
        options: Iterable[str] = (),
    ) -> PartitionerSpec:
        """Register a method under ``name`` (names are unique)."""
        if kind not in (STREAMING, OFFLINE):
            raise PartitioningError(
                f"kind must be {STREAMING!r} or {OFFLINE!r}, got {kind!r}"
            )
        if name in self._specs:
            raise PartitioningError(f"partitioner {name!r} already registered")
        spec = PartitionerSpec(
            name=name,
            kind=kind,
            build=build,
            needs_workload=needs_workload,
            description=description,
            options=frozenset(options),
        )
        self._specs[name] = spec
        return spec

    def register(
        self,
        name: str,
        *,
        kind: str = STREAMING,
        needs_workload: bool = False,
        description: str = "",
    ):
        """Class decorator form of :meth:`add`.

        The decorated class is built through its ``from_request``
        classmethod when it defines one (letting constructors draw stream
        statistics, RNGs or workloads from the request), and through its
        zero-argument constructor otherwise.
        """

        def decorate(cls):
            def build(request: PartitionRequest):
                factory = getattr(cls, "from_request", None)
                if factory is not None:
                    return factory(request)
                return cls()

            self.add(
                name,
                kind=kind,
                build=build,
                needs_workload=needs_workload,
                description=description
                or next(iter((cls.__doc__ or "").strip().splitlines()), ""),
            )
            return cls

        return decorate

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def resolve(self, name: str) -> PartitionerSpec:
        """The spec registered under ``name`` (``ValueError`` if unknown)."""
        self._ensure_builtins()
        spec = self._specs.get(name)
        if spec is None:
            raise UnknownPartitionerError(
                f"unknown method {name!r}; known methods: "
                f"{', '.join(sorted(self._specs))}"
            )
        return spec

    def __contains__(self, name: object) -> bool:
        self._ensure_builtins()
        return name in self._specs

    def names(
        self, *, kind: str | None = None, needs_workload: bool | None = None
    ) -> tuple[str, ...]:
        """Registered names, optionally filtered by capability."""
        return tuple(spec.name for spec in self.specs(kind=kind, needs_workload=needs_workload))

    def specs(
        self, *, kind: str | None = None, needs_workload: bool | None = None
    ) -> tuple[PartitionerSpec, ...]:
        """Registered specs, optionally filtered by capability."""
        self._ensure_builtins()
        out = []
        for spec in self._specs.values():
            if kind is not None and spec.kind != kind:
                continue
            if needs_workload is not None and spec.needs_workload != needs_workload:
                continue
            out.append(spec)
        return tuple(out)

    # ------------------------------------------------------------------
    def _ensure_builtins(self) -> None:
        """Import the provider modules once so their decorators run.

        Lazy so that ``repro.engine`` itself stays import-cycle-free: the
        providers import ``repro.engine.registry``, never the other way
        round at module import time.
        """
        if self._builtins_loaded:
            return
        self._builtins_loaded = True
        import repro.core.loom  # noqa: F401  (loom / loom_ta)
        import repro.core.traversal_aware  # noqa: F401  (ta-ldg)
        import repro.partitioning  # noqa: F401  (streaming family + offline)
        import repro.partitioning.workload_offline  # noqa: F401  (offline_wa)


#: The process-wide registry every built-in method self-registers into.
default_registry = PartitionerRegistry()
