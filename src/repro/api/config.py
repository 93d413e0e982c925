"""Cluster configuration: every lifecycle knob, validated once.

:class:`ClusterConfig` is the single value object a caller hands to
:meth:`repro.api.Cluster.open`.  It gathers the knobs that used to be
scattered across harness keyword arguments, ``LoomConfig``
fields, latency-model construction and ad-hoc ``random.Random`` seeding --
and validates all of them at construction, so a session never discovers a
bad parameter halfway through a stream.

The configuration is deliberately JSON-plain (ints, floats, strings, one
options dict): :meth:`ClusterConfig.as_dict` /
:meth:`ClusterConfig.from_dict` round-trip it losslessly, which is what
session snapshots (:meth:`repro.api.Session.snapshot`) persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.latency import LatencyModel
from repro.configbase import ConfigBase
from repro.engine.pipeline import DEFAULT_BATCH_SIZE
from repro.engine.registry import default_registry
from repro.exceptions import ConfigurationError
from repro.runtime.faults import FaultPlan
from repro.stream.orderings import ORDERINGS

#: Durability modes: ``off`` keeps everything in memory, ``wal``
#: write-ahead-logs every effective mutation (plus periodic columnar
#: checkpoints) so a crashed session recovers via ``Cluster.recover``.
DURABILITY_MODES = ("off", "wal")


@dataclass(frozen=True, slots=True)
class DurabilityConfig(ConfigBase):
    """Knobs of the write-ahead log (:mod:`repro.runtime.wal`).

    ``mode``
        ``"off"`` (default) or ``"wal"``.  With ``"wal"`` every
        effective store mutation is appended to a checksummed log under
        ``wal_dir`` the moment it applies, and the session checkpoints
        a full columnar image every ``checkpoint_interval`` ops --
        :meth:`repro.api.Cluster.recover` rebuilds the exact resident
        state from the newest checkpoint plus the log tail.
    ``wal_dir``
        Directory of the log (required when ``mode="wal"``).  One
        directory serves exactly one session at a time; opening a fresh
        session over a directory that already holds durable state
        raises (recover or empty it first).
    ``sync``
        Per-record sync policy.  ``"off"`` buffers in-process (fastest;
        a crash loses the buffered tail), ``"async"`` (default) flushes
        each record to the OS page cache (survives ``kill -9`` of the
        process, not power loss), ``"fsync"`` additionally forces the
        disk write (survives power loss, costs a disk round-trip per
        mutation).
    ``checkpoint_interval``
        Ops between automatic checkpoints.  Smaller = faster recovery,
        more checkpoint I/O during ingest.
    ``segment_bytes``
        Log-segment rotation threshold.
    """

    mode: str = "off"
    wal_dir: str | None = None
    sync: str = "async"
    checkpoint_interval: int = 4096
    segment_bytes: int = 4 * 1024 * 1024

    def __post_init__(self) -> None:
        from repro.runtime.wal import SYNC_POLICIES

        if self.mode not in DURABILITY_MODES:
            raise ConfigurationError(
                f"unknown durability mode {self.mode!r}; choose from "
                f"{DURABILITY_MODES}"
            )
        if self.mode == "wal" and not self.wal_dir:
            raise ConfigurationError(
                "durability mode 'wal' requires wal_dir"
            )
        if self.sync not in SYNC_POLICIES:
            raise ConfigurationError(
                f"unknown sync policy {self.sync!r}; choose from "
                f"{SYNC_POLICIES}"
            )
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")
        if self.segment_bytes < 4096:
            raise ConfigurationError("segment_bytes must be >= 4096")

    @property
    def enabled(self) -> bool:
        return self.mode == "wal"


@dataclass(frozen=True, slots=True)
class WorkerConfig(ConfigBase):
    """Knobs of the sharded multi-process runtime (:mod:`repro.runtime`).

    ``count``
        Worker processes queries fan out across.  ``1`` (the default)
        keeps everything in-process; the pool itself additionally caps
        the count at ``partitions`` (ownership is per-partition).  Any
        per-call ``workers=`` argument overrides this.
    ``start_method``
        ``multiprocessing`` start method: ``"spawn"`` (default; fresh
        interpreter per worker, identical semantics on every platform),
        ``"fork"`` (POSIX only, much faster to boot) or
        ``"forkserver"``.  All are deterministic here -- workers derive
        every byte of state from the pickled shard snapshot -- but fork
        can inherit accidental parent state (open files, import-time
        caches), so spawn is the default.
    ``request_timeout``
        Seconds the coordinator waits on a worker's mailbox before
        declaring it crashed.
    ``fallback_serial``
        When True (default), a crashed/hung worker degrades the call to
        in-process serial execution with a ``RuntimeWarning`` instead of
        raising -- same results, no parallelism.  When False the
        :class:`~repro.runtime.pool.WorkerCrashError` propagates.
    ``max_delta_events``
        Journal capacity.  Stale workers are re-primed by replaying the
        coordinator's journalled mutations in place (O(changes));
        mutations beyond this between two refreshes overflow the journal
        and force a full-snapshot refresh (a delta bigger than the graph
        defeats its purpose), as do first boot and version gaps.
    ``max_retries``
        How many times a parallel call is retried (respawning the pool
        as needed) after a worker crash/hang before the session gives
        up -- and only then degrades to serial (``fallback_serial=True``)
        or raises.  ``0`` restores the old one-shot behaviour.
    ``retry_backoff``
        Base seconds slept before a retry, doubled per attempt and
        jittered (seeded by the cluster seed, so runs stay
        reproducible).  ``0`` retries immediately.
    ``fault_plan``
        Optional :class:`~repro.runtime.faults.FaultPlan` of scripted
        worker failures (deterministic fault-injection tests only).
    """

    #: Written by earlier versions (``wal_dir/config.json``, snapshot
    #: ``"config"`` blocks, serve config files).  Delta-vs-full refresh
    #: and shm-vs-inline transport are now chosen from what the session
    #: observes, so the keys are dropped on load.
    retired_keys = ("refresh_mode", "shared_memory")

    count: int = 1
    start_method: str = "spawn"
    request_timeout: float = 60.0
    fallback_serial: bool = True
    max_delta_events: int = 8192
    max_retries: int = 2
    retry_backoff: float = 0.05
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        from repro.runtime.pool import START_METHODS

        if isinstance(self.fault_plan, dict):
            # Accept the JSON-plain spelling (snapshots, kwargs).
            object.__setattr__(
                self, "fault_plan", FaultPlan.from_dict(self.fault_plan)
            )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan (or its dict form), "
                f"got {self.fault_plan!r}"
            )
        if self.count < 1:
            raise ConfigurationError("worker count must be >= 1")
        if self.start_method not in START_METHODS:
            raise ConfigurationError(
                f"unknown start method {self.start_method!r}; choose from "
                f"{START_METHODS}"
            )
        if not self.request_timeout > 0:
            raise ConfigurationError("request_timeout must be positive")
        if self.max_delta_events < 1:
            raise ConfigurationError("max_delta_events must be >= 1")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be >= 0")


@dataclass(frozen=True, slots=True)
class ClusterConfig(ConfigBase):
    """All knobs of a simulated cluster session in one validated object.

    ``partitions``
        Number of partitions ``k``.
    ``method``
        Any partitioner in the method table of
        :mod:`repro.engine.registry` (``hash``,
        ``ldg``, ``fennel``, ``offline``, ``loom``, ...).  Resolved --
        and therefore validated -- at construction.
    ``capacity`` / ``slack``
        Per-partition vertex capacity ``C``.  When ``capacity`` is
        ``None`` it is resolved on first ingest as
        ``ceil(slack * n / k)`` over the ingested vertices (the paper's
        balance constraint).
    ``window_size`` / ``motif_threshold``
        LOOM's sliding-window length and frequent-motif threshold ``T``
        (ignored by workload-agnostic methods).
    ``batch_size``
        Streaming-engine batch granularity (stats/hook cadence only;
        never placement semantics).
    ``ordering``
        Stream ordering used when a session must serialise a graph itself
        (ingesting a graph or dataset, repartitioning the resident
        graph).  One of :data:`repro.stream.orderings.ORDERINGS`.
    ``local_cost`` / ``remote_cost``
        The :class:`~repro.cluster.latency.LatencyModel` used to price
        query traversals in reports.
    ``replication_budget``
        Default replica budget for :meth:`repro.api.Session.replicate`
        (0 disables replication unless a call overrides it).
    ``seed``
        Master seed.  Every random draw a session makes (stream
        serialisation, dataset generation, query sampling, partitioner
        tie-breaking) flows from this seed through derived
        ``random.Random`` instances -- the module-global generator is
        never touched.
    ``method_options``
        Extra method-specific overrides forwarded to the partitioner
        builder (e.g. LOOM's ``max_group_size`` or ``group_matches``).
        Only the names in the method's
        :attr:`~repro.engine.registry.PartitionerSpec.options` are
        accepted.
    ``worker``
        :class:`WorkerConfig` of the sharded multi-process runtime
        (worker count, start method, timeout, crash fallback).  The
        default runs everything in-process.
    ``durability``
        :class:`DurabilityConfig` of the write-ahead log.  The default
        keeps everything in memory (the pre-WAL behaviour).
    """

    partitions: int = 4
    method: str = "loom"
    capacity: int | None = None
    slack: float = 1.2
    window_size: int = 128
    motif_threshold: float = 0.2
    batch_size: int = DEFAULT_BATCH_SIZE
    ordering: str = "random"
    local_cost: float = 1.0
    remote_cost: float = 100.0
    replication_budget: int = 0
    seed: int = 0
    method_options: dict[str, Any] = field(default_factory=dict)
    worker: WorkerConfig = field(default_factory=WorkerConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)

    def __post_init__(self) -> None:
        if isinstance(self.worker, dict):
            # Accept the JSON-plain spelling (snapshots, kwargs).
            object.__setattr__(
                self, "worker", WorkerConfig.from_dict(self.worker)
            )
        if not isinstance(self.worker, WorkerConfig):
            raise ConfigurationError(
                f"worker must be a WorkerConfig (or its dict form), "
                f"got {self.worker!r}"
            )
        if isinstance(self.durability, dict):
            object.__setattr__(
                self,
                "durability",
                DurabilityConfig.from_dict(self.durability),
            )
        if not isinstance(self.durability, DurabilityConfig):
            raise ConfigurationError(
                f"durability must be a DurabilityConfig (or its dict "
                f"form), got {self.durability!r}"
            )
        if self.partitions < 1:
            raise ConfigurationError("partitions must be >= 1")
        if self.capacity is not None and self.capacity < 1:
            raise ConfigurationError("capacity must be >= 1 (or None)")
        if self.slack < 1.0:
            raise ConfigurationError(
                "slack below 1.0 cannot fit all vertices"
            )
        if self.window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        if self.motif_threshold <= 0:
            raise ConfigurationError("motif_threshold must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.ordering not in ORDERINGS:
            raise ConfigurationError(
                f"unknown ordering {self.ordering!r}; choose from "
                f"{sorted(ORDERINGS)}"
            )
        if self.replication_budget < 0:
            raise ConfigurationError("replication_budget must be >= 0")
        if self.method not in default_registry:
            raise ConfigurationError(
                f"unknown method {self.method!r}; known methods: "
                f"{', '.join(default_registry.names())}"
            )
        accepted = default_registry.resolve(self.method).options
        unknown = sorted(set(self.method_options) - accepted)
        if unknown:
            raise ConfigurationError(
                f"method {self.method!r} does not accept method_options "
                f"{unknown}; accepted: {sorted(accepted)}"
            )
        # Latency-model invariants (non-negative, remote >= local) are
        # checked by constructing the model once here.
        self.latency_model()

    # ------------------------------------------------------------------
    def latency_model(self) -> LatencyModel:
        """The traversal cost model these knobs describe."""
        return LatencyModel(
            local_cost=self.local_cost, remote_cost=self.remote_cost
        )
