"""Typed serving configuration: tenants and the daemon endpoint.

Follows the :mod:`repro.api.config` discipline: frozen dataclasses
validated once in ``__post_init__``, dict round-trips that reject
unknown keys, nested configs coerced from plain dicts so a whole
deployment serialises to one JSON document (what ``loom-repro serve
--config`` reads).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.config import ClusterConfig
from repro.configbase import ConfigBase
from repro.datasets import DATASETS
from repro.exceptions import ConfigurationError
from repro.serve.protocol import MAX_FRAME_BYTES

#: Default TCP port ("LOOM" on a phone keypad, folded into range).
DEFAULT_PORT = 7466


@dataclass(frozen=True, slots=True)
class TenantConfig(ConfigBase):
    """One named cluster the daemon hosts, plus its quotas.

    ``max_inflight`` bounds the requests admitted but not yet answered
    for this tenant -- the one admission cap: past it a request answers
    ``busy``, so the tenant's executor never holds more than
    ``max_inflight`` commands.  ``default_deadline`` applies to requests
    that carry no explicit deadline; a request still unstarted when its
    deadline passes is answered ``deadline`` without touching the
    session.  ``workload_dataset`` optionally pre-binds the bundled
    workload of a named dataset so ``workload``/``query`` verbs work
    before any ingest names one.
    """

    name: str
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    max_inflight: int = 8
    default_deadline: float = 60.0
    workload_dataset: str | None = None

    #: ``max_pending`` capped a command queue ``max_inflight`` already
    #: bounded below it.
    retired_keys = ("max_pending",)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("tenant name must be a non-empty str")
        if isinstance(self.cluster, dict):
            object.__setattr__(
                self, "cluster", ClusterConfig.from_dict(self.cluster)
            )
        elif not isinstance(self.cluster, ClusterConfig):
            raise ConfigurationError(
                "cluster must be a ClusterConfig (or its dict form)"
            )
        if self.max_inflight < 1:
            raise ConfigurationError("max_inflight must be >= 1")
        if self.default_deadline <= 0:
            raise ConfigurationError("default_deadline must be positive")
        if self.workload_dataset is not None and (
            self.workload_dataset not in DATASETS
        ):
            raise ConfigurationError(
                f"unknown workload_dataset {self.workload_dataset!r}; "
                f"choose from {sorted(DATASETS)}"
            )


@dataclass(frozen=True, slots=True)
class ServeConfig(ConfigBase):
    """The daemon endpoint plus every tenant it hosts."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    tenants: tuple[TenantConfig, ...] = ()
    max_frame_bytes: int = MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("host must be a non-empty str")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        tenants = tuple(
            TenantConfig.from_dict(t) if isinstance(t, dict) else t
            for t in self.tenants
        )
        for tenant in tenants:
            if not isinstance(tenant, TenantConfig):
                raise ConfigurationError(
                    "tenants must be TenantConfigs (or their dict forms)"
                )
        object.__setattr__(self, "tenants", tenants)
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate tenant names in {names}"
            )
        if not 1024 <= self.max_frame_bytes <= MAX_FRAME_BYTES:
            raise ConfigurationError(
                f"max_frame_bytes must be in [1024, {MAX_FRAME_BYTES}]"
            )

    @classmethod
    def from_file(cls, path: str | Path) -> "ServeConfig":
        """Load a deployment from its JSON document."""
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )
