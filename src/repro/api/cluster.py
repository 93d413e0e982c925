"""The entry point: open a fresh :class:`~repro.api.session.Session` or
recover a durable one from its write-ahead-log directory."""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Any

from repro.api.config import ClusterConfig
from repro.api.durability import recover_state
from repro.api.session import Session
from repro.workload.workloads import Workload


class Cluster:
    """Entry point: open a fresh session or recover a durable one."""

    @classmethod
    def open(
        cls,
        config: ClusterConfig | None = None,
        *,
        workload: Workload | None = None,
        rng: random.Random | None = None,
        **overrides: Any,
    ) -> Session:
        """Start a session for ``config``; ``rng`` overrides the
        partitioner-builder randomness, keyword ``overrides`` build a
        config in place: ``Cluster.open(method="ldg", partitions=8)``."""
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        return Session(config, workload=workload, rng=rng)

    @classmethod
    def recover(
        cls,
        wal_dir: str | Path,
        *,
        workload: Workload | None = None,
        config: ClusterConfig | None = None,
    ) -> Session:
        """Rebuild a crashed (or closed) durable session from its WAL
        directory: newest valid checkpoint plus op-log tail, a torn tail
        truncated, byte-identical to the session at its last durable
        mutation.  ``config`` overrides the directory's ``config.json``
        (same partition count).  The session checkpoints at once, keeps
        logging, and reports what replay found on ``Session.recovery``."""
        config, store, info = recover_state(wal_dir, config)
        session = Session(config, workload=workload)
        session._pipeline.store = store
        session._recovery = info
        session._durability.bind(store, config, fresh=False)
        return session
