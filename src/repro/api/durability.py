"""The session's write-ahead-log binding, and recovery from a WAL directory.

:class:`WalBinding` owns the session's :class:`~repro.runtime.wal.DurableLog`
-- bound when the store appears (or is recovered), committed after
every engine batch and every command, released on close -- and keeps
the totals of the log it released, so ``resilience`` still reports
them after ``close()``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.api.config import ClusterConfig
from repro.cluster.store import DistributedGraphStore
from repro.exceptions import SessionError
from repro.runtime.wal import DurableLog, RecoveryInfo, has_state, recover_store


class WalBinding:
    """The live durable log of one session, plus the totals of the log
    it released (read after ``close()``).

    Not thread-safe: the session calls it only under its command lock,
    except :meth:`release`, which ``Session.close`` calls lock-free
    under its own close mutex.
    """

    def __init__(self) -> None:
        self.log: DurableLog | None = None
        self._records = 0
        self._checkpoints = 0

    @property
    def records(self) -> int:
        """WAL records written by every log, released or live."""
        return self._records + (self.log.records if self.log else 0)

    @property
    def checkpoints(self) -> int:
        """Checkpoints taken by every log, released or live."""
        return self._checkpoints + (self.log.checkpoints if self.log else 0)

    def bind(
        self, store: DistributedGraphStore, config: ClusterConfig, *, fresh: bool
    ) -> None:
        """Create the durable log and subscribe ``store``.

        ``fresh=True`` (first store of a new session) refuses a
        directory that already holds durable state -- silently
        appending to another session's log would interleave two
        histories; ``Cluster.recover`` is the way in.  ``fresh=False``
        (recovery) additionally checkpoints at once, making the
        directory canonical for the adopted state.
        """
        durability = config.durability
        if not durability.enabled or not durability.wal_dir or self.log is not None:
            return
        directory = Path(durability.wal_dir)
        if fresh and has_state(directory):
            raise SessionError(
                f"{directory} already holds durable state; use "
                "Cluster.recover to restore it (or point wal_dir at an "
                "empty directory)"
            )
        log = DurableLog(
            directory,
            sync=durability.sync,
            segment_bytes=durability.segment_bytes,
            checkpoint_interval=durability.checkpoint_interval,
        )
        log.write_config(config.as_dict())
        log.bind(store)
        self.log = log
        if not fresh:
            log.checkpoint()

    def checkpoint(self) -> int:
        """Checkpoint the live log; returns the checkpointed tick."""
        if self.log is None:
            raise SessionError(
                "no durable log: durability is off, nothing was "
                "ingested yet, or the session was closed"
            )
        return self.log.checkpoint()

    def commit(self) -> None:
        """Commit the live log's pending ops (see :meth:`DurableLog.commit`)."""
        if self.log is not None:
            self.log.commit()

    def release(self) -> None:
        """Commit and close the live log, keeping its totals."""
        log, self.log = self.log, None
        if log is not None:
            self._records += log.records
            self._checkpoints += log.checkpoints
            log.close()


def recover_state(
    wal_dir: str | Path, config: ClusterConfig | None
) -> tuple[ClusterConfig, DistributedGraphStore, RecoveryInfo]:
    """The config, store and replay report for recovering ``wal_dir``.

    Without ``config`` the directory's own ``config.json`` is used; a
    given one must ask for the directory's partition count.  Either way
    the returned config logs to ``wal_dir``, even if the directory
    moved since it was persisted or durability was toggled off.
    """
    directory = Path(wal_dir)
    payload = DurableLog.read_config(directory)
    if config is None:
        if payload is None:
            raise SessionError(
                f"no durable session under {directory}: config.json "
                "is missing (was this directory ever a wal_dir?)"
            )
        config = ClusterConfig.from_dict(payload)
    elif payload is not None and payload.get("partitions") != config.partitions:
        raise SessionError(
            f"{directory} holds a {payload.get('partitions')}-partition "
            f"session; config asks for {config.partitions} partitions"
        )
    durability = config.durability
    if not (
        durability.enabled
        and durability.wal_dir
        and Path(durability.wal_dir) == directory
    ):
        durability = dataclasses.replace(durability, mode="wal", wal_dir=str(directory))
        config = dataclasses.replace(config, durability=durability)
    store, info = recover_store(directory, partitions=config.partitions)
    if store.k != config.partitions:
        raise SessionError(
            f"the checkpoint under {directory} holds {store.k} "
            f"partitions; config asks for {config.partitions}"
        )
    return config, store, info
