"""Write-ahead log + checkpoints: durable cluster state.

The store's mutation journal (PR 6) already reduces every effective
mutation to a compact op tuple; this module makes that stream durable.
A :class:`DurableLog` buffers the ops of its store and *commits* them
-- after every engine batch and every session command -- as one
checksummed segment record, synced once per commit.  A periodic
*checkpoint* persists the whole store as one columnar image
(``store.export_columns``) and truncates the log, and
:func:`recover_store` rebuilds the exact resident state from the newest
valid checkpoint plus the op tail -- byte-identical (columnar image
equality) to the session that crashed, which is what keeps the
differential harness meaningful across a ``kill -9``.

Binary layout (all integers little-endian, fixed ``struct`` layouts in
the :mod:`repro.cluster.columnar` discipline):

Segment files (``wal-<seq>.seg``)::

    8s  magic           b"LOOMWAL1"
    H   format version  2 (1 is still read)
    H   flags           0
    Q   base_ticks      store version when the segment opened

followed by records, one per commit::

    I   payload length
    I   crc32 over (tick || payload)
    Q   tick            store version after the record's first op
    ... payload         one pickled list of op tuples

Only the first op's tick is stored; every later op's is derived: one
more than its predecessor's for a versioned op, the same for the
unversioned capacity grow ``"c"``.  A v1 segment holds one pickled op
tuple per record, each with its own tick.

Checkpoint files (``ckpt-<ticks>.ckpt``)::

    8s  magic           b"LOOMCKPT"
    H   format version  1
    H   flags           0
    Q   ticks           store version the image captures
    Q   payload length
    I   crc32 over payload
    ... payload         the columnar store image

Sync policy trade-offs (per commit):

========  ============================================================
``off``   buffered writes only; fastest, loses the tail on any crash
``async`` flush to the OS page cache; survives process death
          (``kill -9``) but not power loss -- the default
``fsync`` flush + ``os.fsync``; survives power loss, pays a disk
          round-trip per commit
========  ============================================================

Recovery is tolerant by construction: a torn record (short header,
short payload, or checksum mismatch) ends replay at the last good
record instead of raising -- exactly what a crash mid-commit leaves
behind, so a commit survives whole or not at all.  Corrupt
*checkpoints* are skipped in favour of the next-newest valid one.
Replay also stops at a tick gap (a missing segment), or at a record
whose checksum holds but whose ops cannot replay (a tampered log), which
surfaces as ``RecoveryInfo.torn_tail`` so callers can distinguish "clean
tail" from "truncated tail".
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator

from repro.cluster.columnar import PlainUnpickler
from repro.cluster.store import DistributedGraphStore

WAL_MAGIC = b"LOOMWAL1"
CHECKPOINT_MAGIC = b"LOOMCKPT"
#: Segment format: v2 writes one record per commit; v1 segments (one
#: op per record) are still read.
WAL_VERSION = 2
#: Checkpoints kept their format when segments moved to v2.
CHECKPOINT_VERSION = 1

SEGMENT_HEADER = struct.Struct("<8sHHQ")
RECORD_HEADER = struct.Struct("<IIQ")
CHECKPOINT_HEADER = struct.Struct("<8sHHQQI")
_TICK = struct.Struct("<Q")

SYNC_POLICIES = ("off", "async", "fsync")

#: Reject absurd record claims up front (a torn length field could
#: otherwise demand gigabytes).  Ops are tens of bytes in practice; a
#: commit whose record would exceed this is split (see
#: :meth:`WriteAheadLog.commit`).
_MAX_RECORD_BYTES = 1 << 24

_SEGMENT_GLOB = "wal-*.seg"
_CHECKPOINT_GLOB = "ckpt-*.ckpt"

#: Fields each op tag carries after the tag: its replay mutator's
#: arguments, ``self`` excluded.
_OP_FIELDS = {
    tag: mutator.__code__.co_argcount - 1
    for tag, mutator in DistributedGraphStore.REPLAY.items()
}


class WalFormatError(RuntimeError):
    """A WAL/checkpoint file is not what its magic claims."""


def _record_crc(tick: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(_TICK.pack(tick)))


def _last_tick(ops: list[tuple[Any, ...]], tick: int) -> int:
    """The tick of ``ops[-1]`` when ``ops[0]`` is at ``tick``."""
    return tick + sum(1 for op in ops[1:] if op[0] != "c")


def segment_path(directory: Path, sequence: int) -> Path:
    return directory / f"wal-{sequence:08d}.seg"


def checkpoint_path(directory: Path, ticks: int) -> Path:
    return directory / f"ckpt-{ticks:016d}.ckpt"


def list_segments(directory: Path) -> list[Path]:
    """Segment files in append order (the name embeds the sequence)."""
    return sorted(directory.glob(_SEGMENT_GLOB))


def list_checkpoints(directory: Path) -> list[Path]:
    """Checkpoint files oldest-first (the name embeds the tick count)."""
    return sorted(directory.glob(_CHECKPOINT_GLOB))


def has_state(directory: Path) -> bool:
    """True when ``directory`` already holds WAL segments/checkpoints."""
    directory = Path(directory)
    if not directory.is_dir():
        return False
    return bool(list_segments(directory) or list_checkpoints(directory))


# ----------------------------------------------------------------------
# Appending
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Append-only op log over rotated segment files.

    :meth:`commit` writes a list of ops as one record and syncs once;
    :attr:`records` counts ops, not records.

    Every (re)open starts a *fresh* segment -- appending past a
    possibly-torn tail would bury the corruption where recovery cannot
    see it.  Rotation happens transparently once the current segment
    exceeds ``segment_bytes``.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        sync: str = "async",
        segment_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"sync policy {sync!r} is not one of {SYNC_POLICIES}"
            )
        if segment_bytes < SEGMENT_HEADER.size:
            raise ValueError("segment_bytes is smaller than a header")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.segment_bytes = segment_bytes
        self.records = 0
        segments = list_segments(self.directory)
        self._sequence = (
            int(segments[-1].stem.split("-")[1]) + 1 if segments else 0
        )
        self._file: IO[bytes] | None = None
        self._written = 0

    @property
    def closed(self) -> bool:
        return self._file is None

    def open_segment(self, base_ticks: int) -> Path:
        """Start (or rotate to) a fresh segment at ``base_ticks``."""
        self._close_file()
        path = segment_path(self.directory, self._sequence)
        self._sequence += 1
        self._file = open(path, "xb")
        self._file.write(
            SEGMENT_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0, base_ticks)
        )
        self._written = SEGMENT_HEADER.size
        self._sync()
        return path

    def append(self, op: tuple[Any, ...], tick: int) -> None:
        """Durably (per the sync policy) log one op as its own record."""
        self.commit([op], tick)

    def commit(self, ops: list[tuple[Any, ...]], tick: int) -> None:
        """Durably (per the sync policy) log ``ops``, the first of which
        is at ``tick``, as one record: one write and one sync."""
        if self._file is None:
            raise WalFormatError("write-ahead log is closed")
        self._write_record(ops, tick)
        self._sync()
        if self._written >= self.segment_bytes:
            self.open_segment(_last_tick(ops, tick))

    def _write_record(self, ops: list[tuple[Any, ...]], tick: int) -> None:
        assert self._file is not None
        payload = pickle.dumps(ops, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > _MAX_RECORD_BYTES and len(ops) > 1:
            # Readers reject longer records as torn: split the commit.
            half = len(ops) // 2
            self._write_record(ops[:half], tick)
            self._write_record(ops[half:], _last_tick(ops[: half + 1], tick))
            return
        self._file.write(
            RECORD_HEADER.pack(len(payload), _record_crc(tick, payload), tick)
        )
        self._file.write(payload)
        self._written += RECORD_HEADER.size + len(payload)
        self.records += len(ops)

    def _sync(self) -> None:
        if self.sync == "off" or self._file is None:
            return
        self._file.flush()
        if self.sync == "fsync":
            os.fsync(self._file.fileno())

    def truncate(self) -> None:
        """Delete every segment (a checkpoint superseded them) and
        start over.  The caller re-opens via :meth:`open_segment`."""
        self._close_file()
        for path in list_segments(self.directory):
            path.unlink(missing_ok=True)
        self._sequence = 0

    def _close_file(self) -> None:
        if self._file is not None:
            self._file.flush()
            self._file.close()
            self._file = None

    def close(self) -> None:
        self._close_file()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def _replayable(op: Any) -> bool:
    """True for a non-empty tuple whose tag names a replay mutator (or
    is the legacy ``"!"`` barrier) with exactly that mutator's fields."""
    if type(op) is not tuple or not op or type(op[0]) is not str:
        return False
    if op == ("!",):
        return True
    return _OP_FIELDS.get(op[0]) == len(op) - 1


def read_segment(
    path: Path,
) -> Iterator[tuple[int, tuple[Any, ...] | None]]:
    """Yield ``(tick, op)`` for every logged op; stop silently at a torn
    tail.

    Raises :class:`WalFormatError` only for a wrong magic/version --
    torn or corrupt *records* are the expected residue of a crash and
    simply end the iteration at the last verifiable record.  A record
    whose checksum holds but that does not read as replayable ops (its
    pickle names a global, it is not a list, or an op has an unknown tag
    or the wrong field count: a tampered ``wal_dir``) yields
    ``(tick, None)`` and ends the iteration, none of its ops applied.
    """
    records: list[tuple[int, bytes]] = []
    with open(path, "rb") as file:
        header = file.read(SEGMENT_HEADER.size)
        if len(header) < SEGMENT_HEADER.size:
            return
        magic, version, _flags, _base = SEGMENT_HEADER.unpack(header)
        if magic != WAL_MAGIC:
            raise WalFormatError(f"{path.name}: bad WAL magic {magic!r}")
        if version not in (1, WAL_VERSION):
            raise WalFormatError(
                f"{path.name}: WAL format v{version} is not v1 or "
                f"v{WAL_VERSION}"
            )
        while True:
            head = file.read(RECORD_HEADER.size)
            if len(head) < RECORD_HEADER.size:
                break
            length, crc, tick = RECORD_HEADER.unpack(head)
            if length > _MAX_RECORD_BYTES:
                break
            payload = file.read(length)
            if len(payload) < length or _record_crc(tick, payload) != crc:
                break
            records.append((tick, payload))
    for tick, payload in records:
        # A fresh unpickler per record: a shared one would carry its
        # memo over, and a later record's back-reference would resolve
        # into an earlier record's objects.
        try:
            loaded = PlainUnpickler(io.BytesIO(payload)).load()
        except Exception:
            loaded = None
        ops = [loaded] if version == 1 else loaded
        if type(ops) is not list or not all(map(_replayable, ops)):
            yield tick, None
            return
        for index, op in enumerate(ops):
            if index and op[0] != "c":
                tick += 1
            yield tick, op


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
def write_checkpoint(directory: Path, ticks: int, payload: bytes) -> Path:
    """Atomically persist one columnar image (tmp + fsync + rename)."""
    directory = Path(directory)
    path = checkpoint_path(directory, ticks)
    scratch = path.with_suffix(".tmp")
    with open(scratch, "wb") as file:
        file.write(
            CHECKPOINT_HEADER.pack(
                CHECKPOINT_MAGIC,
                CHECKPOINT_VERSION,
                0,
                ticks,
                len(payload),
                zlib.crc32(payload),
            )
        )
        file.write(payload)
        file.flush()
        os.fsync(file.fileno())
    os.replace(scratch, path)
    return path


def read_checkpoint(path: Path) -> tuple[int, bytes] | None:
    """``(ticks, payload)`` if the file verifies, ``None`` otherwise."""
    try:
        with open(path, "rb") as file:
            header = file.read(CHECKPOINT_HEADER.size)
            if len(header) < CHECKPOINT_HEADER.size:
                return None
            magic, version, _flags, ticks, length, crc = (
                CHECKPOINT_HEADER.unpack(header)
            )
            if magic != CHECKPOINT_MAGIC or version != CHECKPOINT_VERSION:
                return None
            payload = file.read(length)
    except OSError:
        return None
    if len(payload) < length or zlib.crc32(payload) != crc:
        return None
    return ticks, payload


def latest_checkpoint(directory: Path) -> tuple[int, bytes] | None:
    """The newest checkpoint that verifies (corrupt ones are skipped)."""
    for path in reversed(list_checkpoints(Path(directory))):
        loaded = read_checkpoint(path)
        if loaded is not None:
            return loaded
    return None


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RecoveryInfo:
    """What :func:`recover_store` found and did."""

    checkpoint_ticks: int = 0
    replayed_ops: int = 0
    skipped_ops: int = 0
    segments_read: int = 0
    torn_tail: bool = False
    recovered_ticks: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
        }


@dataclass(slots=True)
class _Replayer:
    """Replays WAL records into a store, enforcing tick continuity."""

    store: DistributedGraphStore
    info: RecoveryInfo
    halted: bool = field(default=False)

    def feed(self, tick: int, op: tuple[Any, ...] | None) -> bool:
        """Apply one record; False once replay must stop for good."""
        if op is None:
            # A verified record that does not replay (read_segment):
            # the tail behind it is unreachable.
            self.info.torn_tail = True
            self.halted = True
            return False
        if op[0] == "c":
            # Capacity grows are unversioned and idempotent: always
            # safe, whatever prefix of the log survives.
            self.store.apply_op(op)
            return True
        if tick <= self.store.mutation_ticks:
            # Behind the checkpoint (a crash between checkpoint write
            # and WAL truncation leaves such records): already applied.
            self.info.skipped_ops += 1
            return True
        if tick != self.store.mutation_ticks + 1 or op[0] == "!":
            # A gap means a lost segment; the tail is unreachable.  So is
            # the tail behind a ``"!"``, the barrier pre-PR-22 logs wrote
            # before checkpointing an assignment swap at once.
            self.info.torn_tail = True
            self.halted = True
            return False
        self.store.apply_op(op)
        self.info.replayed_ops += 1
        return True


def recover_store(
    directory: str | Path,
    *,
    partitions: int,
) -> tuple[DistributedGraphStore, RecoveryInfo]:
    """Rebuild the resident store from checkpoint + WAL tail.

    Starts from the newest valid checkpoint (or an empty store when
    none exists -- the first ``"c"`` record restores the capacity
    ceiling), then replays every surviving op with a tick past the
    checkpoint.  Returns the store plus a :class:`RecoveryInfo`
    describing how far replay got.
    """
    directory = Path(directory)
    info = RecoveryInfo()
    loaded = latest_checkpoint(directory)
    if loaded is not None:
        ticks, payload = loaded
        store = DistributedGraphStore.import_columns(payload)
        store._ticks = ticks
        info.checkpoint_ticks = ticks
    else:
        store = DistributedGraphStore.incremental(partitions, 1)
    replayer = _Replayer(store, info)
    for path in list_segments(directory):
        if replayer.halted:
            break
        info.segments_read += 1
        for tick, op in read_segment(path):
            if not replayer.feed(tick, op):
                break
    info.recovered_ticks = store.mutation_ticks
    return store, info


# ----------------------------------------------------------------------
# The session-facing manager
# ----------------------------------------------------------------------
class DurableLog:
    """WAL + checkpoint policy bound to one live store.

    :meth:`bind` subscribes to the store's ``wal_hook``, which buffers
    every effective mutation the moment it applies; :meth:`commit` logs
    the buffer as one record (the session commits after every engine
    batch and every command).  Once ``checkpoint_interval`` ops
    accumulate the log checkpoints itself -- one columnar image, then
    the op log restarts empty.
    ``config.json`` is the session's own
    :class:`~repro.api.config.ClusterConfig`, persisted so recovery is
    self-contained (``Cluster.recover`` needs only the directory).
    """

    CONFIG_FILE = "config.json"

    def __init__(
        self,
        directory: str | Path,
        *,
        sync: str = "async",
        segment_bytes: int = 4 * 1024 * 1024,
        checkpoint_interval: int = 4096,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.directory = Path(directory)
        self.wal = WriteAheadLog(
            self.directory, sync=sync, segment_bytes=segment_bytes
        )
        self.checkpoint_interval = checkpoint_interval
        self.checkpoints = 0
        self._store: DistributedGraphStore | None = None
        self._since_checkpoint = 0
        # Ops applied since the last commit, and the first one's tick.
        self._pending: list[tuple[Any, ...]] = []
        self._pending_tick = 0

    @property
    def records(self) -> int:
        return self.wal.records

    def bind(self, store: DistributedGraphStore) -> None:
        """Subscribe to ``store`` and start logging at its version."""
        if self._store is not None:
            raise WalFormatError("durable log is already bound")
        self._store = store
        self._restart(store)
        # Committed at once: a crash before the first commit still
        # recovers the capacity ceiling.
        self.commit()
        store.wal_hook = self._on_op

    def _restart(self, store: DistributedGraphStore) -> None:
        """Open a fresh segment and lead it with the capacity ceiling:
        recovery without a checkpoint starts from capacity 1 and grows
        through these records."""
        self.wal.open_segment(store.mutation_ticks)
        self._pending = [("c", store.assignment.capacity)]
        self._pending_tick = store.mutation_ticks

    def _on_op(self, op: tuple[Any, ...], tick: int) -> None:
        pending = self._pending
        if not pending:
            self._pending_tick = tick
        pending.append(op)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()

    def commit(self) -> None:
        """Log every op since the last commit as one record (a no-op
        when there is none)."""
        ops, self._pending = self._pending, []
        if ops:
            self.wal.commit(ops, self._pending_tick)

    def checkpoint(self) -> int:
        """Persist one columnar image and truncate the log; returns the
        checkpointed tick count."""
        store = self._store
        if store is None:
            raise WalFormatError("durable log is not bound to a store")
        self.commit()
        ticks = store.mutation_ticks
        write_checkpoint(self.directory, ticks, store.export_columns())
        self.checkpoints += 1
        # The image supersedes every older checkpoint and segment.
        for path in list_checkpoints(self.directory):
            if path != checkpoint_path(self.directory, ticks):
                path.unlink(missing_ok=True)
        self.wal.truncate()
        self._restart(store)
        self._since_checkpoint = 0
        return ticks

    def write_config(self, payload: dict[str, Any]) -> None:
        """Persist the session's config so recovery is self-contained."""
        import json

        self.directory.mkdir(parents=True, exist_ok=True)
        scratch = self.directory / (self.CONFIG_FILE + ".tmp")
        scratch.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(scratch, self.directory / self.CONFIG_FILE)

    @classmethod
    def read_config(cls, directory: str | Path) -> dict[str, Any] | None:
        import json

        path = Path(directory) / cls.CONFIG_FILE
        if not path.is_file():
            return None
        payload: dict[str, Any] = json.loads(path.read_text())
        return payload

    def close(self) -> None:
        """Unhook from the store, commit what is pending and close the
        log (idempotent)."""
        store, self._store = self._store, None
        if store is not None and store.wal_hook == self._on_op:
            store.wal_hook = None
        try:
            if not self.wal.closed:
                self.commit()
        finally:
            self.wal.close()
