"""WAL format, tolerant recovery, and checkpoint round trips.

Everything here is deliberately low-level: raw segment/checkpoint files
are written, corrupted byte-by-byte, and read back, because recovery's
whole contract is about what survives *file-level* damage.  The
session-facing behaviour (crash a real process, recover, compare) lives
in ``test_crash_recovery.py``.
"""

import random
import shutil
import struct

import pytest

from repro.api import Cluster, ClusterConfig, DurabilityConfig
from repro.cluster.store import DistributedGraphStore
from repro.graph.labelled import LabelledGraph
from repro.runtime.wal import (
    RECORD_HEADER,
    SEGMENT_HEADER,
    DurableLog,
    WalFormatError,
    WriteAheadLog,
    has_state,
    latest_checkpoint,
    list_checkpoints,
    list_segments,
    read_checkpoint,
    read_segment,
    recover_store,
    write_checkpoint,
)
from repro.workload import PatternQuery, Workload

OPS = [
    (("v+", 1, "a"), 1),
    (("v+", 2, "b"), 2),
    (("e+", 1, 2), 3),
    (("a", 1, 0), 4),
]


def record_offsets(raw):
    """Byte offset of every record in a segment's raw bytes."""
    offsets, cursor = [], SEGMENT_HEADER.size
    while cursor + RECORD_HEADER.size <= len(raw):
        offsets.append(cursor)
        length = struct.unpack_from("<I", raw, cursor)[0]
        cursor += RECORD_HEADER.size + length
    return offsets


def write_ops(directory, ops=OPS, **kwargs):
    wal = WriteAheadLog(directory, **kwargs)
    wal.open_segment(0)
    for op, tick in ops:
        wal.append(op, tick)
    wal.close()
    return wal


def durable_session(wal_dir, seed=0, partitions=3, method="ldg", **durability):
    workload = Workload([PatternQuery("ab", LabelledGraph.path("ab"))])
    session = Cluster.open(
        ClusterConfig(
            partitions=partitions,
            method=method,
            seed=seed,
            durability=DurabilityConfig(
                mode="wal", wal_dir=str(wal_dir), **durability
            ),
        ),
        workload=workload,
    )
    rng = random.Random(seed)
    graph = LabelledGraph()
    for v in range(30):
        graph.add_vertex(v, rng.choice("abc"))
    for v in range(1, 30):
        graph.add_edge(v, rng.randrange(v))
    session.ingest(graph)
    return session


class TestSegmentRoundTrip:
    def test_append_read_round_trip(self, tmp_path):
        write_ops(tmp_path)
        (segment,) = list_segments(tmp_path)
        assert list(read_segment(segment)) == [
            (tick, op) for op, tick in OPS
        ]

    def test_back_reference_round_trip(self, tmp_path):
        """``("v+", "a", "a")`` pickles its label as a memo
        back-reference: each record must resolve its own, not one an
        earlier record left behind (here the capacity tuple)."""
        ops = [(("c", 4), 0), *OPS, (("v+", "a", "a"), 5)]
        write_ops(tmp_path, ops=ops)
        (segment,) = list_segments(tmp_path)
        assert list(read_segment(segment)) == [(tick, op) for op, tick in ops]

    def test_commit_writes_one_record_with_derived_ticks(self, tmp_path):
        """A commit is one record; only its first op's tick is stored,
        the capacity grow ``"c"`` does not advance the next one."""
        wal = WriteAheadLog(tmp_path)
        wal.open_segment(0)
        wal.commit([("c", 4), ("v+", "a", "a"), ("c", 8), ("v+", 2, "b")], 0)
        wal.commit([("e+", "a", 2), ("a", "a", 1)], 3)
        wal.close()
        (segment,) = list_segments(tmp_path)
        assert len(record_offsets(segment.read_bytes())) == 2
        assert wal.records == 6
        assert list(read_segment(segment)) == [
            (0, ("c", 4)),
            (1, ("v+", "a", "a")),
            (1, ("c", 8)),
            (2, ("v+", 2, "b")),
            (3, ("e+", "a", 2)),
            (4, ("a", "a", 1)),
        ]

    def test_reopen_starts_a_fresh_segment(self, tmp_path):
        """Appending past a possibly-torn tail would bury corruption;
        every open targets a brand-new file."""
        write_ops(tmp_path)
        second = WriteAheadLog(tmp_path)
        second.open_segment(4)
        second.append(("v+", 9, "c", 0), 5)
        second.close()
        first, fresh = list_segments(tmp_path)
        assert first != fresh
        assert [tick for tick, _ in read_segment(fresh)] == [5]

    def test_rotation_respects_segment_bytes(self, tmp_path):
        write_ops(tmp_path, segment_bytes=64)
        segments = list_segments(tmp_path)
        assert len(segments) > 1
        replayed = [
            record for path in segments for record in read_segment(path)
        ]
        assert replayed == [(tick, op) for op, tick in OPS]

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = write_ops(tmp_path)
        with pytest.raises(WalFormatError, match="closed"):
            wal.append(("v+", 9, "c", 0), 9)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal-00000000.seg"
        path.write_bytes(b"NOTAWAL!" + bytes(SEGMENT_HEADER.size))
        with pytest.raises(WalFormatError, match="magic"):
            list(read_segment(path))

    def test_future_version_raises(self, tmp_path):
        path = tmp_path / "wal-00000000.seg"
        path.write_bytes(SEGMENT_HEADER.pack(b"LOOMWAL1", 99, 0, 0))
        with pytest.raises(WalFormatError, match="v99"):
            list(read_segment(path))


class TestTornTails:
    def test_truncated_payload_ends_replay(self, tmp_path):
        write_ops(tmp_path)
        (segment,) = list_segments(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-3])
        records = list(read_segment(segment))
        assert [tick for tick, _ in records] == [1, 2, 3]

    def test_truncated_header_ends_replay(self, tmp_path):
        write_ops(tmp_path)
        (segment,) = list_segments(tmp_path)
        raw = segment.read_bytes()
        # Chop into the *header* of the final record.
        segment.write_bytes(raw[: record_offsets(raw)[-1] + 5])
        assert [tick for tick, _ in read_segment(segment)] == [1, 2, 3]

    def test_flipped_byte_fails_crc(self, tmp_path):
        write_ops(tmp_path)
        (segment,) = list_segments(tmp_path)
        raw = bytearray(segment.read_bytes())
        raw[-2] ^= 0xFF
        segment.write_bytes(bytes(raw))
        assert [tick for tick, _ in read_segment(segment)] == [1, 2, 3]

    def test_absurd_length_claim_ends_replay(self, tmp_path):
        """A torn length field must not demand gigabytes of payload."""
        write_ops(tmp_path, ops=OPS[:1])
        (segment,) = list_segments(tmp_path)
        with open(segment, "ab") as file:
            file.write(RECORD_HEADER.pack(1 << 30, 0, 2))
        assert [tick for tick, _ in read_segment(segment)] == [1]


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        payload = b"columnar-image-bytes"
        path = write_checkpoint(tmp_path, 17, payload)
        assert read_checkpoint(path) == (17, payload)
        assert latest_checkpoint(tmp_path) == (17, payload)

    def test_corrupt_checkpoint_skipped_for_older_valid_one(self, tmp_path):
        write_checkpoint(tmp_path, 5, b"older-but-valid")
        newest = write_checkpoint(tmp_path, 9, b"newest")
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))
        assert read_checkpoint(newest) is None
        assert latest_checkpoint(tmp_path) == (5, b"older-but-valid")

    def test_truncated_checkpoint_is_none(self, tmp_path):
        path = write_checkpoint(tmp_path, 3, b"payload")
        path.write_bytes(path.read_bytes()[:10])
        assert read_checkpoint(path) is None
        assert latest_checkpoint(tmp_path) is None

    def test_has_state(self, tmp_path):
        assert not has_state(tmp_path)
        assert not has_state(tmp_path / "missing")
        write_checkpoint(tmp_path, 1, b"x")
        assert has_state(tmp_path)


class TestRecovery:
    def test_recovered_store_is_byte_identical(self, tmp_path):
        session = durable_session(tmp_path / "wal")
        try:
            live = session.store.export_columns()
            ticks = session.store.mutation_ticks
        finally:
            session.close()
        store, info = recover_store(tmp_path / "wal", partitions=3)
        assert store.export_columns() == live
        assert info.recovered_ticks == ticks
        assert not info.torn_tail

    def test_recovery_through_checkpoints(self, tmp_path):
        """A tiny checkpoint interval forces image+tail recovery (not a
        pure replay) -- still byte-identical."""
        session = durable_session(tmp_path / "wal", checkpoint_interval=16)
        try:
            live = session.store.export_columns()
            assert session.resilience.wal_checkpoints > 1
        finally:
            session.close()
        store, info = recover_store(tmp_path / "wal", partitions=3)
        assert store.export_columns() == live
        assert info.checkpoint_ticks > 0

    def test_records_behind_the_checkpoint_are_skipped(self, tmp_path):
        """A crash between checkpoint write and WAL truncation leaves
        already-applied records in the log; replay must skip, not
        re-apply, them."""
        session = durable_session(tmp_path / "wal")
        try:
            live = session.store.export_columns()
            ticks = session.store.mutation_ticks
            # Checkpoint manually, then resurrect the pre-checkpoint
            # segments as if truncation never happened.
            stale = {
                path.name: path.read_bytes()
                for path in list_segments(tmp_path / "wal")
            }
            session.checkpoint()
            for name, raw in stale.items():
                (tmp_path / "wal" / name).write_bytes(raw)
        finally:
            session.close()
        store, info = recover_store(tmp_path / "wal", partitions=3)
        assert store.export_columns() == live
        assert info.checkpoint_ticks == ticks
        assert info.skipped_ops > 0
        assert info.replayed_ops == 0

    def test_tick_gap_truncates_the_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open_segment(0)
        wal.append(("c", 4), 0)
        wal.append(("v+", 1, "a"), 1)
        wal.append(("v+", 2, "b"), 2)
        wal.append(("v+", 3, "c"), 5)  # ticks 3-4 lost
        wal.close()
        store, info = recover_store(tmp_path, partitions=2)
        assert info.replayed_ops == 2
        assert info.torn_tail
        assert info.recovered_ticks == 2
        assert store.graph.num_vertices == 2

    def test_barrier_without_covering_checkpoint_halts(self, tmp_path):
        """Nothing writes ``"!"`` any more; a log from before PR 22 that
        died between the barrier and its checkpoint stops there."""
        wal = WriteAheadLog(tmp_path)
        wal.open_segment(0)
        wal.append(("c", 4), 0)
        wal.append(("v+", 1, "a"), 1)
        wal.append(("!",), 2)  # un-checkpointed wholesale adoption
        wal.append(("v+", 2, "b"), 3)
        wal.close()
        store, info = recover_store(tmp_path, partitions=2)
        assert info.torn_tail
        assert info.recovered_ticks == 1
        assert store.graph.num_vertices == 1

    def test_offline_reingest_is_replayable_from_ops_alone(self, tmp_path):
        """The assignment swap of an offline re-ingest is ordinary ops:
        what a ``kill -9`` right after it leaves on disk (no checkpoint,
        log never closed) recovers byte-identically."""
        session = durable_session(
            tmp_path / "wal", method="offline", checkpoint_interval=10**9
        )
        try:
            before = session.store.assignment.assigned()
            extra = LabelledGraph()
            for v in range(100, 120):
                extra.add_vertex(v, "abc"[v % 3])
                if v > 100:
                    extra.add_edge(v - 1, v)
            session.ingest(extra)
            after = session.store.assignment.assigned()
            assert any(after[v] != p for v, p in before.items())
            live = session.store.export_columns()
            shutil.copytree(tmp_path / "wal", tmp_path / "crashed")
        finally:
            session.close()
        assert not list_checkpoints(tmp_path / "crashed")
        store, info = recover_store(tmp_path / "crashed", partitions=3)
        assert not info.torn_tail
        assert store.export_columns() == live

    def test_record_naming_a_global_ends_replay_unresolved(
        self, tmp_path, hostile_object
    ):
        """A tampered ``wal_dir``: the attacker recomputes the CRC, so
        only refusing to resolve globals keeps their code from running."""
        hostile, marker = hostile_object
        wal = WriteAheadLog(tmp_path / "wal")
        wal.open_segment(0)
        wal.append(("c", 10), 0)
        wal.append(("v+", 1, "a"), 1)
        wal.append(hostile, 2)
        wal.append(("v+", 2, "b"), 3)
        wal.close()
        store, info = recover_store(tmp_path / "wal", partitions=2)
        assert not marker.exists()
        assert info.recovered_ticks == 1
        assert store.graph.num_vertices == 1

    @pytest.mark.parametrize(
        "ops",
        [[1], [("zz", 1)], [("v+",)], [()], [("v+", 3, "c"), ("zz", 1)]],
        ids=["not-a-tuple", "unknown-tag", "short-op", "empty-op",
             "bad-op-after-a-good-one"],
    )
    def test_record_with_unreplayable_ops_ends_replay_torn(
        self, tmp_path, ops
    ):
        """A record whose checksum holds but whose ops cannot replay
        ends recovery before it, none of its ops applied, and reports a
        torn tail -- it does not escape as a raw TypeError, ValueError
        or IndexError from the store's mutators."""
        good = [("c", 4), ("v+", 1, "a"), ("v+", 2, "b")]
        wal = WriteAheadLog(tmp_path)
        wal.open_segment(0)
        for tick, op in enumerate(good):
            wal.append(op, tick)
        wal.commit(ops, 3)
        wal.append(("v+", 9, "c"), 3)
        wal.close()
        before = DistributedGraphStore.incremental(2, 1)
        for op in good:
            before.apply_op(op)
        store, info = recover_store(tmp_path, partitions=2)
        assert info.torn_tail
        assert info.recovered_ticks == 2
        assert store.export_columns() == before.export_columns()

    def test_empty_directory_recovers_empty_store(self, tmp_path):
        store, info = recover_store(tmp_path, partitions=4)
        assert store.graph.num_vertices == 0
        assert info.recovered_ticks == 0
        assert info.segments_read == 0


class TestDurableLog:
    def test_double_bind_rejected(self, tmp_path):
        store = DistributedGraphStore.incremental(2, 8)
        log = DurableLog(tmp_path)
        log.bind(store)
        try:
            with pytest.raises(WalFormatError, match="already bound"):
                log.bind(store)
        finally:
            log.close()

    def test_checkpoint_compacts_the_directory(self, tmp_path):
        session = durable_session(tmp_path / "wal")
        try:
            session.checkpoint()
            session.checkpoint()
            assert len(list_checkpoints(tmp_path / "wal")) == 1
            (segment,) = list_segments(tmp_path / "wal")
            # Only the leading capacity record survives truncation.
            records = list(read_segment(segment))
            assert [op[0] for _, op in records] == ["c"]
        finally:
            session.close()

    def test_close_unhooks_the_store(self, tmp_path):
        session = durable_session(tmp_path / "wal")
        store = session.store
        session.close()
        assert store.wal_hook is None

    def test_sync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="sync policy"):
            WriteAheadLog(tmp_path, sync="eventually")

    def test_config_round_trip(self, tmp_path):
        log = DurableLog(tmp_path)
        log.write_config({"partitions": 4, "method": "ldg"})
        assert DurableLog.read_config(tmp_path) == {
            "partitions": 4,
            "method": "ldg",
        }
        assert DurableLog.read_config(tmp_path / "missing") is None
        log.close()


class TestSessionGuards:
    def test_fresh_session_refuses_populated_wal_dir(self, tmp_path):
        session = durable_session(tmp_path / "wal")
        session.close()
        from repro.exceptions import SessionError

        with pytest.raises(SessionError, match="Cluster.recover"):
            durable_session(tmp_path / "wal")

    def test_checkpoint_without_durability_raises(self):
        from repro.exceptions import SessionError

        session = Cluster.open(ClusterConfig(partitions=2, method="ldg"))
        with pytest.raises(SessionError, match="durability"):
            session.checkpoint()

    def test_durability_config_validation(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            DurabilityConfig(mode="wal")  # wal_dir required
        with pytest.raises(ConfigurationError):
            DurabilityConfig(mode="wal", wal_dir="x", sync="sometimes")
        with pytest.raises(ConfigurationError):
            DurabilityConfig(mode="paper-tape", wal_dir="x")

    def test_durability_round_trips_through_cluster_config(self):
        config = ClusterConfig(
            partitions=4,
            durability=DurabilityConfig(
                mode="wal", wal_dir="wal/", sync="fsync",
                checkpoint_interval=128, segment_bytes=1 << 16,
            ),
        )
        rebuilt = ClusterConfig.from_dict(config.as_dict())
        assert rebuilt == config
        assert rebuilt.durability.enabled
