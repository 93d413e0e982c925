"""Group commit: one WAL record per engine batch and per command.

The session buffers every op its store applies and commits the buffer
as one checksummed segment record, synced once: after every engine
batch (before any user stats hook sees it) and at the end of every
command, whether it succeeded or failed.  These tests pin that
contract, the replay of back-referencing pickles, and the recovery of
directories written in the v1 format (one pickled op per record).
"""

import math
import pickle
import shutil
import struct
import zlib

import pytest

from repro.api import Cluster, DurabilityConfig
from repro.cluster.store import DistributedGraphStore
from repro.datasets import fraud_workload
from repro.exceptions import CapacityExceededError
from repro.graph.labelled import LabelledGraph
from repro.runtime import wal as wal_module
from repro.runtime.wal import (
    RECORD_HEADER,
    SEGMENT_HEADER,
    WriteAheadLog,
    list_segments,
    read_segment,
    recover_store,
)
from repro.stream.events import EdgeArrival, VertexArrival
from repro.workload import PatternQuery, Workload


def V(vertex, label="account"):
    return VertexArrival(vertex, label, 0)


def E(u, v):
    return EdgeArrival(u, v, 0)


def records_in(segment):
    """The number of records in one segment file."""
    raw = segment.read_bytes()
    count, cursor = 0, SEGMENT_HEADER.size
    while cursor + RECORD_HEADER.size <= len(raw):
        count += 1
        cursor += RECORD_HEADER.size + struct.unpack_from("<I", raw, cursor)[0]
    return count


def path_graph(n):
    graph = LabelledGraph()
    for v in range(n):
        graph.add_vertex(v, "abc"[v % 3])
        if v:
            graph.add_edge(v - 1, v)
    return graph


def open_durable(wal_dir, **fields):
    durability = {
        key: fields.pop(key)
        for key in ("sync", "checkpoint_interval")
        if key in fields
    }
    return Cluster.open(
        durability=DurabilityConfig(mode="wal", wal_dir=str(wal_dir), **durability),
        **fields,
    )


class TestCommitCadence:
    @pytest.mark.parametrize("batch_size", [4, 16])
    def test_one_fsync_per_record_and_one_record_per_batch(
        self, tmp_path, monkeypatch, batch_size
    ):
        """Under ``fsync`` every record costs one ``os.fsync`` (plus
        one for the segment header), and the records are the leading
        capacity record, one per engine batch and at most one for the
        command's tail -- however many ops a batch holds."""
        calls = []
        real_fsync = wal_module.os.fsync
        monkeypatch.setattr(
            wal_module.os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd)
        )
        graph = path_graph(120)
        session = open_durable(
            tmp_path / "wal",
            method="ldg",
            partitions=3,
            batch_size=batch_size,
            sync="fsync",
            checkpoint_interval=10**9,
        )
        try:
            report = session.ingest(graph)
            (segment,) = list_segments(tmp_path / "wal")
            written = records_in(segment)
            batches = math.ceil(report.events / batch_size)
            assert len(calls) == written + 1
            assert written <= batches + 2
            # ``records`` still counts ops, far more than records.
            assert session.resilience.wal_records == session.store.mutation_ticks + 1
            assert session.resilience.wal_records > 2 * written
        finally:
            session.close()

    def test_a_stats_hook_sees_its_batch_durable(self, tmp_path):
        """The commit is the first stats hook: whatever a user hook
        does (a crash test kills the process there), the batch it
        observes is already on disk."""
        logged = []

        def hook(_stats):
            (segment,) = list_segments(tmp_path / "wal")
            last_tick = list(read_segment(segment))[-1][0]
            logged.append((last_tick, session.store.mutation_ticks))

        session = open_durable(
            tmp_path / "wal",
            method="ldg",
            partitions=2,
            batch_size=8,
            checkpoint_interval=10**9,
        )
        try:
            session.ingest(path_graph(40), stats_hooks=[hook])
        finally:
            session.close()
        assert len(logged) == 10
        assert all(disk == live for disk, live in logged)

    @pytest.mark.parametrize("method", ["ldg", "loom", "hash", "offline"])
    def test_a_failed_command_leaves_the_log_equal_to_the_store(
        self, tmp_path, method
    ):
        """An explicit capacity overflow raises mid-command; what the
        store took by then is committed all the same, so recovery from
        the directory as the failure left it equals the live session."""
        session = open_durable(
            tmp_path / "wal",
            method=method,
            partitions=2,
            capacity=2,
            workload=fraud_workload(),
        )
        try:
            session.ingest([V(1), V(2), E(1, 2)])
            with pytest.raises(CapacityExceededError):
                session.ingest([V(3), V(4), V(5)])
            live = session.store.export_columns()
            shutil.copytree(tmp_path / "wal", tmp_path / "crashed")
        finally:
            session.close()
        with Cluster.recover(tmp_path / "crashed") as recovered:
            assert recovered.store.export_columns() == live


def test_an_oversized_commit_splits_into_readable_records(tmp_path, monkeypatch):
    """Readers take a record past ``_MAX_RECORD_BYTES`` for a torn
    length, so a commit that large is split, ticks carried across."""
    monkeypatch.setattr(wal_module, "_MAX_RECORD_BYTES", 96)
    arrivals = [("v+", v, "a") for v in range(20)]
    log = WriteAheadLog(tmp_path)
    log.open_segment(0)
    log.commit([("c", 4), *arrivals, ("c", 8), ("a", 3, 1)], 0)
    log.close()
    (segment,) = list_segments(tmp_path)
    assert records_in(segment) > 2
    assert list(read_segment(segment)) == [
        (0, ("c", 4)),
        *((tick, op) for tick, op in enumerate(arrivals, 1)),
        (20, ("c", 8)),
        (21, ("a", 3, 1)),
    ]


class TestBackReferences:
    def test_a_repeated_string_recovers_as_itself(self, tmp_path):
        """A vertex named like its label pickles the label as a memo
        back-reference; replay must resolve it within its own record."""
        workload = Workload([PatternQuery("ab", LabelledGraph.path("ab"))])
        session = open_durable(
            tmp_path / "wal", method="ldg", partitions=2, workload=workload
        )
        try:
            session.ingest(
                [
                    VertexArrival("a", "a", 0),
                    VertexArrival("b", "x", 1),
                    EdgeArrival("a", "b", 2),
                ]
            )
            live = session.store.export_columns()
        finally:
            session.close()
        with Cluster.recover(tmp_path / "wal") as recovered:
            assert recovered.store.export_columns() == live
            assert recovered.store.graph.label("a") == "a"


# ----------------------------------------------------------------------
# v1 directories, built byte by byte as the v1 writer laid them out
# ----------------------------------------------------------------------
def v1_record(op, tick):
    payload = pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(payload, zlib.crc32(struct.pack("<Q", tick)))
    return struct.pack("<IIQ", len(payload), crc, tick) + payload


def v1_segment(records, base_ticks):
    header = struct.pack("<8sHHQ", b"LOOMWAL1", 1, 0, base_ticks)
    return header + b"".join(v1_record(op, tick) for op, tick in records)


def v1_checkpoint(ticks, image):
    header = struct.pack(
        "<8sHHQQI", b"LOOMCKPT", 1, 0, ticks, len(image), zlib.crc32(image)
    )
    return header + image


def mutate(store, first, last):
    """Arrive, link and place vertices ``first..last-1``, grow the
    capacity once and retract one of them."""
    for v in range(first, last):
        store.add_vertex(v, "ab"[v % 2])
        if v > first:
            store.add_edge(v - 1, v)
        store.assign_vertex(v, v % store.k)
    store.grow_capacity(store.assignment.capacity + 4)
    store.remove_vertex(first + 1)


class TestV1Directories:
    def test_v1_checkpoint_and_tail_recover_byte_identically(self, tmp_path):
        store = DistributedGraphStore.incremental(2, 16)
        logged = []
        store.wal_hook = lambda op, tick: logged.append((op, tick))
        mutate(store, 0, 8)
        ticks = store.mutation_ticks
        (tmp_path / f"ckpt-{ticks:016d}.ckpt").write_bytes(
            v1_checkpoint(ticks, store.export_columns())
        )
        logged[:] = [(("c", store.assignment.capacity), ticks)]
        mutate(store, 100, 110)
        # ``("v+", "s", "s")`` pickles its label as a back-reference.
        store.add_vertex("s", "s")
        store.assign_vertex("s", 0)
        (tmp_path / "wal-00000000.seg").write_bytes(v1_segment(logged, ticks))

        recovered, info = recover_store(tmp_path, partitions=2)
        assert info.checkpoint_ticks == ticks
        assert not info.torn_tail
        assert recovered.mutation_ticks == store.mutation_ticks
        assert recovered.export_columns() == store.export_columns()
        assert [(tick, op) for op, tick in logged] == list(
            read_segment(tmp_path / "wal-00000000.seg")
        )

    def test_a_v1_directory_keeps_logging_in_v2(self, tmp_path):
        """``Cluster.recover`` adopts a v1 directory and checkpoints it:
        later sessions see only the current formats."""
        store = DistributedGraphStore.incremental(2, 16)
        logged = [(("c", 16), 0)]
        store.wal_hook = lambda op, tick: logged.append((op, tick))
        mutate(store, 0, 8)
        (tmp_path / "wal-00000000.seg").write_bytes(v1_segment(logged, 0))
        (tmp_path / "config.json").write_text(
            '{"partitions": 2, "method": "ldg"}'
        )
        with Cluster.recover(tmp_path) as recovered:
            assert recovered.store.export_columns() == store.export_columns()
            recovered.ingest([V(200), E(200, 0)])
            live = recovered.store.export_columns()
        again, _ = recover_store(tmp_path, partitions=2)
        assert again.export_columns() == live
