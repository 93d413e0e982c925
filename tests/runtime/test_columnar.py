"""Columnar codec: the store's flat-buffer hot-path wire format."""

import pickle
import random
import struct

import pytest

from repro.api import Cluster, ClusterConfig
from repro.cluster.columnar import (
    FLAG_INT_VERTICES,
    HEADER,
    MAGIC,
    STORE_COLUMNS_SCHEMA,
    ColumnsFormatError,
    decode_columns,
    encode_columns,
    peek_header,
)
from repro.cluster.store import DistributedGraphStore
from repro.graph.labelled import LabelledGraph
from repro.workload import PatternQuery, Workload


def small_session(method="ldg", partitions=3, seed=0):
    workload = Workload([PatternQuery("ab", LabelledGraph.path("ab"))])
    session = Cluster.open(
        ClusterConfig(partitions=partitions, method=method, seed=seed),
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


def assert_stores_equivalent(original, rebuilt):
    assert rebuilt.graph == original.graph
    # Iteration/index orders drive executor determinism: they must
    # survive the round trip exactly, not just set-wise.
    assert list(rebuilt.graph.vertices()) == list(original.graph.vertices())
    for label in original.graph.labels():
        assert rebuilt.graph.vertices_with_label(label) == (
            original.graph.vertices_with_label(label)
        )
    for vertex in original.graph.vertices():
        assert rebuilt.graph.sorted_neighbours(vertex) == (
            original.graph.sorted_neighbours(vertex)
        )
        assert rebuilt.partition_of(vertex) == original.partition_of(vertex)
        assert rebuilt.replicas_of(vertex) == original.replicas_of(vertex)
    assert rebuilt.assignment.sizes() == original.assignment.sizes()
    assert rebuilt.assignment.capacity == original.assignment.capacity


def tiny_store(vertices, edges, *, k=2, capacity=16):
    """Hand-built store (no session machinery) for edge-case layouts."""
    store = DistributedGraphStore.incremental(k, capacity)
    for vertex, label, partition in vertices:
        store.add_vertex(vertex, label)
        if partition is not None:
            store.assign_vertex(vertex, partition)
    for u, v in edges:
        store.add_edge(u, v)
    return store


class TestRoundTrip:
    def test_session_store_round_trips(self):
        store = small_session().store
        rebuilt = DistributedGraphStore.import_columns(store.export_columns())
        assert_stores_equivalent(store, rebuilt)

    def test_round_trip_preserves_replicas(self):
        store = small_session().store
        victims = list(store.graph.vertices())[:4]
        for victim in victims:
            assert store.add_replica(victim, (store.partition_of(victim) + 1)
                                     % store.k)
        rebuilt = DistributedGraphStore.import_columns(store.export_columns())
        assert_stores_equivalent(store, rebuilt)
        for victim in victims:
            assert rebuilt.replicas_of(victim) == store.replicas_of(victim)

    def test_round_trip_after_removals(self):
        """Slot recycling must not leak into the image: a rebuilt store
        behaves identically even after removals and re-adds."""
        session = small_session()
        store = session.store
        victims = list(store.graph.vertices())[:5]
        session.retract(vertices=victims)
        rebuilt = DistributedGraphStore.import_columns(store.export_columns())
        assert_stores_equivalent(store, rebuilt)

    def test_image_is_positional_not_slot_bound(self):
        """Decode-then-re-encode is a byte fixed point even when the
        source store carries recycled slots: the image speaks positions,
        so a densely rebuilt replica re-encodes to exactly the bytes it
        was born from, no matter the source's slot history."""
        session = small_session()
        store = session.store
        session.retract(vertices=list(store.graph.vertices())[:3])
        once = DistributedGraphStore.import_columns(store.export_columns())
        twice = DistributedGraphStore.import_columns(once.export_columns())
        assert once.export_columns() == twice.export_columns()

    def test_decodes_from_memoryview(self):
        """The in-place path: decoding a memoryview slice equals
        decoding the bytes."""
        store = small_session().store
        payload = store.export_columns()
        framed = b"\x00" * 7 + payload + b"\x00" * 3
        view = memoryview(framed)[7:7 + len(payload)]
        rebuilt = decode_columns(view)
        assert_stores_equivalent(store, rebuilt)

    def test_unassigned_vertices_survive(self):
        """A vertex that arrived but was never placed (the window of a
        streaming ingest) must stay unassigned after the round trip."""
        store = tiny_store(
            [(1, "a", 0), (2, "b", None), (3, "a", 1)], [(1, 2), (2, 3)]
        )
        rebuilt = decode_columns(encode_columns(store))
        assert rebuilt.graph == store.graph
        assert rebuilt.assignment.partition_of(2) is None
        assert rebuilt.assignment.partition_of(1) == 0
        assert rebuilt.assignment.partition_of(3) == 1
        assert rebuilt.assignment.sizes() == store.assignment.sizes()

    def test_non_int_vertex_ids_fall_back_to_pickle(self):
        store = tiny_store(
            [("alice", "a", 0), ("bob", "b", 1), (7, "a", 0)],
            [("alice", "bob"), ("bob", 7)],
        )
        payload = encode_columns(store)
        assert not peek_header(payload).flags & FLAG_INT_VERTICES
        rebuilt = decode_columns(payload)
        assert_stores_equivalent(store, rebuilt)

    def test_huge_int_ids_fall_back_to_pickle(self):
        big = 1 << 70  # does not fit the int64 fast-path column
        store = tiny_store([(big, "a", 0), (1, "b", 1)], [(big, 1)])
        payload = encode_columns(store)
        assert not peek_header(payload).flags & FLAG_INT_VERTICES
        assert_stores_equivalent(store, decode_columns(payload))

    def test_empty_store(self):
        store = DistributedGraphStore.incremental(3, 10)
        rebuilt = decode_columns(encode_columns(store))
        assert rebuilt.k == 3
        assert rebuilt.assignment.capacity == 10
        assert rebuilt.graph.num_vertices == 0

    def test_deterministic_bytes(self):
        store = small_session().store
        assert store.export_columns() == store.export_columns()


class TestHeader:
    def test_peek_reports_store_shape(self):
        store = small_session().store
        header = peek_header(store.export_columns())
        assert header.k == store.k
        assert header.capacity == store.assignment.capacity
        assert header.num_vertices == store.graph.num_vertices
        assert header.num_edges == store.graph.num_edges
        assert header.flags & FLAG_INT_VERTICES

    def test_short_buffer_rejected(self):
        with pytest.raises(ColumnsFormatError, match="shorter"):
            peek_header(b"LOOM")

    def test_foreign_magic_rejected(self):
        payload = small_session().store.export_columns()
        mangled = b"NOTCOLS1" + payload[len(MAGIC):]
        with pytest.raises(ColumnsFormatError, match=STORE_COLUMNS_SCHEMA):
            peek_header(mangled)

    def test_future_version_rejected(self):
        payload = small_session().store.export_columns()
        mangled = MAGIC + b"\xff\x7f" + payload[len(MAGIC) + 2:]
        with pytest.raises(ColumnsFormatError, match="magic/version"):
            peek_header(mangled)

    def test_truncated_image_rejected(self):
        payload = small_session().store.export_columns()
        with pytest.raises(ColumnsFormatError, match="truncated"):
            decode_columns(payload[:HEADER.size + 8])

    def test_vertex_count_mismatch_rejected(self):
        store = tiny_store([(1, "a", 0), (2, "b", 1)], [(1, 2)])
        payload = bytearray(encode_columns(store))
        # Claim 3 vertices in the header but ship columns for 2: the
        # int64 vertex read then eats the label-length column, and the
        # per-section length checks must catch the lie before any
        # half-built store escapes.
        lied = HEADER.pack(MAGIC, 1, FLAG_INT_VERTICES, store.k,
                           store.assignment.capacity, 3, 1, 2, 0, 16, 2)
        payload[:HEADER.size] = lied
        with pytest.raises(ColumnsFormatError):
            decode_columns(bytes(payload))


class TestInconsistentContents:
    """Section lengths hold but an index points outside its table: the
    decoder must fail typed, never with a bare ``IndexError`` or a
    half-built store."""

    @staticmethod
    def image_and_offsets():
        store = tiny_store(
            [(1, "a", 0), (2, "b", 1), (3, "a", 1)], [(1, 2), (2, 3)]
        )
        store.add_replica(1, 1)
        payload = bytearray(encode_columns(store))
        header = peek_header(payload)
        codes = (
            HEADER.size
            + 8 * header.num_vertices
            + 4 * header.num_labels
            + header.label_blob_len
        )
        edges = codes + 4 * header.num_vertices
        parts = edges + 8 * header.num_edges
        replicas = parts + 4 * header.num_vertices
        assert replicas + 8 * header.num_replicas == len(payload)
        return payload, {
            "codes": codes, "edges": edges, "parts": parts,
            "replicas": replicas,
        }

    @pytest.mark.parametrize(
        "column,fmt,value,match",
        [
            ("codes", "=I", 2, "label code"),
            ("edges", "=Q", (0 << 32) | 3, "edge endpoint"),
            ("edges", "=Q", (3 << 32) | 1, "edge endpoint"),
            ("parts", "=i", 2, "partition"),
            ("parts", "=i", -2, "partition"),
            ("replicas", "=Q", (3 << 32) | 1, "replica"),
            ("replicas", "=Q", (0 << 32) | 2, "replica"),
        ],
    )
    def test_out_of_range_entry_rejected(self, column, fmt, value, match):
        payload, offsets = self.image_and_offsets()
        struct.pack_into(fmt, payload, offsets[column], value)
        with pytest.raises(ColumnsFormatError, match=match):
            decode_columns(bytes(payload))

    def test_trailing_bytes_rejected(self):
        payload, _ = self.image_and_offsets()
        with pytest.raises(ColumnsFormatError, match="trailing"):
            decode_columns(bytes(payload) + b"\x00")

    def test_vertex_blob_naming_a_global_rejected_unresolved(
        self, hostile_object
    ):
        """A tampered checkpoint: the pickled vertex blob of a ``str``-id
        image is swapped for one that would create a file when loaded."""
        store = tiny_store([("x", "a", 0), ("y", "b", 1)], [("x", "y")])
        payload = encode_columns(store)
        header = peek_header(payload)
        planted, marker = hostile_object
        hostile = pickle.dumps(planted)
        fields = list(HEADER.unpack_from(payload))
        fields[9] = len(hostile)
        tampered = (
            HEADER.pack(*fields)
            + hostile
            + payload[HEADER.size + header.vertex_blob_len:]
        )
        with pytest.raises(ColumnsFormatError, match="vertex blob"):
            decode_columns(tampered)
        assert not marker.exists()


class TestScale:
    def test_larger_random_store_round_trips(self):
        rng = random.Random(11)
        store = DistributedGraphStore.incremental(5, 200)
        for v in range(400):
            store.add_vertex(v, rng.choice("abcdef"))
            store.assign_vertex(v, rng.randrange(5))
        for v in range(1, 400):
            store.add_edge(v, rng.randrange(v))
        for v in range(0, 400, 17):
            store.add_replica(v, (store.partition_of(v) + 1) % 5)
        rebuilt = DistributedGraphStore.import_columns(store.export_columns())
        assert_stores_equivalent(store, rebuilt)
