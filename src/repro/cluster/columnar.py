"""Columnar shard state: the store's flat-buffer binary representation.

Pickling O(graph) Python objects through a pipe on every worker refresh
is expensive on the runtime hot path.  This module is the store's one
state codec -- one contiguous ``bytes`` image with an explicit fixed
binary layout, built from flat :mod:`array` columns, pickled as one
buffer down each worker's pipe and cheap to decode without unpickling
the structural data.

Layout (``loom-repro/store-columns/v1``, native-endian arrays, sections
back to back in this order)::

    header   magic ``LOOMCOL1`` + version, flags, k, capacity,
             |V|, |E|, #labels, #replicas, vertex/label blob lengths
             (little-endian, :data:`HEADER` struct)
    vertices int64 column (``flags & FLAG_INT_VERTICES``) or a pickled
             tuple blob -- vertex ids in insertion order; every other
             column refers to vertices by *position* in this column
    labels   uint32 length column + concatenated UTF-8 label table,
             distinct labels in first-use order
    codes    uint32 column, |V| entries: per-vertex label-table index
    edges    uint64 column, |E| entries: packed positional edge ids
             ``(min_pos << 32) | max_pos``, ascending
    parts    int32 column, |V| entries: partition per position
             (``-1`` = unassigned)
    replicas uint64 column: packed ``(pos << 32) | partition`` pairs,
             ascending

Positions -- not internal graph slots -- index everything, so two stores
with identical resident state but different slot-recycling histories
encode identical bytes, and a decoded store reproduces the original's
iteration order, label index and locality answers exactly -- the
guarantee the sharded query runtime (:mod:`repro.runtime`) rests on.
"""

from __future__ import annotations

import io
import pickle
import struct
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.store import DistributedGraphStore

#: Schema tag of the columnar image (mirrors the header magic+version).
STORE_COLUMNS_SCHEMA = "loom-repro/store-columns/v1"

MAGIC = b"LOOMCOL1"
VERSION = 1

#: Bit in the header flags: the vertex column is an int64 array (the
#: common all-int-id case); otherwise it is a pickled tuple blob.
FLAG_INT_VERTICES = 1

#: magic, version, flags, k, capacity, |V|, |E|, #labels, #replicas,
#: vertex blob length, label blob length.
HEADER = struct.Struct("<8sHHIQQQQQQQ")

#: Bit width of a position in a packed edge/replica entry.
POSITION_SHIFT = 32
_POSITION_MASK = (1 << POSITION_SHIFT) - 1

# The layout assumes CPython's fixed array item widths; a platform where
# they differ would silently corrupt the image, so refuse loudly.
if array("I").itemsize != 4 or array("i").itemsize != 4:  # pragma: no cover
    raise ImportError("columnar layout needs 4-byte array('I')/array('i')")
if array("q").itemsize != 8 or array("Q").itemsize != 8:  # pragma: no cover
    raise ImportError("columnar layout needs 8-byte array('q')/array('Q')")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class ColumnsFormatError(ValueError):
    """The buffer does not carry a ``loom-repro/store-columns/v1`` image."""


class PlainUnpickler(pickle.Unpickler):
    """The one unpickler for bytes read off disk (vertex blobs here, WAL
    records in :mod:`repro.runtime.wal`).  Vertex ids and ops are tuples
    of ``str`` / ``int``, which need no globals; a pickle that names one
    is hostile, and resolving it is what would run its code."""

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(f"global {module}.{name} in plain data")


@dataclass(frozen=True, slots=True)
class ColumnsHeader:
    """Decoded fixed header of one columnar image (cheap: no column reads)."""

    flags: int
    k: int
    capacity: int
    num_vertices: int
    num_edges: int
    num_labels: int
    num_replicas: int
    vertex_blob_len: int
    label_blob_len: int


def peek_header(buffer: bytes | memoryview) -> ColumnsHeader:
    """Validate and decode the fixed header of ``buffer``.

    Raises :class:`ColumnsFormatError` on anything that is not a
    version-1 columnar image -- including a too-short buffer.
    """
    if len(buffer) < HEADER.size:
        raise ColumnsFormatError(
            f"buffer of {len(buffer)} bytes is shorter than the "
            f"{HEADER.size}-byte {STORE_COLUMNS_SCHEMA!r} header"
        )
    (magic, version, flags, k, capacity, num_vertices, num_edges,
     num_labels, num_replicas, vertex_blob_len, label_blob_len,
     ) = HEADER.unpack_from(buffer)
    if magic != MAGIC or version != VERSION:
        raise ColumnsFormatError(
            f"magic/version {magic!r}/{version} is not "
            f"{MAGIC!r}/{VERSION} ({STORE_COLUMNS_SCHEMA!r})"
        )
    return ColumnsHeader(
        flags=flags,
        k=k,
        capacity=capacity,
        num_vertices=num_vertices,
        num_edges=num_edges,
        num_labels=num_labels,
        num_replicas=num_replicas,
        vertex_blob_len=vertex_blob_len,
        label_blob_len=label_blob_len,
    )


def encode_columns(store: "DistributedGraphStore") -> bytes:
    """One contiguous columnar image of ``store`` (see module layout)."""
    graph = store.graph
    vertices = list(graph.vertices())
    position = {vertex: index for index, vertex in enumerate(vertices)}

    label_table: dict[str, int] = {}
    label_codes = array("I")
    for vertex in vertices:
        label = graph.label(vertex)
        label_codes.append(label_table.setdefault(label, len(label_table)))
    encoded_labels = [label.encode("utf-8") for label in label_table]
    label_lengths = array("I", (len(blob) for blob in encoded_labels))
    label_blob = b"".join(encoded_labels)

    flags = FLAG_INT_VERTICES
    for vertex in vertices:
        if type(vertex) is not int or not _INT64_MIN <= vertex <= _INT64_MAX:
            flags = 0
            break
    if flags & FLAG_INT_VERTICES:
        vertex_blob = array("q", vertices).tobytes()
    else:
        vertex_blob = pickle.dumps(
            tuple(vertices), protocol=pickle.HIGHEST_PROTOCOL
        )

    edge_ids = array("Q")
    for u, v in graph.edges():
        iu, iv = position[u], position[v]
        if iu > iv:
            iu, iv = iv, iu
        edge_ids.append((iu << POSITION_SHIFT) | iv)
    # Canonical order: adjacency lives in hash sets, whose iteration
    # order depends on insertion *history* -- two stores holding the
    # same edges after different histories (live session vs checkpoint
    # restore + WAL replay) must still encode identical bytes.
    edge_ids = array("Q", sorted(edge_ids))

    partition_of = store.assignment.partition_of
    parts = array("i")
    for vertex in vertices:
        partition = partition_of(vertex)
        parts.append(-1 if partition is None else partition)

    replica_pairs = array("Q", sorted(
        (position[vertex] << POSITION_SHIFT) | partition
        for vertex, copies in store.replica_items()
        for partition in copies
    ))

    header = HEADER.pack(
        MAGIC,
        VERSION,
        flags,
        store.k,
        store.assignment.capacity,
        len(vertices),
        len(edge_ids),
        len(label_table),
        len(replica_pairs),
        len(vertex_blob),
        len(label_blob),
    )
    return b"".join((
        header,
        vertex_blob,
        label_lengths.tobytes(),
        label_blob,
        label_codes.tobytes(),
        edge_ids.tobytes(),
        parts.tobytes(),
        replica_pairs.tobytes(),
    ))


def decode_columns(buffer: bytes | memoryview) -> "DistributedGraphStore":
    """Rebuild a store from an :func:`encode_columns` image.

    Accepts any buffer (``bytes`` or a ``memoryview``); column reads
    slice the buffer in place, so decoding never copies the image.
    """
    from repro.cluster.store import DistributedGraphStore

    header = peek_header(buffer)
    view = memoryview(buffer)
    offset = HEADER.size

    def take(nbytes: int) -> memoryview:
        nonlocal offset
        if offset + nbytes > len(view):
            raise ColumnsFormatError(
                f"truncated columnar image: need {offset + nbytes} bytes, "
                f"have {len(view)}"
            )
        chunk = view[offset:offset + nbytes]
        offset += nbytes
        return chunk

    if header.flags & FLAG_INT_VERTICES:
        ids = array("q")
        ids.frombytes(take(8 * header.num_vertices))
        vertices: list[Any] = ids.tolist()
    else:
        blob = io.BytesIO(take(header.vertex_blob_len))
        try:
            vertices = list(PlainUnpickler(blob).load())
        except Exception as error:
            raise ColumnsFormatError(
                f"vertex blob is not a plain pickled tuple: {error}"
            ) from error
    if len(vertices) != header.num_vertices:
        raise ColumnsFormatError(
            f"vertex column holds {len(vertices)} ids, "
            f"header says {header.num_vertices}"
        )

    label_lengths = array("I")
    label_lengths.frombytes(take(4 * header.num_labels))
    label_blob = take(header.label_blob_len)
    labels: list[str] = []
    cursor = 0
    for length in label_lengths:
        labels.append(bytes(label_blob[cursor:cursor + length]).decode("utf-8"))
        cursor += length

    label_codes = array("I")
    label_codes.frombytes(take(4 * header.num_vertices))
    edge_bytes = take(8 * header.num_edges)
    edge_ids = array("Q")
    edge_ids.frombytes(edge_bytes)
    parts = array("i")
    parts.frombytes(take(4 * header.num_vertices))
    replica_pairs = array("Q")
    replica_pairs.frombytes(take(8 * header.num_replicas))
    if offset != len(view):
        raise ColumnsFormatError(
            f"{len(view) - offset} trailing bytes after the replica column"
        )
    # Section lengths held; now the contents: every index must land in
    # the table it refers to.  Both halves of a packed edge id are
    # positions, so reading that column as uint32 bounds them in one pass.
    positions = array("I")
    positions.frombytes(edge_bytes)
    n, k = header.num_vertices, header.k
    if label_codes and max(label_codes) >= header.num_labels:
        raise ColumnsFormatError("label code outside the label table")
    if positions and max(positions) >= n:
        raise ColumnsFormatError("edge endpoint outside the vertex column")
    if parts and (min(parts) < -1 or max(parts) >= k):
        raise ColumnsFormatError(f"partition outside [-1, {k})")
    if replica_pairs and (
        max(replica_pairs) >> POSITION_SHIFT >= n
        or max(pair & _POSITION_MASK for pair in replica_pairs) >= k
    ):
        raise ColumnsFormatError("replica entry outside |V| x k")

    store = DistributedGraphStore.incremental(header.k, header.capacity)
    add_vertex = store.graph.add_vertex
    for vertex, code in zip(vertices, label_codes, strict=True):
        add_vertex(vertex, labels[code])
    add_edge = store.graph.add_edge
    for eid in edge_ids:
        add_edge(
            vertices[eid >> POSITION_SHIFT], vertices[eid & _POSITION_MASK]
        )
    assign = store.assignment.assign
    for vertex, partition in zip(vertices, parts, strict=True):
        if partition >= 0:
            assign(vertex, partition)
    for pair in replica_pairs:
        store.adopt_replica(
            vertices[pair >> POSITION_SHIFT], pair & _POSITION_MASK
        )
    return store
