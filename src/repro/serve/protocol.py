"""The wire protocol: length-prefixed JSON frames plus the verb registry.

Frame layout (both directions)::

    +----------------+------------------------------------------+
    | 4 bytes, ``!I`` | UTF-8 JSON body, exactly ``length`` bytes |
    +----------------+------------------------------------------+

A request body is ``{"id", "verb", "tenant", "payload", "deadline"}``
(``deadline`` in seconds, optional; ``tenant`` may be null for
server-level verbs like ``ping``).  A response body is ``{"id", "ok":
true, "result"}`` or ``{"id", "ok": false, "error": {"kind",
"message"}}`` with ``kind`` drawn from :data:`ERROR_KINDS`.

:data:`VERBS` is the authoritative verb registry:
``tests/serve/test_serve_protocol.py::TestVerbRegistry`` holds it equal
to the daemon's ``_verb_*`` handlers, so a verb declared here without a
handler (or a handler with no declaration) fails tier-1 instead of
surfacing as an 'unknown verb' at runtime.

Payload codecs live here too.  Stream events travel as compact tagged
lists mirroring the store's journal tags (``["v+", vertex, label, t]``
...); pattern graphs travel through the mailbox layer's
:class:`~repro.runtime.mailbox.QueryPayload` flattening, which
preserves the pattern graph's insertion order -- and therefore the
serial executor's search order -- across the wire.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from repro.exceptions import ReproError
from repro.runtime.mailbox import QueryPayload
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    StreamEvent,
    VertexArrival,
    VertexRemoval,
)
from repro.workload.query import PatternQuery

if TYPE_CHECKING:
    import asyncio

#: Bumped on incompatible frame/body changes; echoed by ``ping``.
PROTOCOL_VERSION = 1

#: 4-byte big-endian unsigned body length.
HEADER = struct.Struct("!I")

#: Hard ceiling on one frame's body -- a peer announcing more is
#: protocol-broken (or hostile), not just large.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: verb -> one-line contract.  The daemon must define ``_verb_<name>``
#: for every key and no other (``TestVerbRegistry`` in
#: ``tests/serve/test_serve_protocol.py`` holds both directions).
VERBS = {
    "ping": "server liveness, protocol version and tenant roster",
    "ingest": "stream events or a named dataset into the cluster",
    "query": "execute one pattern query to completion",
    "workload": "sample and execute the tenant's workload",
    "retract": "explicitly delete resident vertices/edges",
    "rebalance": "live-migrate the worst-placed vertices",
    "stats": "one ClusterStats snapshot",
    "snapshot": "the full portable session snapshot",
    "metrics": "merged serve + session metrics snapshot (json or prom)",
}

#: Error kinds a response may carry (client maps them to typed errors).
ERROR_KINDS = (
    "bad-request",
    "unknown-verb",
    "unknown-tenant",
    "busy",
    "deadline",
    "session",
    "shutdown",
    "internal",
)


class ServeError(ReproError):
    """Base class for serving-layer errors."""


class ProtocolError(ServeError):
    """A malformed frame or body (not valid JSON, not a dict, bad verb
    envelope)."""


class FrameTooLargeError(ProtocolError):
    """A frame's announced body length exceeds the configured ceiling."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(
    body: dict[str, Any], *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """One wire frame for ``body``: header plus canonical JSON.

    ``sort_keys`` keeps equal bodies byte-equal whatever dict insertion
    order produced them (the differential tests compare raw frames).
    """
    data = json.dumps(body, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    if len(data) > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame body is {len(data)} bytes "
            f"(limit {max_frame_bytes})"
        )
    return HEADER.pack(len(data)) + data


def decode_body(data: bytes) -> dict[str, Any]:
    """Parse one frame body; anything but a JSON object is a protocol
    error."""
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not JSON: {error}") from error
    if not isinstance(body, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(body).__name__}"
        )
    return body


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream reader.

    Returns ``None`` on clean EOF at a frame boundary (the peer hung
    up between requests); EOF *inside* a frame is a protocol error.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-header") from error
    (length,) = HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"peer announced a {length}-byte body "
            f"(limit {max_frame_bytes})"
        )
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-body") from error
    return decode_body(data)


# ----------------------------------------------------------------------
# Response envelopes
# ----------------------------------------------------------------------
def ok_response(request_id: Any, result: Any) -> dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any, kind: str, message: str
) -> dict[str, Any]:
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind {kind!r}")
    return {
        "id": request_id,
        "ok": False,
        "error": {"kind": kind, "message": message},
    }


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
#: Wire tags for the stream-event alphabet (mirrors the journal tags).
_EVENT_TAGS = ("v+", "e+", "e-", "v-")


def _vertex(value: Any) -> int | str:
    """A wire vertex id: a JSON integer or string (``type`` rather than
    ``isinstance``, so a bool is neither)."""
    if type(value) is int or type(value) is str:
        return value
    raise ProtocolError(
        f"vertex id must be an integer or a string, got {value!r}"
    )


def _label(value: Any) -> str:
    if type(value) is str:
        return value
    raise ProtocolError(f"label must be a string, got {value!r}")


def events_to_wire(events: Iterable[StreamEvent]) -> list[list[Any]]:
    """Tagged-list encoding of a stream, order-preserving."""
    wire: list[list[Any]] = []
    for event in events:
        if isinstance(event, VertexArrival):
            wire.append(["v+", event.vertex, event.label, event.time])
        elif isinstance(event, EdgeArrival):
            wire.append(["e+", event.u, event.v, event.time])
        elif isinstance(event, EdgeRemoval):
            wire.append(["e-", event.u, event.v, event.time])
        elif isinstance(event, VertexRemoval):
            wire.append(["v-", event.vertex, event.time])
        else:
            raise ProtocolError(f"unknown stream event {event!r}")
    return wire


def events_from_wire(wire: Iterable[Any]) -> list[StreamEvent]:
    """Decode :func:`events_to_wire` output back into stream events."""
    events: list[StreamEvent] = []
    for item in wire:
        if not isinstance(item, (list, tuple)) or not item:
            raise ProtocolError(f"malformed event {item!r}")
        tag, *rest = item
        try:
            if tag == "v+":
                vertex, label, time = rest
                events.append(
                    VertexArrival(_vertex(vertex), _label(label), time)
                )
            elif tag == "e+":
                u, v, time = rest
                events.append(EdgeArrival(_vertex(u), _vertex(v), time))
            elif tag == "e-":
                u, v, time = rest
                events.append(EdgeRemoval(_vertex(u), _vertex(v), time))
            elif tag == "v-":
                vertex, time = rest
                events.append(VertexRemoval(_vertex(vertex), time))
            else:
                raise ProtocolError(
                    f"unknown event tag {tag!r} "
                    f"(expected one of {_EVENT_TAGS})"
                )
        except ValueError as error:
            raise ProtocolError(f"malformed event {item!r}") from error
    return events


def pattern_to_wire(pattern: PatternQuery) -> dict[str, Any]:
    """Flatten a pattern query via the mailbox payload (insertion
    order preserved, so remote search order equals local)."""
    payload = QueryPayload.from_query(pattern)
    return {
        "name": payload.name,
        "vertices": [list(pair) for pair in payload.vertices],
        "edges": [list(pair) for pair in payload.edges],
    }


def pattern_from_wire(wire: dict[str, Any]) -> PatternQuery:
    """Rebuild a pattern query from :func:`pattern_to_wire` output."""
    try:
        payload = QueryPayload(
            name=wire["name"],
            vertices=tuple(
                (_vertex(vertex), _label(label))
                for vertex, label in wire["vertices"]
            ),
            edges=tuple((_vertex(u), _vertex(v)) for u, v in wire["edges"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed pattern {wire!r}") from error
    return payload.to_query()


def vertices_from_wire(wire: Iterable[Any]) -> list[int | str]:
    """Decode a retract payload's vertex list."""
    return [_vertex(vertex) for vertex in wire]


def edges_from_wire(wire: Iterable[Any]) -> list[tuple[int | str, int | str]]:
    """Decode a retract payload's edge list back into pair tuples."""
    try:
        return [(_vertex(u), _vertex(v)) for u, v in wire]
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"malformed edge list {wire!r}") from error
