"""Unit tests for the wire protocol: framing, envelopes, codecs, and
the verb-registry contract (``VERBS`` keys == daemon handlers)."""

import asyncio
import json

import pytest

from repro.graph.labelled import LabelledGraph
from repro.runtime.mailbox import QueryPayload
from repro.serve import ClusterHost
from repro.serve.protocol import (
    ERROR_KINDS,
    HEADER,
    VERBS,
    FrameTooLargeError,
    ProtocolError,
    decode_body,
    edges_from_wire,
    encode_frame,
    error_response,
    events_from_wire,
    events_to_wire,
    ok_response,
    pattern_from_wire,
    pattern_to_wire,
    read_frame,
)
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    VertexArrival,
    VertexRemoval,
)
from repro.workload.query import PatternQuery


def _read_one(data: bytes, **kwargs):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader, **kwargs)

    return asyncio.run(scenario())


class TestFraming:
    def test_round_trip(self):
        body = {"verb": "ping", "id": 3, "payload": {"z": 1, "a": 2}}
        frame = encode_frame(body)
        (length,) = HEADER.unpack(frame[: HEADER.size])
        assert length == len(frame) - HEADER.size
        assert decode_body(frame[HEADER.size:]) == body

    def test_canonical_bytes(self):
        """Equal bodies are byte-equal frames whatever dict order
        produced them -- the differential tests rely on this."""
        one = encode_frame({"a": 1, "b": [2, 3]})
        other = encode_frame({"b": [2, 3], "a": 1})
        assert one == other
        assert b" " not in one[HEADER.size:]

    def test_oversize_body_rejected_at_encode(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"blob": "x" * 64}, max_frame_bytes=32)

    def test_body_must_be_json_object(self):
        with pytest.raises(ProtocolError):
            decode_body(b"\xff\xfe")
        with pytest.raises(ProtocolError):
            decode_body(b"[1, 2]")

    def test_read_frame_round_trip(self):
        assert _read_one(encode_frame({"id": 1})) == {"id": 1}

    def test_read_frame_clean_eof_is_none(self):
        assert _read_one(b"") is None

    def test_read_frame_mid_header_eof(self):
        with pytest.raises(ProtocolError):
            _read_one(b"\x00\x00")

    def test_read_frame_mid_body_eof(self):
        frame = encode_frame({"id": 1})
        with pytest.raises(ProtocolError):
            _read_one(frame[:-1])

    def test_read_frame_oversize_announcement(self):
        with pytest.raises(FrameTooLargeError):
            _read_one(HEADER.pack(1 << 24), max_frame_bytes=1 << 20)


class TestEnvelopes:
    def test_ok(self):
        assert ok_response(7, {"x": 1}) == {
            "id": 7,
            "ok": True,
            "result": {"x": 1},
        }

    def test_error_kinds_are_closed(self):
        body = error_response(7, "busy", "try later")
        assert body == {
            "id": 7,
            "ok": False,
            "error": {"kind": "busy", "message": "try later"},
        }
        with pytest.raises(ValueError):
            error_response(7, "made-up", "nope")
        for kind in ERROR_KINDS:
            assert error_response(None, kind, "m")["error"]["kind"] == kind


class TestEventCodec:
    EVENTS = [
        VertexArrival(1, "a", 0),
        VertexArrival(2, "b", 1),
        EdgeArrival(1, 2, 2),
        EdgeRemoval(1, 2, 3),
        VertexRemoval(2, 4),
    ]

    def test_round_trip(self):
        wire = events_to_wire(self.EVENTS)
        assert events_from_wire(wire) == self.EVENTS

    def test_wire_form_is_json_plain(self):
        wire = events_to_wire(self.EVENTS)
        assert events_from_wire(json.loads(json.dumps(wire))) == self.EVENTS

    def test_unknown_event_rejected(self):
        with pytest.raises(ProtocolError):
            events_to_wire([object()])

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            events_from_wire([["??", 1, 2]])

    def test_malformed_arity_rejected(self):
        with pytest.raises(ProtocolError):
            events_from_wire([["v+", 1]])
        with pytest.raises(ProtocolError):
            events_from_wire([17])

    @pytest.mark.parametrize("time", [True, None, 1.5, "0", [0]])
    @pytest.mark.parametrize(
        "item",
        [["v+", 1, "a"], ["e+", 1, 2], ["e-", 1, 2], ["v-", 1]],
        ids=["v+", "e+", "e-", "v-"],
    )
    def test_time_must_be_an_integer(self, item, time):
        with pytest.raises(ProtocolError, match="event time"):
            events_from_wire([[*item, time]])


class TestPatternCodec:
    def _pattern(self):
        graph = LabelledGraph()
        graph.add_vertex(0, "a")
        graph.add_vertex(1, "b")
        graph.add_vertex(2, "a")
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        return PatternQuery("wedge", graph)

    def test_round_trip_preserves_search_order(self):
        pattern = self._pattern()
        wire = json.loads(json.dumps(pattern_to_wire(pattern)))
        rebuilt = pattern_from_wire(wire)
        assert QueryPayload.from_query(rebuilt) == QueryPayload.from_query(
            pattern
        )

    def test_malformed_pattern_rejected(self):
        with pytest.raises(ProtocolError):
            pattern_from_wire({"name": "x"})
        with pytest.raises(ProtocolError):
            pattern_from_wire({"name": "x", "vertices": [[1]], "edges": []})


class TestEdgeCodec:
    def test_round_trip(self):
        assert edges_from_wire([[1, 2], [3, 4]]) == [(1, 2), (3, 4)]

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            edges_from_wire([[1, 2, 3]])
        with pytest.raises(ProtocolError):
            edges_from_wire(7)


class TestVerbRegistry:
    """The one enforcement of the verb registry: every ``VERBS`` key has
    a ``_verb_<name>`` handler on the daemon, and every handler a key."""

    def test_every_declared_verb_has_a_handler(self):
        for verb in VERBS:
            assert callable(getattr(ClusterHost, f"_verb_{verb}", None)), (
                f"VERBS declares {verb!r} but ClusterHost has no handler"
            )

    def test_every_handler_is_declared(self):
        handlers = {
            name[len("_verb_"):]
            for name in vars(ClusterHost)
            if name.startswith("_verb_")
        }
        assert handlers == set(VERBS)
