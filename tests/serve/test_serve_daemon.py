"""Daemon behaviour over a live socket, plus the ClusterHost quota
machinery (admission control, backpressure, queued-deadline expiry,
shutdown) tested deterministically below the network layer."""

import asyncio
import socket
import threading

import pytest

from repro.api import ClusterConfig, DurabilityConfig
from repro.graph.labelled import LabelledGraph
from repro.serve import ClusterHost, ServeClient
from repro.serve.client import (
    BadRequestError,
    RemoteSessionError,
    UnknownTenantError,
    UnknownVerbError,
)
from repro.serve.protocol import (
    HEADER,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_body,
    encode_frame,
)
from repro.stream.events import EdgeArrival, VertexArrival
from repro.workload.query import PatternQuery

SMALL = ClusterConfig(partitions=2, method="ldg", seed=3)


def _events(vertices):
    events = [VertexArrival(v, "a", t) for t, v in enumerate(vertices)]
    events.extend(
        EdgeArrival(u, v, len(vertices) + t)
        for t, (u, v) in enumerate(zip(vertices, vertices[1:]))
    )
    return events


def _pattern():
    graph = LabelledGraph()
    graph.add_vertex(0, "a")
    graph.add_vertex(1, "a")
    graph.add_edge(0, 1)
    return PatternQuery("pair", graph)


class TestWireBehaviour:
    def test_server_ping_names_the_roster(self, serve_factory, make_tenant):
        server = serve_factory(make_tenant("alpha"), make_tenant("beta"))
        with ServeClient(port=server.port) as client:
            assert client.ping() == {
                "protocol": PROTOCOL_VERSION,
                "tenants": ["alpha", "beta"],
            }

    def test_tenant_ping(self, serve_factory, make_tenant):
        server = serve_factory(make_tenant("alpha"))
        with ServeClient(port=server.port, tenant="alpha") as client:
            pong = client.ping()
        assert pong["tenant"] == "alpha"
        assert pong["protocol"] == PROTOCOL_VERSION

    def test_unknown_tenant(self, serve_factory, make_tenant):
        server = serve_factory(make_tenant("alpha"))
        with ServeClient(port=server.port, tenant="ghost") as client:
            with pytest.raises(UnknownTenantError, match="alpha"):
                client.stats()

    def test_unknown_verb(self, serve_factory, make_tenant):
        server = serve_factory(make_tenant("alpha"))
        with ServeClient(port=server.port, tenant="alpha") as client:
            with pytest.raises(UnknownVerbError):
                client.call("frobnicate")

    def test_non_positive_deadline_is_bad_request(
        self, serve_factory, make_tenant
    ):
        server = serve_factory(make_tenant("alpha"))
        with ServeClient(port=server.port, tenant="alpha") as client:
            with pytest.raises(BadRequestError, match="deadline"):
                client.call("ping", deadline=-1.0)

    def test_ingest_query_stats_round_trip(
        self, serve_factory, make_tenant
    ):
        server = serve_factory(make_tenant("alpha", cluster=SMALL))
        with ServeClient(port=server.port, tenant="alpha") as client:
            report = client.ingest(_events(range(10)))
            assert report["vertices"] == 10
            assert report["edges"] == 9
            result = client.query(_pattern())
            assert result["matches"] > 0
            stats = client.stats()
            assert stats["vertices"] == 10
            snapshot = client.snapshot()
            assert snapshot["schema"] == "loom-repro/session/v1"

    def test_session_errors_are_typed(self, serve_factory, make_tenant):
        server = serve_factory(make_tenant("alpha", cluster=SMALL))
        with ServeClient(port=server.port, tenant="alpha") as client:
            client.ingest(_events(range(4)))
            with pytest.raises(RemoteSessionError, match="not resident"):
                client.retract(vertices=(999,))
            with pytest.raises(RemoteSessionError, match="size -5"):
                client.call("ingest", {"dataset": "social", "size": -5})

    def test_ambiguous_ingest_is_bad_request(
        self, serve_factory, make_tenant
    ):
        server = serve_factory(make_tenant("alpha", cluster=SMALL))
        with ServeClient(port=server.port, tenant="alpha") as client:
            with pytest.raises(BadRequestError, match="exactly one"):
                client.call(
                    "ingest", {"dataset": "social", "events": []}
                )

    @pytest.mark.parametrize(
        "verb, payload, culprit",
        [
            ("query", {}, "pattern"),
            ("workload", {"executions": "many"}, "executions"),
            ("retract", {"vertices": 7}, "vertices"),
            ("rebalance", {"min_gain": None}, "min_gain"),
            ("ingest", {"dataset": "social", "size": "big"}, "size"),
            # Ill-typed values inside a payload: vertex ids are JSON
            # integers or strings, labels strings.
            ("retract", {"vertices": [[1, 2]]}, "vertex id"),
            ("retract", {"vertices": [{"a": 1}]}, "vertex id"),
            ("retract", {"edges": [[[1], 2]]}, "vertex id"),
            ("ingest", {"events": [["v+", [9], "a", 0]]}, "vertex id"),
            ("ingest", {"events": [["v+", 9, ["a"], 0]]}, "label"),
            # ... and event times JSON integers.
            ("ingest", {"events": [["v+", 9, "a", True]]}, "event time"),
            ("ingest", {"events": [["v+", 9, "a", 0.5]]}, "event time"),
            ("ingest", {"events": [["e+", 0, 1, None]]}, "event time"),
            ("ingest", {"events": [["v-", 0, "0"]]}, "event time"),
            (
                "query",
                {"pattern": {"name": "p", "vertices": [[[0], "a"]], "edges": []}},
                "vertex id",
            ),
        ],
    )
    def test_malformed_payload_is_bad_request_not_internal(
        self, serve_factory, make_tenant, verb, payload, culprit
    ):
        server = serve_factory(make_tenant("alpha", cluster=SMALL))
        with ServeClient(port=server.port, tenant="alpha") as client:
            client.ingest(_events(range(4)))
            with pytest.raises(BadRequestError, match=culprit):
                client.call(verb, payload)
            assert client.stats()["vertices"] == 4

    def test_oversize_frame_answered_then_dropped(
        self, serve_factory, make_tenant
    ):
        """A peer announcing a body over the server's ceiling gets one
        best-effort bad-request reply, then the connection dies (an
        out-of-frame stream cannot be resynchronised)."""
        server = serve_factory(
            make_tenant("alpha"), max_frame_bytes=2048
        )
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(HEADER.pack(1 << 22))
            header = sock.recv(HEADER.size)
            (length,) = HEADER.unpack(header)
            body = decode_body(sock.recv(length))
            assert body["ok"] is False
            assert body["error"]["kind"] == "bad-request"
            assert sock.recv(1) == b""  # server hung up

    def test_mid_run_disconnect_leaves_server_healthy(
        self, serve_factory, make_tenant
    ):
        server = serve_factory(make_tenant("alpha", cluster=SMALL))
        rude = socket.create_connection(("127.0.0.1", server.port))
        rude.sendall(
            encode_frame(
                {"id": 1, "verb": "ping", "tenant": "alpha", "payload": {}}
            )
        )
        rude.close()  # never reads the response
        with ServeClient(port=server.port, tenant="alpha") as client:
            assert client.ping()["tenant"] == "alpha"

    def test_client_reconnects_after_connection_drop(
        self, serve_factory, make_tenant
    ):
        server = serve_factory(make_tenant("alpha"), max_frame_bytes=2048)
        client = ServeClient(port=server.port, tenant="alpha")
        try:
            with pytest.raises(BadRequestError):
                # Over the server's ceiling, under the client's own.
                client.call("ping", {"pad": "x" * 4096})
            # The server dropped that connection; the client notices the
            # dead socket on the next call and reconnects cleanly after.
            try:
                pong = client.ping()
            except (ProtocolError, OSError):
                pong = client.ping()
            assert pong["tenant"] == "alpha"
        finally:
            client.close()


class TestDurableRestart:
    def test_restart_over_populated_wal_dir_recovers(
        self, serve_factory, make_tenant, tmp_path
    ):
        """A daemon started over a WAL directory a previous daemon
        populated recovers the tenant instead of refusing the directory:
        the restarted server serves the same snapshot."""
        cluster = ClusterConfig(
            partitions=2,
            method="ldg",
            seed=3,
            durability=DurabilityConfig(mode="wal", wal_dir=str(tmp_path / "wal")),
        )
        first = serve_factory(make_tenant("alpha", cluster=cluster))
        with ServeClient(port=first.port, tenant="alpha") as client:
            client.ingest(_events(range(12)))
            assert client.retract(vertices=[3, 7])["vertices_removed"] == 2
            truth = client.snapshot()
        first.stop()

        second = serve_factory(make_tenant("alpha", cluster=cluster))
        with ServeClient(port=second.port, tenant="alpha") as client:
            assert client.snapshot() == truth
            assert client.stats()["vertices"] == 10


class TestHostQuotas:
    """ClusterHost below the socket layer: deterministic via an
    instance-level blocking handler (submit() does not consult VERBS,
    so the fake verb never needs a registry entry)."""

    @pytest.fixture()
    def host(self, make_tenant):
        hosts = []

        def factory(**kwargs):
            kwargs.setdefault("cluster", SMALL)
            host = ClusterHost(make_tenant("alpha", **kwargs))
            host.start()
            hosts.append(host)
            return host

        yield factory
        for host in hosts:
            host.stop()

    @staticmethod
    def _block(host):
        started = threading.Event()
        release = threading.Event()

        def sleepy(payload):
            started.set()
            release.wait(10.0)
            return {"slept": True}

        host._verb_sleepy = sleepy
        return started, release

    def test_admission_control(self, host):
        one = host(max_inflight=1)
        started, release = self._block(one)

        async def scenario():
            loop = asyncio.get_running_loop()
            slow = one.submit("sleepy", {}, 30.0, loop)
            assert not isinstance(slow, tuple)
            assert await asyncio.to_thread(started.wait, 5.0)
            rejected = one.submit("ping", {}, 30.0, loop)
            release.set()
            return rejected, await asyncio.wait_for(slow, 10.0)

        rejected, outcome = asyncio.run(scenario())
        assert rejected[:2] == ("error", "busy")
        assert "max_inflight=1" in rejected[2]
        assert outcome == ("ok", {"slept": True})

    def test_backpressure_rejects_when_queue_full(self, host):
        one = host(max_inflight=8, max_pending=1)
        started, release = self._block(one)

        async def scenario():
            loop = asyncio.get_running_loop()
            slow = one.submit("sleepy", {}, 30.0, loop)
            assert await asyncio.to_thread(started.wait, 5.0)
            queued = one.submit("ping", {}, 30.0, loop)
            assert not isinstance(queued, tuple)
            rejected = one.submit("ping", {}, 30.0, loop)
            release.set()
            await asyncio.wait_for(slow, 10.0)
            await asyncio.wait_for(queued, 10.0)
            return rejected

        rejected = asyncio.run(scenario())
        assert rejected[:2] == ("error", "busy")
        assert "max_pending=1" in rejected[2]

    def test_queued_command_past_deadline_never_touches_the_session(
        self, host
    ):
        one = host()
        started, release = self._block(one)
        journal = []
        one.command_journal = journal

        async def scenario():
            loop = asyncio.get_running_loop()
            slow = one.submit("sleepy", {}, 30.0, loop)
            fast = one.submit("ping", {}, 0.05, loop)
            assert await asyncio.to_thread(started.wait, 5.0)
            await asyncio.sleep(0.2)
            release.set()
            return (
                await asyncio.wait_for(slow, 10.0),
                await asyncio.wait_for(fast, 10.0),
            )

        slow, fast = asyncio.run(scenario())
        assert slow == ("ok", {"slept": True})
        assert fast[:2] == ("error", "deadline")
        # The expired command was answered without executing.
        assert [verb for verb, _ in journal] == ["sleepy"]

    def test_stopped_host_answers_shutdown(self, host):
        one = host()
        one.stop()

        async def scenario():
            return one.submit("ping", {}, 30.0, asyncio.get_running_loop())

        outcome = asyncio.run(scenario())
        assert outcome[:2] == ("error", "shutdown")
