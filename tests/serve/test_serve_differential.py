"""The tentpole acceptance test: a workload run through the TCP client
is byte-identical to the same commands against an in-process Session.

Two differentials:

* **Scripted pairwise** -- one client and one local session execute the
  same op script (ingest incl. the churned dataset, query, workload,
  retract, rebalance, stats, snapshot); every response compares equal
  to the local report's ``as_dict()`` after stripping wall-clock
  timing fields (canonical sorted-key JSON, so 'equal' means equal
  bytes on the wire).
* **Concurrent replay** -- two client threads run mixed
  ingest/query/retract concurrently (plus a third connection that
  disconnects mid-run without reading its reply).  The tenant host's
  ``command_journal`` records the serialised execution order; replaying
  that journal through a fresh in-process session via the *same*
  handler code must reproduce every recorded response and the final
  snapshot byte for byte.
"""

import json
import socket
import threading
import time

from repro.api import Cluster, ClusterConfig
from repro.datasets import DATASETS
from repro.graph.labelled import LabelledGraph
from repro.serve import ClusterHost, ServeClient, TenantConfig
from repro.serve.protocol import (
    encode_frame,
    events_to_wire,
    pattern_to_wire,
)
from repro.stream.events import EdgeArrival, VertexArrival
from repro.workload.query import PatternQuery

CONFIG = ClusterConfig(partitions=4, method="ldg", seed=11)

#: Wall-clock fields; everything else must match byte for byte.
TIMING = {
    "seconds",
    "engine_seconds",
    "events_per_second",
    "stage_seconds",
    "shard_import_seconds",
    "workers",
    "import_seconds",
    "cpu_seconds",
}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in TIMING}
    if isinstance(obj, (list, tuple)):
        return [_strip(v) for v in obj]
    return obj


def canonical(payload) -> str:
    return json.dumps(_strip(payload), sort_keys=True)


def _social_workload():
    return DATASETS["social"][1]()


def _chain(vertices, label="a"):
    events = [VertexArrival(v, label, t) for t, v in enumerate(vertices)]
    events.extend(
        EdgeArrival(u, v, len(vertices) + t)
        for t, (u, v) in enumerate(zip(vertices, vertices[1:]))
    )
    return events


def _pattern(name, label="a"):
    graph = LabelledGraph()
    graph.add_vertex(0, label)
    graph.add_vertex(1, label)
    graph.add_edge(0, 1)
    return PatternQuery(name, graph)


class TestScriptedDifferential:
    def test_tcp_equals_in_process(self, serve_factory, make_tenant):
        server = serve_factory(
            make_tenant(
                "diff", cluster=CONFIG, workload_dataset="social"
            )
        )
        local = Cluster.open(CONFIG, workload=_social_workload())
        client = ServeClient(port=server.port, tenant="diff")
        try:
            remote = client.ingest("social", size=60, seed=2)
            assert canonical(remote) == canonical(
                local.ingest("social", size=60, seed=2).as_dict()
            )

            pattern = _social_workload().queries[0]
            remote = client.query(pattern, track_edges=True)
            assert canonical(remote) == canonical(
                local.query(pattern, track_edges=True).as_dict()
            )

            remote = client.run_workload(executions=25, seed=3)
            assert canonical(remote) == canonical(
                local.run_workload(executions=25, seed=3).as_dict()
            )

            victims = sorted(local.graph.vertices())[:2]
            edge = sorted(local.graph.edges())[-1]
            remote = client.retract(vertices=victims, edges=(edge,))
            assert canonical(remote) == canonical(
                local.retract(vertices=victims, edges=(edge,)).as_dict()
            )

            remote = client.rebalance(max_moves=5)
            assert canonical(remote) == canonical(
                local.rebalance(max_moves=5).as_dict()
            )

            # The churned dataset: a mixed insert/delete event stream.
            remote = client.ingest("churn", size=40, seed=4)
            local_report = local.ingest("churn", size=40, seed=4)
            assert remote["removals"] > 0
            assert canonical(remote) == canonical(local_report.as_dict())

            assert canonical(client.stats()) == canonical(
                local.stats().as_dict()
            )
            # No timing fields in a snapshot: exact equality.
            assert client.snapshot() == local.snapshot()
        finally:
            client.close()
            local.close()


class TestConcurrentReplayDifferential:
    def _run_thread(self, port, script, recorded, errors):
        client = ServeClient(port=port, tenant="diff")
        try:
            for verb, payload in script:
                recorded.append((verb, payload, client.call(verb, payload)))
        except Exception as error:  # noqa: BLE001 - reraised by the test
            errors.append(error)
        finally:
            client.close()

    def test_interleaved_clients_equal_serialised_replay(
        self, serve_factory, make_tenant
    ):
        tenant = make_tenant(
            "diff", cluster=CONFIG, workload_dataset="social"
        )
        server = serve_factory(tenant)
        host = server.server.hosts["diff"]
        journal: list = []
        host.command_journal = journal

        seed_client = ServeClient(port=server.port, tenant="diff")
        recorded: list = []
        errors: list = []
        try:
            recorded.append(
                (
                    "ingest",
                    {"dataset": "social", "size": 50, "seed": 2},
                    seed_client.call(
                        "ingest",
                        {"dataset": "social", "size": 50, "seed": 2},
                    ),
                )
            )
            scripts = [
                [
                    (
                        "ingest",
                        {"events": events_to_wire(_chain(range(1000, 1012)))},
                    ),
                    ("query", {"pattern": pattern_to_wire(_pattern("qa"))}),
                    ("retract", {"vertices": [1000, 1001], "edges": []}),
                ],
                [
                    (
                        "ingest",
                        {"events": events_to_wire(_chain(range(2000, 2012)))},
                    ),
                    ("workload", {"executions": 10, "seed": 7}),
                    ("retract", {"vertices": [2005], "edges": []}),
                ],
            ]
            threads = [
                threading.Thread(
                    target=self._run_thread,
                    args=(server.port, script, recorded, errors),
                )
                for script in scripts
            ]
            for thread in threads:
                thread.start()

            # A third connection fires one mutating command and hangs up
            # without reading the reply: the command must still execute
            # exactly once.
            rude_payload = {"events": events_to_wire(_chain(range(3000, 3006)))}
            rude = socket.create_connection(("127.0.0.1", server.port))
            rude.sendall(
                encode_frame(
                    {
                        "id": 99,
                        "verb": "ingest",
                        "tenant": "diff",
                        "payload": rude_payload,
                    }
                )
            )
            rude.close()

            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if ("ingest", rude_payload) in journal:
                    break
                time.sleep(0.02)
            assert journal.count(("ingest", rude_payload)) == 1

            recorded.append(("stats", {}, seed_client.call("stats", {})))
            recorded.append(
                ("snapshot", {}, seed_client.call("snapshot", {}))
            )
        finally:
            seed_client.close()
        server.stop()  # joins the host thread: the journal is final

        assert len(journal) == len(recorded) + 1  # + the rude ingest
        responses = {
            canonical({"verb": verb, "payload": payload}): result
            for verb, payload, result in recorded
        }
        assert len(responses) == len(recorded), "ops must be distinct"

        replay = Cluster.open(CONFIG, workload=_social_workload())
        fake = ClusterHost(tenant)
        fake.session = replay
        try:
            for verb, payload in journal:
                outcome = fake._execute(verb, payload)
                assert outcome[0] == "ok", outcome
                key = canonical({"verb": verb, "payload": payload})
                if key in responses:
                    assert canonical(outcome[1]) == canonical(
                        responses.pop(key)
                    )
            assert not responses, "journal missed recorded commands"
        finally:
            replay.close()
