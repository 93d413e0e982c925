"""Over TCP, a bad ingest batch is an error reply that changes nothing:
the tenant's store and partitioner stay as they were and it keeps
answering (the in-process cases are in ``tests/api/test_ingest_checks.py``)."""

import pytest

from repro.api import ClusterConfig
from repro.serve import ServeClient, TenantConfig
from repro.serve.client import RemoteSessionError
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    VertexArrival,
    VertexRemoval,
)

FIRST = [
    VertexArrival(1, "account", 0),
    VertexArrival(2, "account", 1),
    EdgeArrival(1, 2, 2),
]
THIRD = VertexArrival(3, "account", 3)


@pytest.mark.parametrize(
    "bad, message",
    [
        (VertexArrival(1, "device", 4), "event 1: vertex 1 is already resident"),
        (VertexArrival(1, "account", 4), "event 1: vertex 1 is already resident"),
        (EdgeArrival(3, 99, 4), r"event 1: edge \(3, 99\)"),
        (VertexRemoval(99, 4), "event 1: vertex 99 is not resident"),
        (EdgeRemoval(1, 3, 4), r"event 1: edge \(1, 3\) is not resident"),
    ],
)
def test_bad_batch_is_an_error_reply_that_changes_nothing(
    serve_factory, bad, message
):
    tenant = TenantConfig(
        name="alpha",
        cluster=ClusterConfig(method="loom", partitions=2),
        workload_dataset="fraud",
    )
    server = serve_factory(tenant)
    with ServeClient(port=server.port, tenant="alpha") as client:
        client.ingest(FIRST)
        session = server.server.hosts["alpha"].session
        image = session.store.export_columns()
        ticks = session.store.mutation_ticks
        placed = session._pipeline.partitioner.assignment.assigned()
        stats = client.stats()
        with pytest.raises(RemoteSessionError, match=message):
            client.ingest([THIRD, bad])
        assert session.store.export_columns() == image
        assert session.store.mutation_ticks == ticks
        assert session.is_complete
        assert session._pipeline.partitioner.assignment.assigned() == placed
        assert client.stats() == stats
        assert client.call("workload", {"executions": 1})
        client.ingest([THIRD, EdgeArrival(3, 1, 4)])
        assert client.stats()["vertices"] == 3


@pytest.mark.parametrize("method", ["ldg", "loom", "hash", "offline"])
def test_capacity_overflow_is_an_error_reply_that_changes_nothing(
    serve_factory, method
):
    tenant = TenantConfig(
        name="alpha",
        cluster=ClusterConfig(method=method, partitions=2, capacity=2),
        workload_dataset="fraud",
    )
    server = serve_factory(tenant)
    with ServeClient(port=server.port, tenant="alpha") as client:
        client.ingest(FIRST)
        session = server.server.hosts["alpha"].session
        image = session.store.export_columns()
        ticks = session.store.mutation_ticks
        overflow = [
            THIRD,
            VertexArrival(4, "account", 4),
            VertexArrival(5, "account", 5),
        ]
        with pytest.raises(RemoteSessionError, match="event 2: 5 vertices"):
            client.ingest(overflow)
        assert session.store.export_columns() == image
        assert session.store.mutation_ticks == ticks
        assert session.is_complete
        assert client.call("workload", {"executions": 1})
        client.ingest(overflow[:2])
        assert client.stats()["vertices"] == 4
        assert client.call("workload", {"executions": 1})
