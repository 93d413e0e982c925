"""Worker metric deltas merge exactly: parallel == serial, faults excluded.

The acceptance bar for the observability layer's distribution story:
a 2-worker run must report *semantic* counters identical to the same
run with ``workers=1`` (time-valued series are exempt -- wall time is
not semantic), worker-side deltas must conserve exactly against the
coordinator's executor totals, and a killed worker's partial deltas
must never leak into the merged registry (no double counting across
respawn/retry).
"""

import pytest

from repro.api import Cluster, ClusterConfig, FaultPlan, WorkerConfig, WorkerFault
from repro.datasets import motif_testbed
from repro.runtime.pool import default_start_method

START = default_start_method()

#: Counters whose values must be byte-identical serial vs parallel.
SEMANTIC = (
    ("executor.queries", {}),
    ("executor.answers", {}),
    ("executor.traversals", {"scope": "local"}),
    ("executor.traversals", {"scope": "remote"}),
)


def run_session(workers, fault_plan=None):
    graph, workload = motif_testbed(3, instances=12, noise=40)
    config = ClusterConfig(
        partitions=4,
        method="ldg",
        seed=3,
        worker=WorkerConfig(
            count=workers, start_method=START, fault_plan=fault_plan,
            retry_backoff=0.0,
        ),
    )
    with Cluster.open(config, workload=workload) as session:
        session.ingest(graph)
        session.run_workload(executions=30, workers=workers)
        return session.metrics()


def value(snapshot, name, labels):
    for row in snapshot["metrics"][name]["series"]:
        if row["labels"] == labels:
            return row["value"]
    return 0.0


def worker_sum(snapshot, name, labels):
    return value(snapshot, name, labels)


@pytest.fixture(scope="module")
def serial():
    return run_session(1)


@pytest.fixture(scope="module")
def parallel():
    return run_session(2)


class TestParallelEqualsSerial:
    def test_semantic_counters_identical(self, serial, parallel):
        for name, labels in SEMANTIC:
            assert value(parallel, name, labels) == value(
                serial, name, labels
            ), name

    def test_counters_are_nonzero(self, serial):
        # A vacuous identity (0 == 0) would pass the test above while
        # the instrumentation is silently dead; pin real work happened.
        assert value(serial, "executor.queries", {}) == 30.0
        assert value(serial, "executor.answers", {}) > 0
        assert value(serial, "executor.traversals", {"scope": "local"}) > 0


class TestWorkerConservation:
    def test_worker_deltas_conserve_exactly(self, parallel):
        # Answer-producing work is owned by exactly one worker, so the
        # mailbox-reported deltas must sum to the coordinator's totals
        # exactly -- not approximately.
        for scope in ("local", "remote"):
            assert worker_sum(
                parallel, "worker.traversals", {"scope": scope}
            ) == value(parallel, "executor.traversals", {"scope": scope})
        # Workers report raw partial answers; the coordinator's merge
        # dedups by (vertex set, edge ids), so worker-side counts bound
        # the merged total from above.
        assert worker_sum(parallel, "worker.answers", {}) >= value(
            parallel, "executor.answers", {}
        )
        assert value(parallel, "worker.requests", {}) > 0

    def test_serial_runs_report_no_worker_series(self, serial):
        assert value(serial, "worker.requests", {}) == 0.0
        assert value(serial, "worker.traversals", {"scope": "local"}) == 0.0


class TestFaultIsolation:
    def test_killed_worker_deltas_never_double_count(self, serial):
        # Kill worker 0 on its first workload request; the pool
        # respawns and the retry succeeds.  Deltas from the dead
        # generation must not leak: conservation still holds and the
        # semantic counters still equal serial's.
        plan = FaultPlan([WorkerFault(worker_id=0, kind="kill")])
        snapshot = run_session(2, fault_plan=plan)
        for name, labels in SEMANTIC:
            assert value(snapshot, name, labels) == value(
                serial, name, labels
            ), name
        for scope in ("local", "remote"):
            assert worker_sum(
                snapshot, "worker.traversals", {"scope": scope}
            ) == value(snapshot, "executor.traversals", {"scope": scope})
        assert value(snapshot, "resilience.worker_respawns", {}) >= 1.0
        assert value(snapshot, "resilience.call_retries", {}) >= 1.0
