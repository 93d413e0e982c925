"""The fault matrix: every scripted failure must end in a correct answer.

One test per fault kind (kill, hang, corrupt, slow, boot, stall), each
asserting the same contract: the parallel call returns results
field-identical to serial execution, silently (no degradation warning),
with the failure visible only in the session's
:class:`~repro.api.ResilienceReport` -- plus the exhausted-budget
paths (serial fallback with a warning, or raise with
``fallback_serial=False``).

``REPRO_START_METHOD`` (the CI fault-matrix job's knob, read by
``default_start_method``) pins the multiprocessing start method.
"""

import warnings

import pytest

from repro.api import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    WorkerConfig,
    WorkerFault,
)
from repro.datasets import motif_testbed
from repro.runtime import WorkerCrashError
from repro.runtime.pool import default_start_method

START = default_start_method()

EXECUTIONS = 12


@pytest.fixture()
def testbed():
    graph, workload = motif_testbed(5, instances=10, noise=30)
    return graph, workload


def open_faulty(graph, workload, fault_plan, **worker_overrides):
    options = dict(
        count=2,
        start_method=START,
        fault_plan=fault_plan,
    )
    options.update(worker_overrides)
    session = Cluster.open(
        ClusterConfig(
            partitions=4,
            method="ldg",
            seed=5,
            worker=WorkerConfig(**options),
        ),
        workload=workload,
    )
    session.ingest(graph, workers=1)  # pool spawns at first parallel call
    return session


def run_silently(session):
    """The faulted parallel run must match serial and stay warning-free."""
    serial = session.run_workload(executions=EXECUTIONS, seed=3, workers=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parallel = session.run_workload(executions=EXECUTIONS, seed=3)
    assert parallel == serial
    return session.resilience


class TestFaultMatrix:
    def test_kill_mid_request_retries_to_success(self, testbed):
        graph, workload = testbed
        plan = FaultPlan([WorkerFault(worker_id=0, kind="kill")])
        with open_faulty(graph, workload, plan) as session:
            report = run_silently(session)
            assert report.call_retries >= 1
            assert report.worker_respawns >= 1
            assert report.serial_fallbacks == 0
            assert session.pool.alive

    def test_hang_times_out_then_retries(self, testbed):
        graph, workload = testbed
        plan = FaultPlan([WorkerFault(worker_id=1, kind="hang")])
        with open_faulty(
            graph, workload, plan, request_timeout=1.5
        ) as session:
            report = run_silently(session)
            assert report.call_retries >= 1
            assert report.worker_respawns >= 1

    def test_corrupt_payload_is_a_crash(self, testbed):
        graph, workload = testbed
        plan = FaultPlan([WorkerFault(worker_id=0, kind="corrupt")])
        with open_faulty(graph, workload, plan) as session:
            report = run_silently(session)
            assert report.call_retries >= 1

    def test_slow_worker_is_not_a_failure(self, testbed):
        graph, workload = testbed
        plan = FaultPlan(
            [WorkerFault(worker_id=0, kind="slow", delay=0.3)]
        )
        with open_faulty(
            graph, workload, plan, request_timeout=30.0
        ) as session:
            report = run_silently(session)
            # Latency within the deadline must burn no retry budget.
            assert report.call_retries == 0
            assert report.worker_respawns == 0

    def test_boot_failure_respawns(self, testbed):
        graph, workload = testbed
        plan = FaultPlan(
            [WorkerFault(worker_id=1, kind="boot")]
        )
        with open_faulty(graph, workload, plan) as session:
            report = run_silently(session)
            # The boot fault killed the generation-0 spawn; the retry's
            # generation-1 pool (fault disarmed) serves the call.
            assert report.call_retries >= 1
            assert report.worker_respawns >= 1
            assert session.pool.generation >= 1

    def test_boot_stall_times_out_then_respawns(self, testbed):
        """A worker stalled before its first read fails the spawn at the
        request timeout, and the retry's pool serves the call."""
        graph, workload = testbed
        plan = FaultPlan(
            [WorkerFault(worker_id=1, kind="stall", delay=30.0)]
        )
        with open_faulty(
            graph, workload, plan, request_timeout=1.0
        ) as session:
            report = run_silently(session)
            assert report.call_retries >= 1
            assert report.worker_respawns >= 1
            assert session.pool.generation >= 1

    def test_fault_on_a_later_generation_only(self, testbed):
        """Generation scoping: a fault armed for generation 1 leaves the
        first pool untouched."""
        graph, workload = testbed
        plan = FaultPlan(
            [WorkerFault(worker_id=0, kind="kill", generation=1)]
        )
        with open_faulty(graph, workload, plan) as session:
            report = run_silently(session)
            assert report.call_retries == 0
            assert session.pool.generation == 0


class TestExhaustedBudget:
    def exhausting_plan(self):
        """Kill generations 0..3: one more than 1 initial + 2 retries."""
        return FaultPlan(
            [
                WorkerFault(worker_id=0, kind="kill", generation=g)
                for g in range(4)
            ]
        )

    def test_serial_fallback_after_retries(self, testbed):
        graph, workload = testbed
        with open_faulty(
            graph, workload, self.exhausting_plan(), max_retries=2
        ) as session:
            serial = session.run_workload(
                executions=EXECUTIONS, seed=3, workers=1
            )
            with pytest.warns(RuntimeWarning, match="degraded"):
                degraded = session.run_workload(executions=EXECUTIONS, seed=3)
            assert degraded == serial
            report = session.resilience
            assert report.call_retries == 2
            assert report.serial_fallbacks == 1

    def test_raises_when_fallback_disabled(self, testbed):
        graph, workload = testbed
        with open_faulty(
            graph,
            workload,
            self.exhausting_plan(),
            max_retries=1,
            fallback_serial=False,
        ) as session:
            with pytest.raises(WorkerCrashError):
                session.run_workload(executions=EXECUTIONS, seed=3)
            report = session.resilience
            assert report.call_retries == 1
            assert report.serial_fallbacks == 0
            # The session itself survives: serial execution still works.
            session.run_workload(executions=EXECUTIONS, seed=3, workers=1)

    def test_zero_retries_degrades_immediately(self, testbed):
        graph, workload = testbed
        plan = FaultPlan([WorkerFault(worker_id=0, kind="kill")])
        with open_faulty(
            graph, workload, plan, max_retries=0
        ) as session:
            serial = session.run_workload(
                executions=EXECUTIONS, seed=3, workers=1
            )
            with pytest.warns(RuntimeWarning, match="degraded"):
                degraded = session.run_workload(executions=EXECUTIONS, seed=3)
            assert degraded == serial
            assert session.resilience.call_retries == 0
            assert session.resilience.serial_fallbacks == 1


class TestPlanRoundTrip:
    def test_fault_plan_round_trips_through_config(self):
        plan = FaultPlan(
            [
                WorkerFault(worker_id=1, kind="hang", at_message=2,
                            delay=1.5, generation=1),
                WorkerFault(worker_id=0, kind="kill"),
            ]
        )
        config = ClusterConfig(
            partitions=4, worker=WorkerConfig(count=2, fault_plan=plan)
        )
        rebuilt = ClusterConfig.from_dict(config.as_dict())
        assert rebuilt.worker.fault_plan == plan

    def test_for_worker_filters_by_id_and_generation(self):
        plan = FaultPlan(
            [
                WorkerFault(worker_id=0, kind="kill"),
                WorkerFault(worker_id=0, kind="hang", generation=1),
                WorkerFault(worker_id=1, kind="slow", delay=0.1),
            ]
        )
        assert [f.kind for f in plan.for_worker(0, 0)] == ["kill"]
        assert [f.kind for f in plan.for_worker(0, 1)] == ["hang"]
        assert [f.kind for f in plan.for_worker(1, 0)] == ["slow"]
        assert plan.for_worker(2, 0) == ()

    def test_bad_fault_values_rejected(self):
        with pytest.raises(ValueError):
            WorkerFault(worker_id=0, kind="meteor")
        with pytest.raises(ValueError):
            WorkerFault(worker_id=-1, kind="kill")
        with pytest.raises(ValueError):
            WorkerFault(worker_id=0, kind="kill", at_message=0)
