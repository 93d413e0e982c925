"""The per-worker deadline regression: one slow worker must not starve
the rest of their timeout budget, and hangs must be attributed to the
worker whose response actually never arrived.

Before the multiplexed gather the pool drained mailboxes worker by
worker, so whichever order the drain visited them, the *total* wait
could reach N x timeout -- and worse, a worker polled late got blamed
for a hang even when its answer had been sitting in the pipe for the
whole slow peer's nap.  The gather now polls every pending pipe under
one shared ``time.monotonic()`` deadline.
"""

import random
import time

import pytest

from repro.api import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    WorkerConfig,
    WorkerFault,
)
from repro.datasets import motif_testbed
from repro.runtime.pool import default_start_method
from repro.runtime import ShardSnapshot, WorkerCrashError, WorkerPool

START = default_start_method()

#: One slow-but-alive worker: answers normally after this nap.
SLOW_SECONDS = 1.2


@pytest.fixture()
def placed():
    graph, workload = motif_testbed(5, instances=8, noise=20)
    session = Cluster.open(
        ClusterConfig(partitions=4, method="ldg", seed=5), workload=workload
    )
    session.ingest(graph)
    return session, workload


class TestSlowWorkerNotStarved:
    def test_slow_worker_does_not_fail_the_round(self, placed):
        """A slow-fault worker under the timeout completes the round:
        nobody is declared hung, nobody is respawned, and the report
        equals the serial run."""
        session, workload = placed
        graph = session.graph
        config = ClusterConfig(
            partitions=4,
            method="ldg",
            seed=5,
            worker=WorkerConfig(
                count=2,
                start_method=START,
                request_timeout=30.0,
                fault_plan=FaultPlan(
                    (WorkerFault(0, "slow", delay=SLOW_SECONDS),)
                ),
            ),
        )
        with Cluster.open(config, workload=workload) as parallel:
            parallel.ingest(graph)
            serial = parallel.run_workload(executions=10, seed=3, workers=1)
            # The fault fires on the pool's first post-boot message
            # (the execute broadcast of this parallel run).
            report = parallel.run_workload(executions=10, seed=3)
            assert report == serial
            resilience = parallel.resilience
            assert resilience.worker_respawns == 0
            assert resilience.call_retries == 0
            assert resilience.serial_fallbacks == 0
            assert parallel.pool is not None and parallel.pool.alive

    def test_fast_workers_keep_their_own_budget(self, placed):
        """Direct pool round trip: with timeout > slow delay the gather
        succeeds, and the whole round costs ~max(delay), never
        sum-over-workers of full timeouts."""
        session, workload = placed
        snapshot = ShardSnapshot.of(session.store)
        plan = FaultPlan((WorkerFault(0, "slow", delay=SLOW_SECONDS),))
        queries = [workload.sample(random.Random(1)) for _ in range(4)]
        with WorkerPool(
            snapshot,
            workers=3,
            start_method=START,
            timeout=SLOW_SECONDS * 10,
            fault_plan=plan,
        ) as pool:
            began = time.monotonic()
            responses = pool.execute(queries)
            elapsed = time.monotonic() - began
        assert len(responses) == 3
        assert [r.worker_id for r in responses] == [0, 1, 2]
        # Shared deadline: the slow worker's nap bounds the round; the
        # old per-worker sequential drain would have been legal up to
        # workers * timeout.  Generous factor for loaded CI boxes.
        assert elapsed < SLOW_SECONDS * 6


class TestHangAttribution:
    def test_hang_blames_only_the_hung_worker(self, placed):
        """With worker 1 hanging past the deadline, the crash names
        worker 1 (alive but silent) and no one else -- the fast workers'
        answers were drained, not mistaken for hangs."""
        session, workload = placed
        snapshot = ShardSnapshot.of(session.store)
        plan = FaultPlan((WorkerFault(1, "hang"),))
        queries = [workload.sample(random.Random(1)) for _ in range(2)]
        pool = WorkerPool(
            snapshot,
            workers=3,
            start_method=START,
            timeout=1.5,
            fault_plan=plan,
        )
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.execute(queries)
        finally:
            pool.close()
        message = str(excinfo.value)
        assert "worker 1" in message
        assert "worker 0" not in message
        assert "worker 2" not in message
        assert "alive but silent" in message
