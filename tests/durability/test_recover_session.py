"""``Cluster.recover`` as the one way back: what it must refuse, and what
it must keep that a JSON state document cannot (the replicas)."""

import json

import pytest

from repro.api import Cluster, ClusterConfig, DurabilityConfig
from repro.exceptions import SessionError


def durable_config(wal_dir, partitions, **fields):
    return ClusterConfig(
        partitions=partitions,
        durability=DurabilityConfig(mode="wal", wal_dir=str(wal_dir)),
        **fields,
    )


def closed_session(wal_dir, *, checkpoint):
    """A k=3 durable LDG session over ``social``, closed."""
    session = Cluster.open(durable_config(wal_dir, 3, method="ldg", seed=0))
    session.ingest("social", size=60)
    if checkpoint:
        session.checkpoint()
    session.close()
    return session


class TestPartitionCount:
    def test_config_json_mismatch_is_refused(self, tmp_path):
        session = closed_session(tmp_path, checkpoint=False)
        with pytest.raises(SessionError, match=r"3-partition.*asks for 4"):
            Cluster.recover(
                tmp_path, config=durable_config(tmp_path, 4, method="ldg")
            )
        # The refusal leaves the directory as it was.
        assert json.loads((tmp_path / "config.json").read_text()) == (
            session.config.as_dict()
        )
        with Cluster.recover(tmp_path) as recovered:
            assert recovered.recovery.checkpoint_ticks == 0
            assert recovered.stats().sizes == session.stats().sizes

    def test_checkpoint_mismatch_is_refused(self, tmp_path):
        """With ``config.json`` gone only the checkpoint image knows k."""
        session = closed_session(tmp_path, checkpoint=True)
        (tmp_path / "config.json").unlink()
        with pytest.raises(SessionError, match=r"holds 3 partitions.*for 4"):
            Cluster.recover(
                tmp_path, config=durable_config(tmp_path, 4, method="ldg")
            )
        with Cluster.recover(tmp_path, config=session.config) as recovered:
            assert recovered.recovery.checkpoint_ticks > 0
            assert recovered.stats().partitions == 3
            assert recovered.stats().sizes == session.stats().sizes


class TestReplicaFidelity:
    def test_replicated_session_recovers_whole(self, tmp_path):
        """Replicas lower remote traversals, so recovery must keep them:
        the image, the replication factor and a sampled workload report
        all match the live session."""
        session = Cluster.open(
            durable_config(tmp_path, 4, method="ldg", seed=0)
        )
        session.ingest("fraud", size=120)
        report = session.replicate(budget=40)
        assert report.replicas_added > 0
        columns = session.store.export_columns()
        stats = session.stats()
        workload = session.run_workload(executions=40, seed=3)
        session.close()
        with Cluster.recover(tmp_path, workload=session.workload) as recovered:
            assert recovered.store.export_columns() == columns
            assert (
                recovered.stats().replication_factor
                == stats.replication_factor
                > 1.0
            )
            assert recovered.run_workload(executions=40, seed=3) == workload
