"""Seed threading: equal seeds replay identically; the module-global
``random`` generator is never touched by any session command; and no
output depends on the process it was computed in."""

import random

from repro.api import Cluster, ClusterConfig

#: One durable LOOM session over string vertex ids (whose set and dict
#: orders move with ``PYTHONHASHSEED``), through every command that
#: reorders state, printing a digest of everything the session encodes.
HASH_SEED_SCRIPT = '''
import hashlib, json
from repro.api import Cluster, ClusterConfig, DurabilityConfig
from repro.graph import canonical_form

def emit(value):
    print(hashlib.sha256(repr(value).encode()).hexdigest())

session = Cluster.open(ClusterConfig(
    partitions=3, method="loom", window_size=16, motif_threshold=0.3,
    seed=5, durability=DurabilityConfig(mode="wal", wal_dir=WAL_DIR),
))
session.ingest("social", size=60)
session.retract(vertices=sorted(session.graph.vertices())[:3])
session.rebalance(max_moves=8)
emit(session.run_workload(executions=40))
emit(session.store.export_columns())
snapshot = session.snapshot()
del snapshot["config"]["durability"]["wal_dir"]
emit(json.dumps(snapshot, sort_keys=True))
emit([canonical_form(query.graph) for query in session.workload.queries])
session.close()
recovered = Cluster.recover(WAL_DIR)
emit(recovered.store.export_columns())
recovered.close()
'''


def build_and_exercise(seed: int):
    session = Cluster.open(
        ClusterConfig(partitions=4, method="loom", window_size=32,
                      motif_threshold=0.4, seed=seed)
    )
    ingest = session.ingest("fraud", size=40)
    report = session.run_workload(executions=50)
    return session, ingest, report


class TestDeterminism:
    def test_same_seed_identical_reports(self):
        s1, ingest1, report1 = build_and_exercise(11)
        s2, ingest2, report2 = build_and_exercise(11)
        assert s1.assignment.assigned() == s2.assignment.assigned()
        assert ingest1.events == ingest2.events
        assert report1 == report2
        stats1, stats2 = s1.stats(), s2.stats()
        assert stats1.sizes == stats2.sizes
        assert stats1.cut_fraction == stats2.cut_fraction

    def test_different_seeds_differ_somewhere(self):
        _, _, report1 = build_and_exercise(11)
        _, _, report2 = build_and_exercise(12)
        # Different master seeds produce different graphs, so the reports
        # cannot coincide in every field.
        assert report1 != report2

    def test_global_random_state_untouched(self):
        random.seed(20260730)
        before = random.getstate()
        session, _, _ = build_and_exercise(3)
        session.query(session.workload.queries[0])
        session.replicate(budget=5, executions=10)
        session.snapshot()
        assert random.getstate() == before

    def test_same_output_under_any_hash_seed(self, run_python, tmp_path):
        outputs = [
            run_python(
                f"WAL_DIR = {str(tmp_path / seed)!r}\n" + HASH_SEED_SCRIPT,
                PYTHONHASHSEED=seed,
            )
            for seed in ("1", "2")
        ]
        assert len(outputs[0].split()) == 5
        assert outputs[0] == outputs[1]

    def test_explicit_rng_overrides_derived_seed(self):
        session1 = Cluster.open(
            ClusterConfig(partitions=4, method="loom", window_size=32,
                          motif_threshold=0.4, seed=0)
        )
        session1.ingest("fraud", size=40)
        r1 = session1.run_workload(executions=30, rng=random.Random(5))
        r2 = session1.run_workload(executions=30, rng=random.Random(5))
        assert r1 == r2
        r3 = session1.run_workload(executions=30, seed=123)
        r4 = session1.run_workload(executions=30, seed=123)
        assert r3 == r4
