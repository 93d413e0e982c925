"""Scenario: a dynamic graph that churns -- deletions and live rebalancing.

Real partitioned stores do not only grow: users leave, relationships are
severed, and the placement that was good for yesterday's graph drifts
out of shape.  This walkthrough drives the dynamic-graph path of the
stack end to end:

* ingest the built-in ``churn`` dataset -- a mixed insert/delete stream
  where roughly a quarter of the events are explicit removals (partial
  motif matches containing a deleted edge die inside the matcher, placed
  vertices vacate their partition slots);
* retract a hub vertex explicitly through ``Session.retract`` and watch
  the cascade;
* repair the drifted placement with ``Session.rebalance`` -- live
  migration of the worst-placed vertices, no re-streaming -- and compare
  the cut before and after;
* close the durable session and ``Cluster.recover`` it from its
  write-ahead log, to show that nothing deleted ever resurrects.

Run with::

    python examples/churn_stream.py
"""

import tempfile

from repro import Cluster, ClusterConfig, LabelledGraph
from repro.api import DurabilityConfig


def main() -> None:
    with tempfile.TemporaryDirectory() as wal_dir:
        run(wal_dir)


def run(wal_dir: str) -> None:
    session = Cluster.open(
        ClusterConfig(
            partitions=4,
            method="loom",
            window_size=64,
            motif_threshold=0.4,
            seed=7,
            durability=DurabilityConfig(mode="wal", wal_dir=wal_dir),
        )
    )

    # --- 1. a stream that deletes as it grows --------------------------
    report = session.ingest("churn", size=200)
    stats = session.stats()
    print("churn ingest:")
    print(f"  events={report.events} (removals={report.removals})")
    print(f"  survivors: |V|={stats.vertices} |E|={stats.edges}")
    print(f"  matches retracted mid-stream: "
          f"{stats.matcher_counters['retracted']}")

    # --- 2. explicit retraction ----------------------------------------
    hub = max(session.graph.vertices(), key=session.graph.degree)
    degree = session.graph.degree(hub)
    delta = session.retract(vertices=[hub])
    print(f"retracted hub {hub!r} (degree {degree}): "
          f"{delta.cascaded_edges} edges cascaded, "
          f"|V|={delta.resident_vertices}")

    # --- 3. live rebalancing -------------------------------------------
    moves = session.rebalance(max_moves=30)
    print("rebalance:")
    print(f"  moved {moves.moved_vertices}/{moves.total_vertices} vertices")
    print(f"  cut {moves.cut_before:.3f} -> {moves.cut_after:.3f}")

    # --- 4. churned state survives recovery ----------------------------
    session.close()
    with Cluster.recover(wal_dir) as recovered:
        assert not recovered.graph.has_vertex(hub)
        assert (
            recovered.assignment.assigned() == session.assignment.assigned()
        )
        result = recovered.query(LabelledGraph.path("ab"))
        print(f"recovered cluster answers queries: {result.matches} matches, "
              f"P(remote)={result.remote_probability:.3f}")


if __name__ == "__main__":
    main()
