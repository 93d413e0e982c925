"""The process ``churn-recover`` kills: ingest a pickled stream under the
write-ahead log, report, then SIGKILL itself without ``close()``.

    python child_ingest.py EVENTS.pickle WAL_DIR SEED

Prints one JSON line and never exits normally: a zero exit means the
kill did not happen, which the parent counts as a failed trial.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import signal
import sys
import time


def main(events_path: str, wal_dir: str, seed: str) -> None:
    from harness import assignment_digest, tree_peak_rss_mb
    from sut import cluster_config

    from repro.api import Cluster
    from repro.datasets import churn_workload

    # The parent wrote this file a moment ago; nothing else does.
    with open(events_path, "rb") as handle:
        events = pickle.load(handle)
    config = cluster_config(int(seed), wal_dir=wal_dir)
    gc.collect()
    began = time.perf_counter()
    session = Cluster.open(config, workload=churn_workload())
    session.ingest(events)
    seconds = time.perf_counter() - began
    resilience = session.resilience
    print(
        json.dumps(
            {
                "seconds": seconds,
                "events": len(events),
                "digest": assignment_digest(session.assignment.assigned().items()),
                # Not getrusage: its maximum survives fork and exec, so
                # it would be the parent's size whenever that is larger.
                "peak_rss_mb": tree_peak_rss_mb(os.getpid()),
                "wal_records": resilience.wal_records,
                "wal_checkpoints": resilience.wal_checkpoints,
            }
        ),
        flush=True,
    )
    os.kill(os.getpid(), signal.SIGKILL)


if __name__ == "__main__":
    main(*sys.argv[1:4])
