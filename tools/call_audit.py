"""Which ``src/repro`` functions does no product path call?

Runs every product path -- the examples, ``python -m repro.bench``, the
four repo-benchmark workloads and README's CLI block -- with a
``sys.setprofile`` hook installed in every Python process they start (a
generated ``sitecustomize`` on ``PYTHONPATH``), then prints each function
defined under ``src/repro`` that none of them called and that
:data:`ALLOWLIST` does not excuse, with its ``def`` span.  Exit status 1
when it prints any.

    python3 tools/call_audit.py            # about 2 minutes

Everything runs in a temporary directory (graph files, WAL directories),
so the checkout is left as it was.  README's ``experiment all`` runs as
``experiment E2`` (``python -m repro.bench`` runs every experiment
already), its ``kill -9`` as a clean exit before ``recover``, and
``--workers 4`` as ``--workers 2``.
"""

from __future__ import annotations

import ast
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

SAFETY = "safety or validation code: reached only by bad input or a fault"
REFERENCE = "reference implementation the tests compare the product path against"
FIXTURE = "fixture builder many tests share"
REACHABLE = "registered method, serve verb or CLI verb a user can reach"
SURFACE = "documented typed accessor or SDK wrapper"
ABSTRACT = "abstract method every concrete partitioner overrides"

#: ``module:qualname`` -> why it stays although no product path calls it.
#: Dunders and ``typing.Protocol`` stubs are excused by rule, not by name.
ALLOWLIST: dict[str, str] = {
    "repro.api.ingest:_over_capacity": SAFETY,
    "repro.api.ingest:IngestPipeline.adopt_workload": SURFACE,
    "repro.api.results:WorkloadReport.as_dict": SURFACE,
    "repro.api.results:ResilienceReport.as_dict": SURFACE,
    "repro.api.session:Session.workload": SURFACE,
    "repro.api.session:Session.registry": SURFACE,
    "repro.api.session:Session.tracer": SURFACE,
    "repro.api.session:Session.pool": SURFACE,
    "repro.api.session:Session.wal": SURFACE,
    "repro.api.supervisor:PoolSupervisor._backoff": SAFETY,
    "repro.cli:_fail": SAFETY,
    "repro.cli:_cmd_list": REACHABLE,
    "repro.cluster.columnar:PlainUnpickler.find_class": SAFETY,
    "repro.cluster.store:DistributedGraphStore.adopt_replica": (
        "replays the replicas Session.replicate places, from a column "
        "image or a delta; no product path replicates"
    ),
    "repro.cluster.store:DistributedGraphStore.replicas_of": FIXTURE,
    "repro.cluster.store:DistributedGraphStore.clear_replicas": SAFETY,
    "repro.core.matcher:MotifMatch.size": SURFACE,
    "repro.core.traversal_aware:TraversalAwareLDG.forget_label": (
        "LOOM's retract path under traversal_aware_singles (loom_ta) calls "
        "it, so churn cannot grow the label table past the resident graph"
    ),
    "repro.engine.pipeline:BatchStats.events_per_second": SURFACE,
    "repro.engine.registry:PartitionerRegistry.names": SURFACE,
    "repro.graph.generators:grid": FIXTURE,
    "repro.graph.isomorphism:find_matches": REFERENCE,
    "repro.graph.labelled:LabelledGraph.star": FIXTURE,
    "repro.graph.labelled:LabelledGraph.vertex_labels": SURFACE,
    "repro.obs.catalog:metric_names": SURFACE,
    "repro.obs.registry:MetricsRegistry.names": SURFACE,
    "repro.obs.registry:MetricsRegistry.reset": SURFACE,
    "repro.obs.registry:render_json": SURFACE,
    "repro.obs.tracing:Span.as_dict": SURFACE,
    "repro.obs.tracing:SpanTracer.spans": SURFACE,
    "repro.obs.tracing:SpanTracer.reset": SURFACE,
    "repro.partitioning.base:StreamingVertexPartitioner.place": ABSTRACT,
    "repro.partitioning.hashing:RandomPartitioner.place": REACHABLE,
    "repro.partitioning.streaming:ldg_score": SURFACE,
    "repro.partitioning.streaming:ChunkingPartitioner.place": REACHABLE,
    "repro.partitioning.streaming:DeterministicGreedy.place": REACHABLE,
    "repro.runtime.executor:ShardedExecutor.execute": SURFACE,
    "repro.runtime.faults:FaultPlan.for_worker": SAFETY,
    "repro.runtime.pool:default_start_method": FIXTURE,
    "repro.runtime.pool:WorkerPool._hung_detail": SAFETY,
    "repro.runtime.snapshot:ShardSnapshot.num_bytes": SURFACE,
    "repro.runtime.snapshot:ShardSnapshot.num_vertices": SURFACE,
    "repro.runtime.snapshot:ShardSnapshot.num_edges": SURFACE,
    "repro.runtime.wal:_last_tick": SAFETY,
    "repro.runtime.wal:RecoveryInfo.as_dict": SURFACE,
    "repro.serve.client:ServeClient.run_workload": SURFACE,
    "repro.serve.client:ServeClient.rebalance": SURFACE,
    "repro.serve.daemon:ClusterHost._verb_ping": REACHABLE,
    "repro.serve.daemon:ClusterHost._verb_workload": REACHABLE,
    "repro.serve.daemon:BackgroundServer.start": FIXTURE,
    "repro.serve.daemon:BackgroundServer._main": FIXTURE,
    "repro.serve.daemon:BackgroundServer.port": FIXTURE,
    "repro.serve.daemon:BackgroundServer.stop": FIXTURE,
    "repro.serve.protocol:error_response": SAFETY,
    "repro.signatures.primes:PrimeAssigner.mapping": SURFACE,
    "repro.signatures.signature:SignatureScheme.extend_with_vertex": REFERENCE,
    "repro.signatures.signature:SignatureScheme.extend_with_edge": REFERENCE,
    "repro.stream.sources:stream_edges": SURFACE,
    "repro.tpstry.node:TPSTryNode.is_root": SURFACE,
    "repro.tpstry.path_trie:PathTPSTry.paths": SURFACE,
    "repro.tpstry.trie:TPSTryPP._drop": (
        "StreamingTPSTry drops a motif once its last supporting query "
        "leaves the window; no product stream slides that far"
    ),
    "repro.tpstry.trie:TPSTryPP.roots": SURFACE,
    "repro.tpstry.trie:TPSTryPP.nodes": SURFACE,
    "repro.workload.query:PatternQuery.size": SURFACE,
    "repro.workload.query:PatternQuery.answer": SURFACE,
    "repro.workload.workloads:Workload.queries": SURFACE,
    "repro.workload.workloads:Workload.total_frequency": SURFACE,
    "repro.workload.workloads:Workload.probabilities": SURFACE,
    "repro.workload.workloads:Workload.max_query_size": SURFACE,
}

SITECUSTOMIZE = '''
import os, sys, threading

_ROOT = os.environ["CALL_AUDIT_ROOT"]
_FD = os.open(os.environ["CALL_AUDIT_LOG"], os.O_WRONLY | os.O_APPEND | os.O_CREAT)
_SEEN = {}


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _SEEN:
            _SEEN[id(code)] = code  # held, so the id is never reused
            if code.co_filename.startswith(_ROOT):
                os.write(_FD, f"{code.co_filename}\\t{code.co_firstlineno}\\n".encode())


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_for(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            time.sleep(0.2)
    raise RuntimeError(f"nothing listens on port {port}")


def run_product_paths(work: Path, env: dict[str, str]) -> None:
    """The product paths, each as its user would start it."""
    python = sys.executable

    def run(*args: str) -> None:
        subprocess.run(
            [python, *args], cwd=work, env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=1800,
        )

    def cli(*args: str) -> None:
        run("-m", "repro.cli", *args)

    def serving(*args: str) -> subprocess.Popen[bytes]:
        port = int(args[args.index("--port") + 1])
        daemon = subprocess.Popen(
            [python, "-m", "repro.cli", "serve", *args], cwd=work, env=env,
            stdout=subprocess.DEVNULL,
        )
        wait_for(port)
        return daemon

    def stop(daemon: subprocess.Popen[bytes]) -> None:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)

    for example in sorted((REPO / "examples").glob("*.py")):
        run(str(example))
    run("-m", "repro.bench")
    run("-m", "repro.obs")
    for workload in ("ingest-static", "churn-recover", "serve-query",
                     "serve-mixed-sharded"):
        run(str(REPO / "benchmarks/e2e/run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "3", "--trace", "1")
    run("-c", "import random; from repro.graph.generators import erdos_renyi; "
        "from repro.graph.io import save_edge_list; "
        "save_edge_list(erdos_renyi(60, 0.1, rng=random.Random(3)), 'g.txt')")
    cli("demo")
    cli("methods")
    cli("experiment", "E2", "--fast")
    cli("experiment", "E2", "--fast", "--json")
    cli("experiment", "E2", "--fast", "--out", "results")
    cli("partition", "--graph", "g.txt", "--method", "loom", "-k", "4",
        "--workers", "2", "--json")
    cli("partition", "--graph", "g.txt", "--method", "ldg", "-k", "4",
        "--wal-dir", "churn")
    port = str(free_port())
    daemon = serving("--wal-dir", "churn", "-k", "4", "--port", port)
    cli("connect", "--port", port, "--tenant", "default", "retract",
        "--payload", '{"vertices": [42]}')
    cli("connect", "--port", port, "--tenant", "default", "rebalance",
        "--payload", '{"max_moves": 50}')
    stop(daemon)
    cli("partition", "--graph", "g.txt", "--method", "ldg", "-k", "4",
        "--wal-dir", "wal")
    cli("recover", "--wal-dir", "wal", "--json")
    port = str(free_port())
    daemon = serving("--tenant", "demo", "--method", "ldg", "-k", "4",
                     "--port", port)
    cli("connect", "--port", port, "--tenant", "demo", "ingest",
        "--payload", '{"dataset": "social", "size": 200, "seed": 1}')
    cli("connect", "--port", port, "--tenant", "demo", "stats")
    cli("connect", "--port", port, "--tenant", "demo", "metrics")
    cli("connect", "--port", port, "--tenant", "demo", "metrics",
        "--format", "prom")
    stop(daemon)


def called(log: Path) -> set[tuple[str, int]]:
    entries = set()
    for line in log.read_text().splitlines():
        filename, lineno = line.split("\t")
        entries.add((filename, int(lineno)))
    return entries


def is_protocol(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "Protocol")
        or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
        for base in node.bases
    )


def definitions(path: Path):
    """``(qualname, first line, def line, span, excused)`` for every
    function in ``path``; the first line is the first decorator's, as
    in the code object."""
    tree = ast.parse(path.read_text(), str(path))

    def walk(node, prefix, in_protocol):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.",
                                in_protocol or is_protocol(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                span = child.end_lineno - child.lineno + 1
                dunder = re.fullmatch(r"__\w+__", child.name) is not None
                yield (f"{prefix}{child.name}", first, child.lineno, span,
                       dunder or in_protocol)
                yield from walk(child, f"{prefix}{child.name}.", in_protocol)

    yield from walk(tree, "", False)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="call-audit-") as scratch:
        work = Path(scratch)
        (work / "hook").mkdir()
        (work / "hook" / "sitecustomize.py").write_text(SITECUSTOMIZE)
        log = work / "calls.log"
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(work / "hook"), str(SRC)]),
            "CALL_AUDIT_ROOT": str(PACKAGE),
            "CALL_AUDIT_LOG": str(log),
        }
        run_product_paths(work, env)
        seen = called(log)
    unused, stale = [], set(ALLOWLIST)
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for qualname, first, line, span, excused in definitions(path):
            key = f"{module}:{qualname}"
            stale.discard(key)
            if excused or key in ALLOWLIST or (str(path), first) in seen:
                continue
            unused.append(f"{path.relative_to(REPO)}:{line} {qualname} ({span} lines)")
    for line in unused:
        print(line)
    for key in sorted(stale):
        print(f"stale allowlist entry (no such function): {key}")
    print(f"{len(unused)} uncalled outside the allowlist, "
          f"{len(ALLOWLIST)} allowlisted, {len(stale)} stale")
    return 1 if unused or stale else 0


if __name__ == "__main__":
    sys.exit(main())
