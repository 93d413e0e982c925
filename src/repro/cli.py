"""Command-line interface.

::

    loom-repro list                      # available experiments
    loom-repro methods                   # registered partitioners
    loom-repro experiment E2 A1          # run experiments, print tables
    loom-repro experiment all --json     # ... or machine-readable JSON
    loom-repro demo                      # figure-1 walkthrough
    loom-repro partition --graph g.txt --method loom -k 4 --workers 4 --json
    loom-repro partition --graph g.txt --wal-dir wal/ --sync fsync
    loom-repro recover --wal-dir wal/ --json
    loom-repro serve --tenant demo --method ldg -k 4 --port 7466
    loom-repro serve --wal-dir wal/ -k 4     # serve a recovered session
    loom-repro serve --config deploy.json
    loom-repro connect --tenant demo ingest --payload '{"dataset": "social"}'
    loom-repro connect --tenant demo stats
    loom-repro connect --tenant demo retract --payload '{"vertices": [7]}'
    loom-repro connect --tenant demo rebalance --payload '{"max_moves": 20}'
    loom-repro connect --tenant demo metrics --format prom

(Equivalently ``python -m repro.cli ...``.)

The whole partition → store → query lifecycle flows through the session
façade (:mod:`repro.api`); partitioner names are resolved exclusively
through :data:`~repro.engine.registry.default_registry`.  The CLI
holds no method tables and no lifecycle glue of its own.  Session state
is read back one way, from a WAL directory (``recover``, ``serve
--wal-dir``); a served cluster is mutated through ``connect``.

Exit codes: ``0`` on success, ``2`` on operator errors (unknown
experiment id, unknown method, unreadable graph file, invalid
configuration).  Flag audit (2026-07): every flag of every subcommand
below is consumed by its handler; the historical ``serve-demo`` idea
never shipped, so there is no dead subcommand to remove.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from repro.api import Cluster, ClusterConfig, DurabilityConfig, WorkerConfig
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.datasets import DATASETS
from repro.engine.registry import UnknownPartitionerError, default_registry
from repro.exceptions import ConfigurationError, GraphError, SessionError
from repro.graph.io import load_edge_list
from repro.runtime.wal import SYNC_POLICIES
from repro.serve import ServeClient, ServeConfig, TenantConfig
from repro.serve.client import RemoteError
from repro.serve.daemon import run_server
from repro.serve.protocol import VERBS, ProtocolError
from repro.stream.sources import stream_from_graph
from repro.workload import figure1_graph, figure1_workload
from repro.workload.workloads import workload_from_graph

#: Exit code for operator errors (argparse itself uses 2 as well).
EXIT_USAGE = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_list(_args: argparse.Namespace) -> int:
    for experiment in EXPERIMENTS.values():
        print(f"{experiment.id:4s} {experiment.title}")
    return 0


def _cmd_methods(_args: argparse.Namespace) -> int:
    """Uniform method discovery straight off the registry."""
    for spec in sorted(default_registry.specs(), key=lambda s: s.name):
        needs = "workload" if spec.needs_workload else "-"
        print(f"{spec.name:12s} {spec.kind:9s} {needs:8s} {spec.description}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = [i.upper() for i in args.ids]
    if "ALL" in ids:
        ids = list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        return _fail(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"choose from {', '.join(EXPERIMENTS)} (or 'all')"
        )
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    payload = []
    for experiment_id in ids:
        tables = run_experiment(experiment_id, seed=args.seed, fast=args.fast)
        if args.json:
            payload.append(
                {
                    "id": experiment_id,
                    "title": EXPERIMENTS[experiment_id].title,
                    "tables": [table.as_dict() for table in tables],
                }
            )
        for index, table in enumerate(tables):
            if not args.json:
                print(table.render())
            if out_dir is not None:
                stem = f"{experiment_id.lower()}_{index}"
                table.save_csv(out_dir / f"{stem}.csv")
    if args.json:
        print(json.dumps({"experiments": payload}, indent=2))
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    """Walk through the paper's figure-1 example end to end.

    The workload is skewed toward q1 (the a-b-a-b square), so the square
    sub-graph over vertices {1, 2, 5, 6} is the frequent motif LOOM should
    keep whole, whatever order the stream delivers the vertices in.
    """
    graph = figure1_graph()
    workload = figure1_workload(q1_frequency=4.0)
    print(f"Figure-1 graph: {graph}")
    print("Workload:", workload, "\n")
    for method in ("hash", "ldg", "loom"):
        events = stream_from_graph(graph, ordering="random", rng=random.Random(0))
        session = Cluster.open(
            ClusterConfig(
                partitions=2, method=method, capacity=5,
                window_size=8, motif_threshold=0.6,
            ),
            workload=workload,
        )
        session.ingest(events, graph=graph)
        report = session.run_workload(executions=150, rng=random.Random(1))
        stats = session.stats()
        blocks = session.assignment.blocks()
        square = {session.partition_of(v) for v in (1, 2, 5, 6)}
        print(
            f"{method:5s} partitions={[sorted(b) for b in blocks]} "
            f"cut={stats.cut_fraction:.2f} "
            f"P(remote)={report.remote_probability:.3f} "
            f"q1-square-colocated={'yes' if len(square) == 1 else 'no'}"
        )
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    try:
        graph = load_edge_list(args.graph)
    except OSError as error:
        return _fail(f"cannot read graph file {args.graph!r}: {error}")
    except GraphError as error:
        return _fail(f"cannot parse graph file {args.graph!r}: {error}")
    try:
        spec = default_registry.resolve(args.method)
        durability = DurabilityConfig()
        if args.wal_dir:
            durability = DurabilityConfig(
                mode="wal", wal_dir=args.wal_dir, sync=args.sync
            )
        config = ClusterConfig(
            partitions=args.k,
            method=args.method,
            window_size=args.window,
            ordering=args.ordering,
            seed=args.seed,
            worker=WorkerConfig(count=args.workers),
            durability=durability,
        )
    except (UnknownPartitionerError, ConfigurationError) as error:
        return _fail(str(error))
    if spec.needs_workload:
        workload = workload_from_graph(
            graph, count=args.queries, rng=random.Random(args.seed + 1)
        )
    else:
        workload = None
    events = stream_from_graph(
        graph, ordering=args.ordering, rng=random.Random(args.seed)
    )
    session = Cluster.open(config, workload=workload)
    try:
        session.ingest(events, graph=graph)
        stats = session.stats()
        payload = {
            "method": args.method,
            "k": args.k,
            "ordering": args.ordering,
            "seed": args.seed,
            "workers": args.workers,
            "cut_fraction": stats.cut_fraction,
            "max_load": stats.max_load,
            "sizes": stats.sizes,
        }
        if spec.is_streaming:
            payload["vertices_per_second"] = round(
                session.engine_stats.vertices_per_second
            )
        if workload is not None:
            report = session.run_workload(
                executions=args.queries * 20, rng=random.Random(args.seed + 2)
            )
            payload["p_remote"] = report.remote_probability
        if args.wal_dir:
            # Leave the directory compact: one checkpoint, empty tail.
            session.checkpoint()
            resilience = session.resilience
            payload["wal_dir"] = args.wal_dir
            payload["wal_records"] = resilience.wal_records
            payload["wal_checkpoints"] = resilience.wal_checkpoints
    finally:
        session.close()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"method={args.method} k={args.k} ordering={args.ordering} "
        f"workers={args.workers}"
    )
    print(f"cut_fraction={payload['cut_fraction']:.4f}")
    print(f"max_load={payload['max_load']:.4f}")
    print(f"sizes={payload['sizes']}")
    if "vertices_per_second" in payload:
        print(f"throughput={payload['vertices_per_second']:.0f} vertices/s")
    if "p_remote" in payload:
        print(f"p_remote={payload['p_remote']:.4f}")
    if "wal_dir" in payload:
        print(
            f"wal={payload['wal_dir']} records={payload['wal_records']} "
            f"checkpoints={payload['wal_checkpoints']}"
        )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    try:
        session = Cluster.recover(args.wal_dir)
    except (SessionError, ConfigurationError, OSError) as error:
        return _fail(f"cannot recover from {args.wal_dir!r}: {error}")
    try:
        stats = session.stats()
        info = session.recovery
        payload = {
            "wal_dir": args.wal_dir,
            "method": stats.method,
            "partitions": stats.partitions,
            "vertices": stats.vertices,
            "edges": stats.edges,
            "checkpoint_ticks": info.checkpoint_ticks,
            "replayed_ops": info.replayed_ops,
            "skipped_ops": info.skipped_ops,
            "segments_read": info.segments_read,
            "torn_tail": info.torn_tail,
            "recovered_ticks": info.recovered_ticks,
        }
    finally:
        session.close()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"recovered {payload['vertices']} vertices / {payload['edges']} edges "
        f"({stats.method}, k={stats.partitions}) at tick "
        f"{payload['recovered_ticks']}"
    )
    print(
        f"checkpoint tick {payload['checkpoint_ticks']}, "
        f"{payload['replayed_ops']} ops replayed, "
        f"{payload['skipped_ops']} skipped, "
        f"torn_tail={'yes' if payload['torn_tail'] else 'no'}"
    )
    return 0


#: ``serve``'s single-tenant flags (by dest) and their defaults.
#: ``--config`` refuses any of them set off its default; ``--host`` and
#: ``--port`` are endpoint overrides, allowed beside it.
_TENANT_DEFAULTS = {
    "tenant": "default",
    "method": "ldg",
    "k": 4,
    "workers": 1,
    "seed": 0,
    "wal_dir": None,
    "workload_dataset": None,
    "max_inflight": 8,
    "max_pending": 64,
    "deadline": 60.0,
}


def _serve_config(args: argparse.Namespace):
    """Build a ServeConfig from --config JSON or single-tenant flags."""
    if args.config:
        given = [
            "-k" if dest == "k" else "--" + dest.replace("_", "-")
            for dest, default in _TENANT_DEFAULTS.items()
            if getattr(args, dest) != default
        ]
        if given:
            raise ConfigurationError(
                "--config is exclusive with the single-tenant flags; "
                f"drop {', '.join(given)}"
            )
        try:
            config = ServeConfig.from_file(args.config)
        except OSError as error:
            raise ConfigurationError(
                f"cannot read config {args.config!r}: {error}"
            ) from error
        except (ValueError, KeyError) as error:
            raise ConfigurationError(
                f"cannot parse config {args.config!r}: {error}"
            ) from error
        if args.host is not None or args.port is not None:
            import dataclasses

            overrides = {}
            if args.host is not None:
                overrides["host"] = args.host
            if args.port is not None:
                overrides["port"] = args.port
            config = dataclasses.replace(config, **overrides)
        return config
    durability = DurabilityConfig()
    if args.wal_dir:
        durability = DurabilityConfig(mode="wal", wal_dir=args.wal_dir)
    tenant = TenantConfig(
        name=args.tenant,
        cluster=ClusterConfig(
            partitions=args.k,
            method=args.method,
            seed=args.seed,
            worker=WorkerConfig(count=args.workers),
            durability=durability,
        ),
        max_inflight=args.max_inflight,
        max_pending=args.max_pending,
        default_deadline=args.deadline,
        workload_dataset=args.workload_dataset,
    )
    return ServeConfig(
        host=args.host if args.host is not None else "127.0.0.1",
        port=args.port if args.port is not None else 7466,
        tenants=(tenant,),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        config = _serve_config(args)
    except ConfigurationError as error:
        return _fail(str(error))
    try:
        run_server(config)
    except SessionError as error:
        return _fail(str(error))
    except OSError as error:
        return _fail(f"cannot serve on {config.host}:{config.port}: {error}")
    return 0


def _cmd_connect(args: argparse.Namespace) -> int:
    payload = {}
    if args.payload:
        try:
            payload = json.loads(args.payload)
        except json.JSONDecodeError as error:
            return _fail(f"--payload is not valid JSON: {error}")
        if not isinstance(payload, dict):
            return _fail("--payload must be a JSON object")
    if args.verb == "metrics" and args.format != "json":
        payload.setdefault("format", args.format)
    client = ServeClient(args.host, args.port, tenant=args.tenant)
    try:
        with client:
            result = client.call(
                args.verb, payload, deadline=args.deadline
            )
    except RemoteError as error:
        return _fail(f"{error.kind}: {error.message}")
    except (OSError, ProtocolError) as error:
        return _fail(
            f"cannot reach {args.host}:{args.port}: {error}"
        )
    if args.verb == "metrics" and args.format == "prom":
        print(result["text"], end="")
    else:
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loom-repro",
        description="LOOM workload-aware streaming graph partitioning "
        "(EDBT/GraphQ 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(fn=_cmd_list)
    sub.add_parser(
        "methods", help="list registered partitioners and capabilities"
    ).set_defaults(fn=_cmd_methods)

    exp = sub.add_parser("experiment", help="run experiments and print tables")
    exp.add_argument("ids", nargs="+", help="experiment ids (or 'all')")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--fast", action="store_true", help="smaller grids")
    exp.add_argument("--out", help="directory for CSV output")
    exp.add_argument("--json", action="store_true",
                     help="print tables as one JSON document")
    exp.set_defaults(fn=_cmd_experiment)

    sub.add_parser("demo", help="figure-1 walkthrough").set_defaults(fn=_cmd_demo)

    part = sub.add_parser("partition", help="partition an edge-list file")
    part.add_argument("--graph", required=True, help="labelled edge-list file")
    part.add_argument(
        "--method",
        default="loom",
        help="any registered method (see 'loom-repro methods')",
    )
    part.add_argument("-k", type=int, default=4)
    part.add_argument("--ordering", default="random")
    part.add_argument("--window", type=int, default=128)
    part.add_argument("--queries", type=int, default=4,
                      help="queries sampled from the graph for workload-aware methods")
    part.add_argument("--workers", type=int, default=1,
                      help="worker processes for sharded query execution "
                      "(1 = in-process; results are identical either way)")
    part.add_argument("--seed", type=int, default=0)
    part.add_argument("--wal-dir", default=None,
                      help="write-ahead-log directory; enables durability "
                      "(recover later with 'loom-repro recover')")
    part.add_argument("--sync", default="async", choices=SYNC_POLICIES,
                      help="WAL sync policy (async survives kill -9, "
                      "fsync also survives power loss)")
    part.add_argument("--json", action="store_true",
                      help="print the typed result as JSON")
    part.set_defaults(fn=_cmd_partition)

    recover = sub.add_parser(
        "recover", help="rebuild a session from its WAL directory"
    )
    recover.add_argument("--wal-dir", required=True,
                         help="directory written by a durable session")
    recover.add_argument("--json", action="store_true",
                         help="print the typed report as JSON")
    recover.set_defaults(fn=_cmd_recover)

    serve = sub.add_parser(
        "serve",
        help="run the TCP serving daemon hosting one or more named "
        "clusters (stop with SIGTERM/SIGINT for a graceful drain)",
    )
    serve.add_argument("--config", default=None, metavar="JSON",
                       help="ServeConfig JSON document (multi-tenant "
                       "deployments; exclusive with the flags below)")
    serve.add_argument("--host", default=None,
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default 7466; 0 = ephemeral)")
    serve.add_argument("--tenant",
                       help="single-tenant mode: the cluster's name")
    serve.add_argument("--method",
                       help="partitioning method for the tenant cluster")
    serve.add_argument("-k", type=int,
                       help="partitions for the tenant cluster")
    serve.add_argument("--workers", type=int,
                       help="worker processes for sharded execution")
    serve.add_argument("--seed", type=int)
    serve.add_argument("--wal-dir",
                       help="durable WAL directory (existing state is "
                       "recovered, not refused)")
    serve.add_argument("--workload-dataset",
                       help="pre-bind the bundled workload of a named "
                       f"dataset ({', '.join(DATASETS)})")
    serve.add_argument("--max-inflight", type=int,
                       help="admission control: max unanswered requests")
    serve.add_argument("--max-pending", type=int,
                       help="backpressure: max queued commands")
    serve.add_argument("--deadline", type=float,
                       help="default per-request deadline in seconds")
    serve.set_defaults(fn=_cmd_serve, **_TENANT_DEFAULTS)

    connect = sub.add_parser(
        "connect", help="send one verb to a running serving daemon"
    )
    connect.add_argument("verb", choices=list(VERBS),
                         help="wire verb to send")
    connect.add_argument("--host", default="127.0.0.1")
    connect.add_argument("--port", type=int, default=7466)
    connect.add_argument("--tenant", default=None,
                         help="tenant name (omit for server-level ping)")
    connect.add_argument("--payload", default=None, metavar="JSON",
                         help="verb payload as a JSON object")
    connect.add_argument("--deadline", type=float, default=None,
                         help="per-request deadline in seconds")
    connect.add_argument("--format", default="json",
                         choices=["json", "prom"],
                         help="metrics exposition format (prom prints the "
                         "Prometheus text exposition raw)")
    connect.set_defaults(fn=_cmd_connect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
