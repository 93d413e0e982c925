"""Experiment bodies that are not a partition-and-evaluate grid.

E7 (signature collisions, Algorithm-1 build cost, matcher precision),
E13 (churn streams with a differential state check, then live
rebalancing) and A3 (TPSTry++ DAG vs the path-only TPSTry) fill the
tables their :class:`~repro.bench.grid.TableSpec` records declare.  Two
of them reach inside :class:`~repro.core.LoomPartitioner` -- E7c reads
the live matches of an unflushed window, A3b overrides
``matcher.frequent_signatures`` -- which is why they bypass the session.
"""

from __future__ import annotations

import random
import time

from repro.api.cluster import Cluster
from repro.api.config import ClusterConfig
from repro.bench.grid import planted_squares
from repro.bench.tables import Table
from repro.cluster import DistributedGraphStore, run_workload
from repro.core import LoomConfig, LoomPartitioner
from repro.datasets import churn_stream, churn_workload, motif_testbed
from repro.graph import LabelledGraph, canonical_form, is_isomorphic
from repro.graph.views import edge_subgraph
from repro.partitioning import edge_cut_fraction
from repro.partitioning.base import default_capacity
from repro.signatures import SignatureScheme
from repro.stream.sources import replay, stream_from_graph
from repro.tpstry import PathTPSTry, TPSTryPP
from repro.workload import Workload, path_workload


def _loom(graph: LabelledGraph, workload: Workload, k: int, **config) -> LoomPartitioner:
    capacity = default_capacity(graph.num_vertices, k, 1.2)
    return LoomPartitioner(workload, LoomConfig(k=k, capacity=capacity, **config))


def _random_labelled_graph(rng: random.Random) -> LabelledGraph:
    """A connected graph on 2-6 vertices over the alphabet abcd."""
    n = rng.randint(2, 6)
    graph = LabelledGraph()
    for v in range(n):
        graph.add_vertex(v, rng.choice("abcd"))
    for v in range(1, n):
        graph.add_edge(v, rng.randrange(v))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def signatures_and_trie(tables: list[Table], seed: int, fast: bool) -> None:
    """E7: collision study, TPSTry++ build cost, matcher precision."""
    collisions_table, build_table, precision_table = tables
    rng = random.Random(seed)
    graphs = [_random_labelled_graph(rng) for _ in range(120 if fast else 400)]
    scheme = SignatureScheme()
    scheme.register_alphabet("abcd")
    signatures = [scheme.signature_of(g) for g in graphs]
    forms = [canonical_form(g) for g in graphs]
    pairs = sig_equal = collisions = iso_pairs = 0
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            same_sig = signatures[i] == signatures[j]
            same_form = forms[i] == forms[j]
            pairs += 1
            sig_equal += same_sig
            iso_pairs += same_form
            collisions += same_sig and not same_form
    collisions_table.add_row(
        pairs=pairs,
        isomorphic_pairs=iso_pairs,
        signature_equal_pairs=sig_equal,
        collisions=collisions,
        collision_rate=collisions / pairs if pairs else 0.0,
        max_signature_bits=max(s.bit_length() for s in signatures),
    )

    shapes = ((4, 4), (8, 5)) if fast else ((4, 4), (8, 5), (16, 6))
    for count, size in shapes:
        workload = path_workload(
            "abcd", count=count, min_length=2, max_length=size,
            rng=random.Random(seed + count),
        )
        start = time.perf_counter()
        trie = TPSTryPP.from_workload(workload)
        build_table.add_row(
            queries=count,
            max_query_size=size,
            nodes=len(trie),
            build_seconds=time.perf_counter() - start,
        )

    # Every signature-matched sub-graph of a never-flushed window should
    # really be isomorphic to its motif node (verified post hoc).
    graph, workload = motif_testbed(seed, instances=20)
    loom = _loom(graph, workload, 4, window_size=graph.num_vertices, motif_threshold=0.2)
    loom.process_batch(
        stream_from_graph(graph, ordering="random", rng=random.Random(seed))
    )
    checked = verified = 0
    for match in loom.matcher.matches():
        node = loom.trie.node_by_signature(match.node_signature)
        checked += 1
        verified += is_isomorphic(
            edge_subgraph(loom.window.graph, match.edges), node.graph
        )
    # ``evictions``: matches dropped as their vertices were assigned out
    # of the window.
    precision_table.add_row(
        matches_checked=checked,
        verified=verified,
        precision=verified / checked if checked else 1.0,
        evictions=loom.matcher.stats["evicted"],
    )


def churn(tables: list[Table], seed: int, fast: bool) -> None:
    """E13: mixed insert/delete ingest, then live rebalancing.

    ``state_ok`` differentially checks the resident graph against an
    offline rebuild from the surviving events.
    """
    churn_table, rebalance_table = tables
    n = 300 if fast else 600
    for fraction in (0.0, 0.15, 0.3):
        events = churn_stream(
            n, delete_fraction=fraction,
            rng=random.Random(seed + int(fraction * 100)),
        )
        config = ClusterConfig(
            partitions=8, method="loom", window_size=64,
            motif_threshold=0.4, seed=seed,
        )
        with Cluster.open(config, workload=churn_workload()) as session:
            report = session.ingest(events)
            stats = session.stats()
            survivors = replay(events)
            churn_table.add_row(
                delete_fraction=fraction,
                events=report.events,
                removals=report.removals,
                events_per_second=round(report.events_per_second),
                retracted_matches=stats.matcher_counters["retracted"],
                evicted_matches=stats.matcher_counters["evicted"],
                survivors=survivors.num_vertices,
                state_ok=(
                    session.graph == survivors
                    and session.is_complete
                    and sum(stats.sizes) == survivors.num_vertices
                ),
            )
            delta = session.rebalance(max_moves=max(1, n // 10))
        rebalance_table.add_row(
            delete_fraction=fraction,
            candidates=delta.candidates,
            moved=delta.moved_vertices,
            cut_before=delta.cut_before,
            cut_after=delta.cut_after,
        )


def _is_path_shaped(graph: LabelledGraph) -> bool:
    return (
        graph.num_edges == graph.num_vertices - 1
        and max(graph.degree(v) for v in graph.vertices()) <= 2
    )


def dag_vs_path_trie(tables: list[Table], seed: int, fast: bool) -> None:
    """A3: what the path-only TPSTry cannot represent, and what LOOM
    loses when restricted to path-shaped motifs."""
    summary, quality = tables
    (case,) = planted_squares(seed, 25 if fast else 40)
    graph, workload = case.graph, case.workload
    for structure, trie in (
        ("tpstry++", TPSTryPP.from_workload(workload)),
        ("path-trie", PathTPSTry.from_workload(workload)),
    ):
        frequent = trie.frequent_motifs(0.5)
        summary.add_row(
            structure=structure,
            nodes=len(trie),
            frequent_motifs=len(frequent),
            largest_motif_edges=max(motif.num_edges for motif in frequent),
        )

    events = stream_from_graph(graph, ordering="random", rng=random.Random(seed + 13))
    for structure in ("tpstry++", "path-trie"):
        loom = _loom(graph, workload, 8, window_size=128, motif_threshold=0.5)
        if structure == "path-trie":
            loom.matcher.frequent_signatures = frozenset(
                node.signature
                for node in loom.trie.frequent_motifs(0.5)
                if _is_path_shaped(node.graph)
            )
        assignment = loom.partition_stream(events)
        stats = run_workload(
            DistributedGraphStore(graph, assignment),
            workload,
            executions=40 if fast else 100,
            rng=random.Random(seed + 7),
        )
        quality.add_row(
            structure=structure,
            cut=edge_cut_fraction(graph, assignment),
            p_remote=stats.remote_probability,
            groups=loom.stats["groups"],
        )
