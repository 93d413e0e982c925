"""Synthetic labelled-graph generators.

The paper motivates LOOM with web, social and protein-interaction graphs but
reports no datasets (it is a progress paper).  These generators provide the
two families our experiments need:

* *classic random models* (Erdős–Rényi, Barabási–Albert, Watts–Strogatz,
  planted partition, grids, trees) -- the structure-agnostic controls used
  to reproduce the edge-cut claims inherited from Stanton & Kliot and
  Fennel, and
* *motif-planted graphs* -- graphs built by stitching together instances of
  given labelled motifs plus background noise, which produce the
  label-correlated recurring sub-structures LOOM exploits.  Higher-level
  domain generators (social, fraud, citation) live in :mod:`repro.datasets`.

Every generator takes an explicit :class:`random.Random` so experiments are
reproducible seed-for-seed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from repro.exceptions import GraphError
from repro.graph.labelled import LabelledGraph

DEFAULT_ALPHABET: tuple[str, ...] = ("a", "b", "c", "d")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphError(message)


def _label_for(
    index: int,
    alphabet: Sequence[str],
    rng: random.Random,
    *,
    scheme: str = "uniform",
    community: int | None = None,
) -> str:
    """Pick a label for vertex ``index`` under the requested scheme.

    ``uniform``    -- i.i.d. uniform over the alphabet.
    ``community``  -- label biased to the vertex's community (80% the
                      community's "home" label), giving the label/structure
                      correlation that pattern workloads traverse.
    ``roundrobin`` -- deterministic cycling (useful in unit tests).
    """
    if scheme == "uniform":
        return rng.choice(list(alphabet))
    if scheme == "roundrobin":
        return alphabet[index % len(alphabet)]
    if scheme == "community":
        home = alphabet[(community or 0) % len(alphabet)]
        if rng.random() < 0.8:
            return home
        return rng.choice(list(alphabet))
    raise GraphError(f"unknown label scheme {scheme!r}")


def erdos_renyi(
    n: int,
    p: float,
    *,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    rng: random.Random,
    label_scheme: str = "uniform",
) -> LabelledGraph:
    """G(n, p) with i.i.d. labels -- the unstructured control case.

    Uses the standard geometric skipping trick so sparse graphs cost
    O(n + |E|) rather than O(n^2).
    """
    _require(n >= 0, "n must be non-negative")
    _require(0.0 <= p <= 1.0, "p must lie in [0, 1]")
    graph = LabelledGraph()
    for v in range(n):
        graph.add_vertex(v, _label_for(v, alphabet, rng, scheme=label_scheme))
    if p <= 0.0 or n < 2:
        return graph
    if p >= 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v)
        return graph

    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            graph.add_edge(v, w)
    return graph


def barabasi_albert(
    n: int,
    m: int,
    *,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    rng: random.Random,
    label_scheme: str = "uniform",
) -> LabelledGraph:
    """Preferential-attachment power-law graph (the "social network" shape).

    Every new vertex attaches to ``m`` distinct existing vertices chosen
    proportionally to degree (repeated-endpoint sampling).
    """
    _require(m >= 1, "m must be >= 1")
    _require(n >= m + 1, "need n >= m + 1 vertices")
    graph = LabelledGraph()
    # Seed clique of m + 1 vertices keeps early degrees positive.
    for v in range(m + 1):
        graph.add_vertex(v, _label_for(v, alphabet, rng, scheme=label_scheme))
    repeated: list[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            graph.add_edge(u, v)
            repeated.extend((u, v))
    for v in range(m + 1, n):
        graph.add_vertex(v, _label_for(v, alphabet, rng, scheme=label_scheme))
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for target in targets:
            graph.add_edge(v, target)
            repeated.extend((v, target))
    return graph


def watts_strogatz(
    n: int,
    k: int,
    beta: float,
    *,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    rng: random.Random,
    label_scheme: str = "uniform",
) -> LabelledGraph:
    """Small-world ring lattice with rewiring probability ``beta``."""
    _require(k >= 2 and k % 2 == 0, "k must be even and >= 2")
    _require(n > k, "need n > k")
    _require(0.0 <= beta <= 1.0, "beta must lie in [0, 1]")
    graph = LabelledGraph()
    for v in range(n):
        graph.add_vertex(v, _label_for(v, alphabet, rng, scheme=label_scheme))
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            graph.add_edge(v, (v + offset) % n)
    # Rewire each lattice edge with probability beta.
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            w = (v + offset) % n
            if rng.random() < beta and graph.has_edge(v, w):
                candidates = [
                    u for u in range(n) if u != v and not graph.has_edge(v, u)
                ]
                if candidates:
                    graph.remove_edge(v, w)
                    graph.add_edge(v, rng.choice(candidates))
    return graph


def planted_partition(
    n: int,
    communities: int,
    p_in: float,
    p_out: float,
    *,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    rng: random.Random,
    label_scheme: str = "community",
) -> LabelledGraph:
    """Stochastic block model with ``communities`` equal blocks.

    With the default ``community`` label scheme, labels correlate with
    blocks, so pattern workloads become structure-correlated -- the setting
    where workload-aware placement should pay off.
    """
    _require(communities >= 1, "communities must be >= 1")
    _require(0.0 <= p_out <= p_in <= 1.0, "need 0 <= p_out <= p_in <= 1")
    graph = LabelledGraph()
    block = {v: v % communities for v in range(n)}
    for v in range(n):
        graph.add_vertex(
            v,
            _label_for(v, alphabet, rng, scheme=label_scheme, community=block[v]),
        )
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if block[u] == block[v] else p_out
            if p > 0.0 and rng.random() < p:
                graph.add_edge(u, v)
    return graph


def grid(
    rows: int,
    cols: int,
    *,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    rng: random.Random | None = None,
    label_scheme: str = "roundrobin",
) -> LabelledGraph:
    """2-D grid graph -- the classic high-locality partitioning testbed."""
    _require(rows >= 1 and cols >= 1, "grid dimensions must be positive")
    local_rng = rng or random.Random(0)
    graph = LabelledGraph()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            graph.add_vertex(
                v, _label_for(v, alphabet, local_rng, scheme=label_scheme)
            )
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                graph.add_edge(v, v + 1)
            if r + 1 < rows:
                graph.add_edge(v, v + cols)
    return graph


def plant_motifs(
    motifs: Sequence[tuple[LabelledGraph, int]],
    *,
    noise_vertices: int = 0,
    noise_edge_probability: float = 0.0,
    bridge_probability: float = 0.05,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    rng: random.Random,
) -> LabelledGraph:
    """Build a graph containing ``count`` disjoint copies of each motif.

    Instances are connected into one loose component by random *bridge*
    edges (probability ``bridge_probability`` per instance pair, at least a
    spanning chain), and optionally diluted with uniformly labelled noise
    vertices/edges.  Because every planted instance is an exact labelled
    copy of a motif, ground-truth match counts are known by construction --
    which is what the matcher tests and ablation A1 need.
    """
    _require(bool(motifs), "need at least one motif")
    graph = LabelledGraph()
    next_id = 0
    anchors: list[int] = []

    for motif, count in motifs:
        _require(count >= 0, "motif count must be non-negative")
        for _ in range(count):
            mapping: dict = {}
            for vertex in motif.vertices():
                mapping[vertex] = next_id
                graph.add_vertex(next_id, motif.label(vertex))
                next_id += 1
            for u, v in motif.edges():
                graph.add_edge(mapping[u], mapping[v])
            anchors.append(mapping[next(iter(motif.vertices()))])

    # Noise vertices with uniform labels.
    noise_start = next_id
    for _ in range(noise_vertices):
        graph.add_vertex(next_id, rng.choice(list(alphabet)))
        next_id += 1
    vertices = list(graph.vertices())
    if noise_edge_probability > 0.0 and len(vertices) >= 2:
        for v in range(noise_start, next_id):
            for u in vertices:
                if u != v and rng.random() < noise_edge_probability:
                    if not graph.has_edge(u, v):
                        graph.add_edge(u, v)

    # Chain the instances so the graph is (weakly) connected, then sprinkle
    # extra bridges.
    for first, second in zip(anchors, anchors[1:], strict=False):
        if not graph.has_edge(first, second):
            graph.add_edge(first, second)
    for i, first in enumerate(anchors):
        for second in anchors[i + 2 :]:
            if rng.random() < bridge_probability and not graph.has_edge(
                first, second
            ):
                graph.add_edge(first, second)
    return graph
