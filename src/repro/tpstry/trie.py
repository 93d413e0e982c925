"""TPSTry++ construction (the paper's Algorithm 1) and workload windows.

Algorithm 1 recomputes the TPSTry++ for each query ``q`` by co-recursively
traversing the query graph: starting from every vertex, repeatedly extend
the current sub-graph ``g`` with an incident edge, registering each
distinct sub-graph (keyed by signature) as a node and linking it to its
one-edge extensions.  Because query graphs are small (a handful of
vertices), we realise the same enumeration exhaustively and exactly:
every connected edge-subset of the query graph plus every single vertex.

Node identity is the numeric signature, as in the paper, which accepts
the (very low) risk "of mistakenly representing distinct motifs with a
single TPSTry++ node"; experiment E7 measures that rate against exact
canonical forms.

Support semantics: a node's ``support`` is the total frequency of the
queries whose graph contains the motif (each query counted once however
many instances it contains); ``p(n) = support(n) / total_frequency``.
This makes p-values anti-monotone along DAG edges, which the property
tests assert.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.exceptions import WorkloadError
from repro.graph.labelled import LabelledGraph
from repro.graph.traversal import is_connected
from repro.graph.views import edge_subgraph
from repro.signatures.signature import SignatureScheme
from repro.tpstry.node import TPSTryNode
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload


class TPSTryPP:
    """The traversal pattern summary DAG for a workload of pattern queries."""

    def __init__(self, scheme: SignatureScheme | None = None) -> None:
        self.scheme = scheme or SignatureScheme()
        #: signature -> motif node.
        self._nodes: dict[int, TPSTryNode] = {}
        self._query_frequencies: dict[str, float] = {}
        #: Node signatures contributed by each query, for removal support.
        self._query_nodes: dict[str, set[int]] = {}

    # ------------------------------------------------------------------
    # Construction (Algorithm 1)
    # ------------------------------------------------------------------
    @classmethod
    def from_workload(
        cls,
        workload: Workload,
        *,
        scheme: SignatureScheme | None = None,
    ) -> "TPSTryPP":
        """Build the TPSTry++ for a whole workload."""
        trie = cls(scheme)
        trie.scheme.register_alphabet(workload.alphabet())
        for query in workload:
            trie.add_query(query)
        return trie

    def add_query(self, query: PatternQuery) -> None:
        """Weave one query's motifs into the DAG (one Algorithm-1 pass)."""
        if query.name in self._query_frequencies:
            raise WorkloadError(f"query {query.name!r} already woven into TPSTry++")
        self._query_frequencies[query.name] = query.frequency
        self._query_nodes[query.name] = set()

        sub_graphs = list(_connected_subgraphs(query.graph))
        graph_of = dict(sub_graphs)
        signature_of = {
            edge_set: self._register(graph, query)
            for edge_set, graph in sub_graphs
        }

        # DAG edges: link every motif to its one-edge extensions.  Two
        # edge-sets are parent/child when the child has exactly one more
        # edge and contains the parent.
        by_size: dict[int, list[frozenset[object]]] = {}
        for edge_set, _ in sub_graphs:
            by_size.setdefault(len(edge_set), []).append(edge_set)
        for size, parents in sorted(by_size.items()):
            for child_set in by_size.get(size + 1, ()):
                for parent_set in parents:
                    if parent_set <= child_set:
                        self._link(
                            signature_of[parent_set], signature_of[child_set]
                        )
        # Single vertices are the roots: parents of every single-edge motif.
        for child_set in by_size.get(1, ()):
            child_graph = graph_of[child_set]
            for vertex in child_graph.vertices():
                single = frozenset({("v", vertex)})
                if single in signature_of:
                    self._link(signature_of[single], signature_of[child_set])

    def remove_query(self, name: str) -> None:
        """Unweave a query (sliding workload windows).

        Support is decremented on every node the query contributed to;
        nodes whose support reaches zero are pruned together with their
        DAG edges.
        """
        if name not in self._query_frequencies:
            raise WorkloadError(f"query {name!r} not present in TPSTry++")
        frequency = self._query_frequencies.pop(name)
        for signature in self._query_nodes.pop(name):
            node = self._nodes[signature]
            node.queries.discard(name)
            node.support -= frequency
            if node.support <= 1e-12 and not node.queries:
                self._drop(node)

    def _drop(self, node: TPSTryNode) -> None:
        for parent_sig in node.parents:
            parent = self._nodes.get(parent_sig)
            if parent is not None:
                parent.children.discard(node.signature)
        for child_sig in node.children:
            child = self._nodes.get(child_sig)
            if child is not None:
                child.parents.discard(node.signature)
        del self._nodes[node.signature]

    def _register(self, graph: LabelledGraph, query: PatternQuery) -> int:
        signature = self.scheme.signature_of(graph)
        node = self._nodes.get(signature)
        if node is None:
            node = TPSTryNode(signature=signature, graph=graph.copy())
            self._nodes[signature] = node
        if query.name not in node.queries:
            node.queries.add(query.name)
            node.support += query.frequency
            self._query_nodes[query.name].add(signature)
        return signature

    def _link(self, parent_sig: int, child_sig: int) -> None:
        parent = self._nodes[parent_sig]
        child = self._nodes[child_sig]
        if parent is child:
            return
        parent.children.add(child.signature)
        child.parents.add(parent.signature)

    # ------------------------------------------------------------------
    # Queries over the DAG
    # ------------------------------------------------------------------
    @property
    def total_frequency(self) -> float:
        return sum(self._query_frequencies.values())

    def p_value(self, node: TPSTryNode) -> float:
        """Probability that a random workload query contains this motif."""
        total = self.total_frequency
        return node.support / total if total else 0.0

    def node_by_signature(self, signature: int) -> TPSTryNode | None:
        """Resolve a stream sub-graph's signature to its motif node."""
        return self._nodes.get(signature)

    def roots(self) -> list[TPSTryNode]:
        """Single-vertex nodes, one per distinct label seen in ``Q``."""
        return [n for n in self._nodes.values() if n.is_root]

    def nodes(self) -> Iterator[TPSTryNode]:
        return iter(self._nodes.values())

    def frequent_motifs(
        self, threshold: float, *, min_edges: int = 1
    ) -> list[TPSTryNode]:
        """Nodes with ``p >= threshold`` -- the motifs LOOM co-locates.

        Motifs need at least one edge to be useful for grouping (a single
        vertex cannot straddle a partition boundary); ``min_edges``
        defaults accordingly.
        """
        if threshold <= 0:
            raise WorkloadError("threshold must be positive")
        return [
            node
            for node in self._nodes.values()
            if node.num_edges >= min_edges and self.p_value(node) >= threshold
        ]

    def frequent_signatures(
        self, threshold: float, *, min_edges: int = 1
    ) -> frozenset[int]:
        return frozenset(
            node.signature
            for node in self.frequent_motifs(threshold, min_edges=min_edges)
        )

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"TPSTryPP(|nodes|={len(self._nodes)}, "
            f"queries={sorted(self._query_frequencies)})"
        )


class StreamingTPSTry:
    """A sliding window over a query *stream*.

    The paper summarises "the traversal patterns caused by queries within a
    window over Q": as queries are observed, the newest ``window`` of them
    define the TPSTry++; older observations expire.  Repeated observations
    of the same query pattern enter as separately-named instances, so a
    pattern's support tracks its frequency within the window.
    """

    def __init__(
        self, window: int, *, scheme: SignatureScheme | None = None
    ) -> None:
        if window < 1:
            raise WorkloadError("query window must hold at least one query")
        self.window = window
        self.trie = TPSTryPP(scheme)
        self._buffer: deque[str] = deque()
        self._observation = 0

    def observe(self, query: PatternQuery) -> None:
        """Record one executed query, expiring the oldest if the window is full."""
        instance_name = f"{query.name}#{self._observation}"
        self._observation += 1
        instance = PatternQuery(instance_name, query.graph, query.frequency)
        if len(self._buffer) >= self.window:
            self.trie.remove_query(self._buffer.popleft())
        self.trie.add_query(instance)
        self._buffer.append(instance_name)

    def frequent_motifs(
        self, threshold: float, *, min_edges: int = 1
    ) -> list[TPSTryNode]:
        return self.trie.frequent_motifs(threshold, min_edges=min_edges)

    def __len__(self) -> int:
        return len(self._buffer)


def _connected_subgraphs(
    graph: LabelledGraph,
) -> Iterator[tuple[frozenset[object], LabelledGraph]]:
    """Every connected sub-graph of a (small) query graph.

    Yields ``(identity, sub_graph)`` pairs where ``identity`` is the edge
    set as a frozenset (or ``{("v", vertex)}`` for single vertices), unique
    within the query graph.  Exhaustive over edge subsets: query graphs are
    tiny by construction, and exhaustiveness is what makes the TPSTry++
    complete for the workload.
    """
    for vertex in graph.vertices():
        single = LabelledGraph()
        single.add_vertex(vertex, graph.label(vertex))
        yield frozenset({("v", vertex)}), single

    edges = list(graph.edges())
    if len(edges) > 16:
        raise WorkloadError(
            f"query graph has {len(edges)} edges; motif enumeration is "
            "exhaustive and meant for small pattern queries (<= 16 edges)"
        )
    for mask in range(1, 1 << len(edges)):
        subset = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        candidate = edge_subgraph(graph, subset)
        if is_connected(candidate):
            yield frozenset(subset), candidate
