"""TPSTry++ motif nodes."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.labelled import LabelledGraph


@dataclass
class TPSTryNode:
    """One motif in the TPSTry++ DAG.

    ``signature``
        The Song-et-al numeric signature of the motif -- the node's key in
        the DAG, and the value the stream matcher compares sub-graph
        signatures against.
    ``graph``
        A representative labelled graph of the motif (vertex ids are
        query-local and irrelevant; only the shape matters).
    ``queries``
        Names of the workload queries whose query graph contains this
        motif ("the set of queries which could cause the path of
        traversals which n represents").
    ``support``
        Total frequency of those queries.  Divided by the workload's total
        frequency this gives the node's p-value.
    ``children`` / ``parents``
        Signatures of one-edge extensions / reductions -- the DAG edges.
        The matcher admits ``S + e`` only onto a child of ``S``'s node.
    """

    signature: int
    graph: LabelledGraph
    queries: set[str] = field(default_factory=set)
    support: float = 0.0
    children: set[int] = field(default_factory=set)
    parents: set[int] = field(default_factory=set)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def is_root(self) -> bool:
        """Roots are the single-vertex motifs -- one per distinct label,
        which is why the TPSTry++ is a DAG rather than a tree."""
        return self.graph.num_vertices == 1

    def __repr__(self) -> str:
        labels = "".join(
            sorted(self.graph.label(v) for v in self.graph.vertices())
        )
        return (
            f"TPSTryNode({labels}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, support={self.support:g}, "
            f"queries={sorted(self.queries)})"
        )
