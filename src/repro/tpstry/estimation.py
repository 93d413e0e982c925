"""Traversal-probability estimation from the TPSTry++.

The paper (section 4.2, describing the original TPSTry): "Using these
probabilities, we are able to estimate the probability of any traversal
from a vertex v, given its label and those of v's local neighbourhood."
The estimate the partitioners use is the p-value of the two-vertex motif
over an edge's labels (traversal-aware LDG weighs neighbours by it).
"""

from __future__ import annotations

from repro.graph.labelled import Label, LabelledGraph
from repro.tpstry.trie import TPSTryPP


def edge_motif_probability(trie: TPSTryPP, label_a: Label, label_b: Label) -> float:
    """p-value of the two-vertex motif ``label_a -- label_b``.

    The probability that a random workload query contains (and therefore
    may traverse) an edge whose endpoint labels are these.
    """
    motif = LabelledGraph.from_edges({0: label_a, 1: label_b}, [(0, 1)])
    node = trie.node_by_signature(trie.scheme.signature_of(motif))
    return trie.p_value(node) if node is not None else 0.0
