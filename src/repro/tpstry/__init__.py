"""TPSTry++: the traversal pattern summary DAG (paper section 4.2).

The TPSTry++ generalises the authors' earlier TPSTry (a trie over label
*paths*) to a directed acyclic graph whose nodes are labelled *graph
motifs* -- connected sub-graphs occurring inside the query graphs of a
workload ``Q`` -- so that branches and cycles can be encoded.  Each node
carries the set of queries containing its motif and a p-value: the
probability that a random query of ``Q`` traverses a sub-graph of that
shape.  Nodes with ``p >= T`` are the *frequent motifs* LOOM co-locates.

* :class:`repro.tpstry.node.TPSTryNode` -- one motif node.
* :class:`repro.tpstry.trie.TPSTryPP` -- the DAG plus Algorithm 1.
* :class:`repro.tpstry.trie.StreamingTPSTry` -- a sliding window over a
  query stream (the paper "continuously summarises ... within a window
  over Q").
* :class:`repro.tpstry.path_trie.PathTPSTry` -- the original path-only
  trie, kept as the ablation baseline (A3).
"""

from repro.tpstry.node import TPSTryNode
from repro.tpstry.trie import StreamingTPSTry, TPSTryPP
from repro.tpstry.path_trie import PathTPSTry
from repro.tpstry.estimation import edge_motif_probability

__all__ = [
    "TPSTryNode",
    "TPSTryPP",
    "StreamingTPSTry",
    "PathTPSTry",
    "edge_motif_probability",
]
