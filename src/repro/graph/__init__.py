"""Labelled-graph substrate used by every other subsystem.

The paper (section 2) defines a labelled graph ``G = (V, E, L_V, f_l)`` as a
set of vertices, a set of undirected pairwise edges, a set of vertex labels
and a surjective vertex-to-label mapping.  :class:`LabelledGraph` implements
exactly that object, dynamically (vertices and edges may arrive and leave,
as required by the streaming setting).

Public surface:

* :class:`repro.graph.labelled.LabelledGraph` -- the core data structure.
* :mod:`repro.graph.traversal` -- BFS/DFS orders and connectivity helpers.
* :mod:`repro.graph.isomorphism` -- labelled sub-graph isomorphism (VF2 style).
* :mod:`repro.graph.canonical` -- canonical forms for small labelled graphs.
* :mod:`repro.graph.generators` -- synthetic graph generators.
* :mod:`repro.graph.io` -- labelled edge-list text (de)serialisation.
"""

from repro.graph.labelled import LabelledGraph, edge_key
from repro.graph.views import induced_subgraph, edge_subgraph
from repro.graph.traversal import (
    bfs_order,
    dfs_order,
    connected_components,
    is_connected,
)
from repro.graph.isomorphism import (
    find_embeddings,
    find_matches,
    is_isomorphic,
    count_embeddings,
)
from repro.graph.canonical import canonical_form

__all__ = [
    "LabelledGraph",
    "edge_key",
    "induced_subgraph",
    "edge_subgraph",
    "bfs_order",
    "dfs_order",
    "connected_components",
    "is_connected",
    "find_embeddings",
    "find_matches",
    "is_isomorphic",
    "count_embeddings",
    "canonical_form",
]
