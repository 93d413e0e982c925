"""The per-neighbour query walk, preserved verbatim.

``reference_execute_partial`` is
:meth:`~repro.cluster.executor.DistributedQueryExecutor.execute_partial`
exactly as it stood before the expansion kernel:

* the search order re-derived and the partial match bound in a dict,
* every neighbour of every matched anchor visited in Python, with one
  ledger record and one ``is_remote_from`` probe per neighbour, before
  the label and ``used`` filters,
* answers added one recursion level below the last pattern vertex.

The ledger's per-traversal ``record`` method went with the walk; it is
kept here as :func:`record`.  ``test_executor_reference.py`` pins the
shipped kernel's answers, ledgers and ``edge_counts`` (order included)
to this walk.  Behaviour changes belong in :mod:`repro.cluster.executor`,
never here.
"""

from __future__ import annotations

from repro.cluster.executor import TraversalLedger
from repro.graph.isomorphism import search_order
from repro.graph.labelled import edge_key


def record(ledger, crossed, edge=None):
    if crossed:
        ledger.remote += 1
    else:
        ledger.local += 1
    if ledger.track_edges and edge is not None:
        ledger.edge_counts[edge] = ledger.edge_counts.get(edge, 0) + 1


def reference_seed_candidates(store, pattern):
    order = search_order(pattern)
    if not order:
        return []
    wanted = pattern.label(order[0])
    return sorted(store.graph.vertices_with_label(wanted), key=repr)


def reference_execute_partial(store, query, seeds, *, track_edges=False):
    pattern = query.graph
    ledger = TraversalLedger(track_edges=track_edges)

    order = search_order(pattern)
    pattern_edges = list(pattern.edges())
    answer_edge_id = store.graph.edge_id
    is_remote_from = store.is_remote_from
    store_label = store.graph.label
    mapping = {}
    used = set()
    seen_answers = set()

    def candidates(pattern_vertex):
        wanted = pattern.label(pattern_vertex)
        anchors = [
            p for p in pattern.neighbours(pattern_vertex) if p in mapping
        ]
        if not anchors:
            return sorted(
                (
                    v
                    for v in store.graph.vertices_with_label(wanted)
                    if v not in used
                ),
                key=repr,
            )
        anchor_image = mapping[anchors[0]]
        home = store.partition_of(anchor_image)
        pool = []
        for w in store.graph.sorted_neighbours(anchor_image):
            record(
                ledger,
                is_remote_from(home, w),
                edge=edge_key(anchor_image, w) if track_edges else None,
            )
            if w in used or store_label(w) != wanted:
                continue
            pool.append(w)
        out = []
        for w in pool:
            ok = True
            for other in anchors[1:]:
                if w not in store.graph.neighbours(mapping[other]):
                    ok = False
                    break
            if ok:
                out.append(w)
        return out

    def backtrack(depth):
        if depth == len(order):
            seen_answers.add(
                (
                    frozenset(mapping.values()),
                    frozenset(
                        answer_edge_id(mapping[u], mapping[v])
                        for u, v in pattern_edges
                    ),
                )
            )
            return
        pattern_vertex = order[depth]
        for candidate in candidates(pattern_vertex):
            mapping[pattern_vertex] = candidate
            used.add(candidate)
            backtrack(depth + 1)
            del mapping[pattern_vertex]
            used.discard(candidate)

    if not order:
        seen_answers.add((frozenset(), frozenset()))
    else:
        first = order[0]
        for seed in candidates(first) if seeds is None else seeds:
            mapping[first] = seed
            used.add(seed)
            backtrack(1)
            del mapping[first]
            used.discard(seed)
    return seen_answers, ledger
