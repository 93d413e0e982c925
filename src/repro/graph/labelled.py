"""Dynamic undirected labelled graph (the paper's section-2 definition).

A :class:`LabelledGraph` stores a set of vertices ``V``, a surjective label
mapping ``f_l : V -> L_V`` and a set of undirected edges ``E``.  It is the
single graph representation shared by the whole library: query graphs,
streamed graphs, motifs and partitions are all instances of this class (or
cheap views over one).

Vertices are arbitrary hashable identifiers (integers and strings in
practice).  Edges are unordered pairs; :func:`edge_key` gives the canonical
tuple used whenever an edge must act as a dictionary key.

Internally the graph is an *indexed adjacency core*: every vertex is
interned to a dense integer slot, adjacency is kept in integer space
(one set of neighbour slots per slot), and a label -> vertices index
(insertion-ordered) is maintained incrementally on mutation, so label
lookups read O(result) instead of scanning every vertex.  Neighbour
reads (:meth:`~LabelledGraph.neighbours`,
:meth:`~LabelledGraph.sorted_neighbours`) build their answer from the
adjacency on each call; the query path's per-anchor caches live in the
cluster store, which knows what each query reads.
Slots freed by :meth:`remove_vertex` are recycled, so long-lived windowed
graphs do not grow without bound.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping

from repro.exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError

Vertex = Hashable
Label = str
Edge = tuple[Vertex, Vertex]


def _vertex_sort_key(vertex: Vertex) -> tuple[str, str]:
    """Total order over heterogeneous vertex ids (ints, strings, tuples)."""
    return (type(vertex).__name__, repr(vertex))


def edge_key(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (order-independent) tuple for the edge ``{u, v}``.

    Integer pairs sort numerically; mixed-type pairs fall back to a stable
    type-name/repr order so that ``edge_key(a, b) == edge_key(b, a)`` always
    holds.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if _vertex_sort_key(u) <= _vertex_sort_key(v) else (v, u)


class LabelledGraph:
    """A dynamic, undirected, vertex-labelled graph.

    >>> g = LabelledGraph()
    >>> g.add_vertex(1, "a")
    1
    >>> g.add_vertex(2, "b")
    2
    >>> g.add_edge(1, 2)
    True
    >>> g.label(1), g.degree(2), g.num_edges
    ('a', 1, 1)

    The class deliberately exposes a small, explicit API (Zen: "explicit is
    better than implicit"); bulk helpers such as :meth:`from_edges` build on
    it rather than bypassing it.
    """

    __slots__ = (
        "_index_of",
        "_ids",
        "_labels_at",
        "_adj_at",
        "_label_index",
        "_free",
        "_num_edges",
    )

    def __init__(self) -> None:
        #: vertex -> slot, insertion-ordered (drives vertex iteration order).
        self._index_of: dict[Vertex, int] = {}
        #: slot -> vertex id (None for recycled slots).
        self._ids: list[Vertex | None] = []
        #: slot -> label.
        self._labels_at: list[Label | None] = []
        #: slot -> neighbour slots (adjacency in integer space).
        self._adj_at: list[set[int]] = []
        #: label -> insertion-ordered set of vertices carrying it.
        self._label_index: dict[Label, dict[Vertex, None]] = {}
        #: recycled slots available for reuse.
        self._free: list[int] = []
        self._num_edges: int = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        labels: Mapping[Vertex, Label],
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> "LabelledGraph":
        """Build a graph from a label mapping and an edge iterable.

        Every endpoint of every edge must appear in ``labels``.
        """
        graph = cls()
        for vertex, label in labels.items():
            graph.add_vertex(vertex, label)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def path(cls, labels: Iterable[Label], *, start_id: int = 0) -> "LabelledGraph":
        """Build a simple path graph whose vertices carry ``labels`` in order.

        Convenient for constructing the path-shaped query graphs that
        dominate the paper's example workloads (e.g. ``a-b-c``).
        """
        graph = cls()
        previous: Vertex | None = None
        for offset, label in enumerate(labels):
            vertex = start_id + offset
            graph.add_vertex(vertex, label)
            if previous is not None:
                graph.add_edge(previous, vertex)
            previous = vertex
        return graph

    @classmethod
    def cycle(cls, labels: Iterable[Label], *, start_id: int = 0) -> "LabelledGraph":
        """Build a simple cycle graph over ``labels`` (at least 3 of them)."""
        label_list = list(labels)
        if len(label_list) < 3:
            raise GraphError("a cycle needs at least 3 vertices")
        graph = cls.path(label_list, start_id=start_id)
        graph.add_edge(start_id, start_id + len(label_list) - 1)
        return graph

    @classmethod
    def star(
        cls, centre_label: Label, leaf_labels: Iterable[Label], *, start_id: int = 0
    ) -> "LabelledGraph":
        """Build a star: one centre vertex connected to one leaf per label."""
        graph = cls()
        centre = start_id
        graph.add_vertex(centre, centre_label)
        for offset, label in enumerate(leaf_labels, start=1):
            leaf = start_id + offset
            graph.add_vertex(leaf, label)
            graph.add_edge(centre, leaf)
        return graph

    def copy(self) -> "LabelledGraph":
        """Return an independent deep copy of this graph."""
        clone = LabelledGraph()
        for vertex, slot in self._index_of.items():
            clone.add_vertex(vertex, self._labels_at[slot])
        for vertex, slot in self._index_of.items():
            clone_slot = clone._index_of[vertex]
            clone._adj_at[clone_slot] = {
                clone._index_of[self._ids[neighbour]]
                for neighbour in self._adj_at[slot]
            }
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def vertex_at(self, index: int) -> Vertex:
        """The vertex interned at slot ``index`` (raises on free/invalid
        slots).  Slots are stable for the lifetime of the vertex and
        recycled after removal."""
        if 0 <= index < len(self._ids):
            vertex = self._ids[index]
            if vertex is not None:
                return vertex
        raise VertexNotFoundError(index)

    #: Slot width of packed edge ids (:meth:`edge_id`).
    _EDGE_ID_SHIFT = 32

    def edge_id(self, u: Vertex, v: Vertex) -> int:
        """Compact integer id of the edge ``{u, v}``: both endpoint slots
        packed into one int, smaller slot high.

        Stable while both endpoints live (slots only recycle after vertex
        removal), symmetric (``edge_id(u, v) == edge_id(v, u)``) and unique
        among live edges -- the motif matcher keys its match index by these
        instead of canonical vertex-tuple pairs.  The edge itself need not
        exist; endpoints must.
        """
        try:
            iu = self._index_of[u]
            iv = self._index_of[v]
        except KeyError:
            missing = u if u not in self._index_of else v
            raise VertexNotFoundError(missing) from None
        if iu > iv:
            iu, iv = iv, iu
        return (iu << self._EDGE_ID_SHIFT) | iv

    def edge_from_id(self, eid: int) -> Edge:
        """Decode :meth:`edge_id` back to the canonical edge tuple."""
        return edge_key(
            self.vertex_at(eid >> self._EDGE_ID_SHIFT),
            self.vertex_at(eid & ((1 << self._EDGE_ID_SHIFT) - 1)),
        )

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex, label: Label) -> Vertex:
        """Add ``vertex`` with ``label``; re-adding with the same label is a no-op.

        Re-adding an existing vertex with a *different* label is an error:
        the label mapping of the paper is a function, so a vertex cannot
        carry two labels.
        """
        slot = self._index_of.get(vertex)
        if slot is not None:
            existing = self._labels_at[slot]
            if existing != label:
                raise GraphError(
                    f"vertex {vertex!r} already has label {existing!r}, not {label!r}"
                )
            return vertex
        if self._free:
            slot = self._free.pop()
            self._ids[slot] = vertex
            self._labels_at[slot] = label
            self._adj_at[slot] = set()
        else:
            slot = len(self._ids)
            self._ids.append(vertex)
            self._labels_at.append(label)
            self._adj_at.append(set())
        self._index_of[vertex] = slot
        carriers = self._label_index.get(label)
        if carriers is None:
            carriers = self._label_index[label] = {}
        carriers[vertex] = None
        return vertex

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all its incident edges."""
        slot = self._index_of.get(vertex)
        if slot is None:
            raise VertexNotFoundError(vertex)
        for neighbour_slot in self._adj_at[slot]:
            self._adj_at[neighbour_slot].discard(slot)
            self._num_edges -= 1
        label = self._labels_at[slot]
        carriers = self._label_index.get(label)
        if carriers is not None:
            carriers.pop(vertex, None)
            if not carriers:
                del self._label_index[label]
        self._ids[slot] = None
        self._labels_at[slot] = None
        self._adj_at[slot] = set()
        self._free.append(slot)
        del self._index_of[vertex]

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._index_of

    def label(self, vertex: Vertex) -> Label:
        """Return the label of ``vertex`` (raises if absent)."""
        try:
            return self._labels_at[self._index_of[vertex]]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertex ids in insertion order."""
        return iter(self._index_of)

    def vertex_labels(self) -> Mapping[Vertex, Label]:
        """Read-only view of the vertex -> label mapping."""
        labels_at = self._labels_at
        return {vertex: labels_at[slot] for vertex, slot in self._index_of.items()}

    def labels(self) -> set[Label]:
        """The label alphabet ``L_V`` actually used by this graph."""
        return set(self._label_index)

    def vertices_with_label(self, label: Label) -> list[Vertex]:
        """All vertices carrying ``label`` (insertion order).

        Served from the incrementally maintained label index: O(result)
        instead of a full vertex scan.
        """
        carriers = self._label_index.get(label)
        return list(carriers) if carriers is not None else []

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Add the undirected edge ``{u, v}``; both endpoints must exist.

        Self loops are rejected (the paper's graphs are simple), and
        re-adding an existing edge is a harmless no-op, which simplifies
        stream replay.  Returns whether the edge is new, so a caller that
        acts on new edges only probes the graph once.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} not allowed in a simple graph")
        iu = self._index_of.get(u)
        if iu is None:
            raise VertexNotFoundError(u)
        iv = self._index_of.get(v)
        if iv is None:
            raise VertexNotFoundError(v)
        if iv in self._adj_at[iu]:
            return False
        self._adj_at[iu].add(iv)
        self._adj_at[iv].add(iu)
        self._num_edges += 1
        return True

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``{u, v}`` (raises if absent)."""
        iu = self._index_of.get(u)
        iv = self._index_of.get(v)
        if iu is None or iv is None or iv not in self._adj_at[iu]:
            raise EdgeNotFoundError(u, v)
        self._adj_at[iu].discard(iv)
        self._adj_at[iv].discard(iu)
        self._num_edges -= 1

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        iu = self._index_of.get(u)
        iv = self._index_of.get(v)
        return iu is not None and iv is not None and iv in self._adj_at[iu]

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical edge tuples, each edge exactly once."""
        ids = self._ids
        adj_at = self._adj_at
        for vertex, slot in self._index_of.items():
            for neighbour_slot in adj_at[slot]:
                if slot < neighbour_slot:
                    yield edge_key(vertex, ids[neighbour_slot])

    def neighbours(self, vertex: Vertex) -> frozenset[Vertex]:
        """The neighbour set of ``vertex`` as a fresh immutable snapshot,
        built per call in O(degree): a membership test is
        :meth:`has_edge`."""
        try:
            slot = self._index_of[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        ids = self._ids
        return frozenset([ids[j] for j in self._adj_at[slot]])

    def sorted_neighbours(self, vertex: Vertex) -> tuple[Vertex, ...]:
        """Neighbours of ``vertex`` in deterministic (repr) order.

        The canonical iteration order used by the motif matcher, stream
        replay and the query executor.
        """
        try:
            slot = self._index_of[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        ids = self._ids
        return tuple(sorted([ids[j] for j in self._adj_at[slot]], key=repr))

    def degree(self, vertex: Vertex) -> int:
        try:
            return len(self._adj_at[self._index_of[vertex]])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    # ------------------------------------------------------------------
    # Size / dunder protocol
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._index_of)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._index_of

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._index_of)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex ids, labels and edge set.

        Note this is *identity* equality, not isomorphism; use
        :func:`repro.graph.isomorphism.is_isomorphic` for shape equality.
        """
        if not isinstance(other, LabelledGraph):
            return NotImplemented
        if (
            self._num_edges != other._num_edges
            or len(self._index_of) != len(other._index_of)
        ):
            return False
        for vertex, slot in self._index_of.items():
            other_slot = other._index_of.get(vertex)
            if other_slot is None:
                return False
            if self._labels_at[slot] != other._labels_at[other_slot]:
                return False
            if self.neighbours(vertex) != other.neighbours(vertex):
                return False
        return True

    def __hash__(self) -> int:  # pragma: no cover - mutable, therefore unhashable
        raise TypeError("LabelledGraph is mutable and unhashable; use a key view")

    def __repr__(self) -> str:
        return (
            f"LabelledGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"labels={sorted(self.labels())!r})"
        )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def label_histogram(self) -> dict[Label, int]:
        """Count of vertices per label (read off the label index)."""
        return {
            label: len(carriers)
            for label, carriers in self._label_index.items()
        }
