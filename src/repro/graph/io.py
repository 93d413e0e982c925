"""Serialisation of labelled graphs.

The format is a line-oriented *labelled edge list* (``v <id> <label>``
then ``e <u> <v>``), human-editable and diff-friendly, used by the CLI.

Vertex ids are written as strings; integer-looking ids round-trip back to
``int`` so that graphs generated by :mod:`repro.graph.generators` survive a
save/load cycle unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro.exceptions import GraphError
from repro.graph.labelled import LabelledGraph, Vertex


def _parse_vertex(token: str) -> Vertex:
    try:
        return int(token)
    except ValueError:
        return token


def to_edge_list(graph: LabelledGraph) -> str:
    """Render the graph in the labelled edge-list text format."""
    lines: list[str] = [f"# labelled graph |V|={graph.num_vertices} |E|={graph.num_edges}"]
    for vertex in graph.vertices():
        lines.append(f"v {vertex} {graph.label(vertex)}")
    for u, v in graph.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def from_edge_list(text: str | Iterable[str]) -> LabelledGraph:
    """Parse the labelled edge-list text format produced by :func:`to_edge_list`."""
    lines = text.splitlines() if isinstance(text, str) else list(text)
    graph = LabelledGraph()
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 3:
            graph.add_vertex(_parse_vertex(parts[1]), parts[2])
        elif parts[0] == "e" and len(parts) == 3:
            graph.add_edge(_parse_vertex(parts[1]), _parse_vertex(parts[2]))
        else:
            raise GraphError(f"line {number}: cannot parse {line!r}")
    return graph


def save_edge_list(graph: LabelledGraph, path: str | Path) -> None:
    Path(path).write_text(to_edge_list(graph), encoding="utf-8")


def load_edge_list(path: str | Path) -> LabelledGraph:
    return from_edge_list(Path(path).read_text(encoding="utf-8"))
