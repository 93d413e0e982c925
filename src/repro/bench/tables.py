"""Plain-text result tables and bar charts.

Experiment output is rendered as aligned ASCII (no plotting dependencies
are available offline); every table also serialises to CSV so results can
be post-processed.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from pathlib import Path


class Table:
    """An ordered collection of result rows with typed formatting.

    >>> t = Table("demo", ["method", "cut"])
    >>> t.add_row(method="ldg", cut=0.123456)
    >>> print(t.render())  # doctest: +ELLIPSIS
    demo
    ...
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: list[dict[str, object]] = []

    def add_row(self, **values: object) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        self.rows.append({c: values.get(c, "") for c in self.columns})

    @staticmethod
    def _format(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    def render(self) -> str:
        """Aligned monospace rendering with a title and header rule."""
        cells = [[self._format(row[c]) for c in self.columns] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        out = io.StringIO()
        out.write(self.title + "\n")
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for row in cells:
            out.write(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
                + "\n"
            )
        return out.getvalue()

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(self._format(row[c]) for c in self.columns)
        return out.getvalue()

    def save_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")

    def as_dict(self) -> dict[str, object]:
        """JSON-plain representation (the CLI's ``--json`` output)."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
        }

    def column(self, name: str) -> list[object]:
        """All values of one column (for assertions in tests/benches)."""
        if name not in self.columns:
            raise ValueError(f"no column {name!r}")
        return [row[name] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


def ascii_bar_chart(
    title: str,
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 50,
) -> str:
    """Horizontal bar chart for 'figure'-style experiment output."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    out = io.StringIO()
    out.write(title + "\n")
    if not values:
        return out.getvalue()
    peak = max(values) or 1.0
    label_width = max(len(label) for label in labels)
    for label, value in zip(labels, values, strict=True):
        bar = "#" * max(0, round(width * value / peak))
        out.write(f"{label.ljust(label_width)}  {bar} {value:.4f}\n")
    return out.getvalue()
