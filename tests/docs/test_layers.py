"""The package graph is one layered order, checked from the source.

:data:`ORDER` lists the layers of ``src/repro`` bottom to top: a module
may import from its own layer and from the layers below it, never from
one above.  Every import counts -- module level, inside functions and
under ``if TYPE_CHECKING:`` alike -- so a cycle cannot hide behind a
late import.  A ``repro`` import inside a function is refused too unless
:data:`ALLOWLIST` names its site and says why it must be late.

``docs/README.md`` draws the same order as one line; the test holds the
two equal.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: The layers, bottom to top; a layer is a top-level module or
#: sub-package of ``repro``.  The package root itself re-exports from
#: every layer and so sits above all of them.
ORDER = (
    "exceptions", "configbase", "graph", "signatures", "workload",
    "tpstry", "stream", "partitioning", "core", "cluster", "engine",
    "replication", "obs", "runtime", "datasets", "api", "bench", "serve",
    "cli",
)

#: ``(module, enclosing function, imported module)`` -> why that import
#: stays inside the function.
ALLOWLIST: dict[tuple[str, str, str], str] = {
    (
        "repro.cluster.store",
        "DistributedGraphStore.export_columns",
        "repro.cluster.columnar",
    ): "the codec builds stores, so store imports it late; "
    "export_columns is public probe surface",
    (
        "repro.cluster.store",
        "DistributedGraphStore.import_columns",
        "repro.cluster.columnar",
    ): "the codec builds stores, so store imports it late; "
    "import_columns is public probe surface",
    (
        "repro.cluster.columnar",
        "decode_columns",
        "repro.cluster.store",
    ): "decode_columns constructs the store that imports this codec",
}


def rank(module: str) -> int:
    """The position of ``module``'s layer in :data:`ORDER` (the package
    root ranks above every layer); ``ValueError`` if undeclared."""
    parts = module.split(".")
    if len(parts) == 1:
        return len(ORDER)
    return ORDER.index(parts[1])


def imports_of(source: str) -> Iterator[tuple[int, str | None, str]]:
    """``(line, enclosing function or None, imported module)`` for every
    import in ``source``; a relative import yields the module ``"."``,
    which no layer holds."""

    def walk(node: ast.AST, scope: str, function: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield child.lineno, function, alias.name
            elif isinstance(child, ast.ImportFrom) and child.level:
                yield child.lineno, function, "."
            elif isinstance(child, ast.ImportFrom):
                # ``from repro import datasets`` imports a layer.
                targets = {
                    f"repro.{alias.name}"
                    if child.module == "repro" and alias.name in ORDER
                    else child.module
                    for alias in child.names
                }
                for target in sorted(targets):
                    yield child.lineno, function, target
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}{child.name}"
                yield from walk(child, f"{name}.", name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{scope}{child.name}.", function)
            else:
                yield from walk(child, scope, function)

    yield from walk(ast.parse(source), "", None)


def layer_violations(
    modules: Iterable[tuple[str, str]],
    allowlist: dict[tuple[str, str, str], str],
) -> list[str]:
    """Every import in ``(module, source)`` pairs that goes up
    :data:`ORDER` or sits inside a function off ``allowlist``, plus every
    allowlist entry that names no such import."""
    found: list[str] = []
    unused = set(allowlist)
    for module, source in modules:
        try:
            own = rank(module)
        except ValueError:
            found.append(f"{module}: not in any declared layer")
            continue
        for line, function, target in imports_of(source):
            if target == ".":
                found.append(f"{module}:{line}: relative import")
                continue
            if target.split(".")[0] != "repro":
                continue
            where = f"{module}:{line} imports {target}"
            try:
                up = rank(target) > own
            except ValueError:
                found.append(f"{where}: not in any declared layer")
                continue
            if up:
                found.append(f"{where}: up the layer order")
            if function is not None:
                site = (module, function, target)
                if site in allowlist:
                    unused.discard(site)
                else:
                    found.append(f"{where} inside {function}(): not allowlisted")
    found.extend(f"allowlist entry {site} names no import" for site in sorted(unused))
    return found


def source_tree() -> list[tuple[str, str]]:
    pairs = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        pairs.append((".".join(parts), path.read_text()))
    return pairs


def test_the_source_tree_follows_the_layer_order():
    assert layer_violations(source_tree(), ALLOWLIST) == []


def test_late_imports_stay_few_and_inside_the_cluster_layer():
    assert len(ALLOWLIST) <= 4
    for module, _, target in ALLOWLIST:
        assert module.startswith("repro.cluster.")
        assert target.startswith("repro.cluster.")


UP = "up the layer order"
LATE = "not allowlisted"


@pytest.mark.parametrize(
    ("module", "source", "refusal"),
    [
        # The three edges that made cluster, core, engine and
        # partitioning one cycle, each restored on its own.
        ("repro.partitioning.workload_offline",
         "from repro.cluster.executor import run_workload", UP),
        ("repro.core.loom",
         "from repro.engine.pipeline import StreamingEngine", UP),
        ("repro.partitioning.base",
         "def partition_stream(): from repro.engine.pipeline import StreamingEngine",
         UP),
        # The late imports that hid them, and the other ways in.
        ("repro.engine.registry",
         "def _method_table(): from repro.core.loom import LoomPartitioner", LATE),
        ("repro.core.loom",
         "if TYPE_CHECKING: from repro.engine.registry import PartitionRequest",
         UP),
        ("repro.graph.labelled", "import repro.api", UP),
        ("repro.graph.labelled", "from repro import api", UP),
        ("repro.graph.labelled", "from repro import Cluster", UP),
        ("repro.graph.labelled", "from . import views", "relative import"),
        ("repro.graph.labelled", "from repro.plugins import extra",
         "not in any declared layer"),
        ("repro.plugins", "import os", "not in any declared layer"),
    ],
)
def test_a_restored_cycle_edge_is_refused(module, source, refusal):
    found = layer_violations([(module, source)], {})
    assert any(refusal in line for line in found), found


def test_a_stale_allowlist_entry_is_refused():
    site = ("repro.cluster.store", "gone", "repro.cluster.columnar")
    assert layer_violations([], {site: "reason"}) == [
        f"allowlist entry {site} names no import"
    ]


def test_downward_and_same_layer_imports_pass():
    source = (
        "import random\n"
        "from repro.core.loom import LoomPartitioner\n"
        "import repro.engine.pipeline\n"
        "def build(): return random\n"
    )
    assert layer_violations([("repro.engine.registry", source)], {}) == []


def test_docs_readme_draws_the_declared_order():
    lines = [
        line for line in (REPO / "docs" / "README.md").read_text().splitlines()
        if " → " in line
    ]
    assert len(lines) == 1, lines
    drawn = tuple(part.strip(" `") for part in lines[0].split("→"))
    assert drawn == ORDER
