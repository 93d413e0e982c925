"""Source model and checker framework for :mod:`repro.analysis`.

A :class:`SourceModule` is one parsed file: path, AST, raw lines and the
``# repro: noqa[CODE]`` suppressions found on each line.  Checkers are
plain callables ``check(tree: SourceTree) -> Iterator[Finding]`` over a
:class:`SourceTree` (every module of one analysis root), registered in
:data:`CHECKS` so the CLI can ``--select`` them by code prefix.

Suppression syntax::

    something_sanctioned()  # repro: noqa[WAL001] -- why this is safe

The justification after ``--`` is mandatory: a bare ``noqa`` does not
suppress anything and instead raises an :data:`ANA001` finding of its
own, so every suppression in the tree documents its reason.  A finding
is suppressed when its code (or the code's checker prefix, e.g.
``DET``) appears in a noqa on the finding's own line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.analysis.findings import Finding

#: ``# repro: noqa[CODE,CODE2] -- justification``
_NOQA = re.compile(
    r"#\s*repro:\s*noqa\[(?P<codes>[A-Z0-9, ]+)\]\s*(?P<why>.*)$"
)

#: The meta-rules the framework itself emits.
ANA001 = "ANA001"  # suppression without a justification
ANA002 = "ANA002"  # file does not parse


@dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed ``# repro: noqa[...]`` comment."""

    line: int
    codes: tuple[str, ...]
    justified: bool


class SourceModule:
    """One parsed source file plus its suppression table."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree: ast.Module | None = None
        self.syntax_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            self.syntax_error = error
        self.suppressions: list[Suppression] = []
        self._suppressed: dict[int, set[str]] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _NOQA.search(text)
            if match is None:
                continue
            codes = tuple(
                code.strip()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            why = match.group("why").strip().lstrip("-").strip()
            justified = bool(why)
            self.suppressions.append(Suppression(number, codes, justified))
            if justified:
                self._suppressed.setdefault(number, set()).update(codes)

    def is_suppressed(self, line: int, code: str) -> bool:
        codes = self._suppressed.get(line)
        if not codes:
            return False
        return code in codes or any(code.startswith(c) for c in codes)

    def endswith(self, *suffixes: str) -> bool:
        """Path-aware suffix test: ``m.endswith("runtime/mailbox.py")``."""
        return any(self.rel.endswith(suffix) for suffix in suffixes)


@dataclass
class SourceTree:
    """Every module under one analysis root."""

    root: Path
    modules: list[SourceModule] = field(default_factory=list)

    def find(self, suffix: str) -> SourceModule | None:
        """The unique module whose path ends with ``suffix`` (if any)."""
        for module in self.modules:
            if module.endswith(suffix):
                return module
        return None

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules)


Checker = Callable[[SourceTree], Iterable[Finding]]

#: code prefix -> (one-line description, checker).  Populated by the
#: checker modules at import time via :func:`register`.
CHECKS: dict[str, tuple[str, Checker]] = {}


def register(prefix: str, description: str) -> Callable[[Checker], Checker]:
    """Class decorator/registrar: ``@register("DET", "...")``."""

    def installer(checker: Checker) -> Checker:
        CHECKS[prefix] = (description, checker)
        return checker

    return installer


def load_tree(root: Path) -> SourceTree:
    """Parse every ``.py`` file under ``root`` into a :class:`SourceTree`.

    ``root`` may also be a single file.  Relative paths inside the tree
    are POSIX-style and rooted at ``root``'s parent, so repo-layout
    rules (``runtime/mailbox.py``) match wherever the tree lives.
    """
    root = Path(root)
    tree = SourceTree(root)
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    for path in files:
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root.parent if root.is_file() else root)
        tree.modules.append(
            SourceModule(path, rel.as_posix(), path.read_text())
        )
    return tree


def framework_findings(tree: SourceTree) -> Iterator[Finding]:
    """The meta-findings: unparsable files, unjustified suppressions."""
    for module in tree:
        if module.syntax_error is not None:
            yield Finding(
                ANA002,
                module.rel,
                module.syntax_error.lineno or 1,
                f"file does not parse: {module.syntax_error.msg}",
            )
        for suppression in module.suppressions:
            if not suppression.justified:
                yield Finding(
                    ANA001,
                    module.rel,
                    suppression.line,
                    "suppression without a justification -- write "
                    "'# repro: noqa[CODE] -- reason' (the bare form "
                    "suppresses nothing)",
                )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def call_name(node: ast.expr) -> str | None:
    """The called name of a ``Call`` func: ``foo`` or trailing ``.foo``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """child -> parent for every node under ``tree``."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def dataclass_classes(module: SourceModule) -> list[ast.ClassDef]:
    """Top-level classes decorated with ``@dataclass`` (any spelling)."""
    if module.tree is None:
        return []
    found = []
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and any(
            call_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
            for d in node.decorator_list
        ):
            found.append(node)
    return found

