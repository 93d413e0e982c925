"""WAL: journal/WAL coverage of the distributed store's mutators.

Delta refresh, crash recovery and the differential test harnesses all
assume one thing about ``DistributedGraphStore``: *every* effective
mutation of shard state announces itself through ``self._mutated(...)``
(which ticks the version, journals the op, and feeds the WAL hook) or,
for the out-of-band cases, directly through ``self.wal_hook``.  A
mutator that skips both leaves worker replicas and the recovery log
silently stale -- the worst failure mode this repo has, because nothing
crashes; answers just quietly diverge.

``WAL001``
    An instance method of ``DistributedGraphStore`` that mutates shard
    state (assigns ``self.graph`` / ``self.assignment`` /
    ``self._replicas``, or calls a mutating method on them) without
    calling ``self._mutated`` or ``self.wal_hook`` anywhere in its
    body.  Constructors and the versioning plumbing itself are exempt.
``WAL002``
    Op-tag round trip: every tag emitted through ``self._mutated("x",
    ...)`` / ``self.wal_hook(("x",), ...)`` must be dispatched by
    ``apply_op`` (else delta replay and WAL recovery raise on a live
    journal), and every tag ``apply_op`` dispatches must be emitted
    somewhere (else it is dead protocol).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import SourceModule, SourceTree, register
from repro.analysis.findings import Finding

STORE = "cluster/store.py"
STORE_CLASS = "DistributedGraphStore"

#: ``self.<attr>`` attributes that hold shard state.
_STATE_ATTRS = {"graph", "assignment", "_replicas"}

#: Methods on state attributes that mutate them.
_MUTATORS = {
    "add_vertex", "add_edge", "remove_vertex", "remove_edge",
    "assign", "discard", "move", "grow_capacity",
    "pop", "clear", "setdefault", "add", "update", "remove",
}

#: Store methods exempt from WAL001: plumbing, not shard mutations.
_EXEMPT = {"__init__", "_mutated"}


def _is_self_state_attr(node: ast.expr) -> bool:
    """``self.graph`` / ``self.assignment`` / ``self._replicas``."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in _STATE_ATTRS
    )


def _method_mutates_state(method: ast.FunctionDef) -> bool:
    for node in ast.walk(method):
        # self.graph = ..., del self._replicas[...], self.assignment += ...
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets
                if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if _is_self_state_attr(target):
                    return True
        # self.graph.add_edge(...), self._replicas.pop(...),
        # self._replicas.setdefault(...).add(...)
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr not in _MUTATORS:
                continue
            receiver = node.func.value
            # Walk down chained calls: self._replicas.setdefault(...).add
            probe: ast.expr = receiver
            while isinstance(probe, ast.Call) and isinstance(
                probe.func, ast.Attribute
            ):
                probe = probe.func.value
            if _is_self_state_attr(probe) or _is_self_state_attr(receiver):
                return True
    return False


def _method_announces(method: ast.FunctionDef) -> bool:
    for node in ast.walk(method):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in {"_mutated", "wal_hook"}
            ):
                return True
    return False


def _emitted_tags(cls: ast.ClassDef) -> dict[str, int]:
    """tag -> line for every ``self._mutated("tag", ...)`` and
    ``self.wal_hook(("tag", ...), ...)`` emission."""
    tags: dict[str, int] = {}
    for node in ast.walk(cls):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            continue
        tag_expr: ast.expr | None = None
        if node.func.attr == "_mutated" and node.args:
            tag_expr = node.args[0]
        elif node.func.attr == "wal_hook" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Tuple) and first.elts:
                tag_expr = first.elts[0]
        if isinstance(tag_expr, ast.Constant) and isinstance(
            tag_expr.value, str
        ):
            tags.setdefault(tag_expr.value, node.lineno)
    return tags


def _dispatched_tags(apply_op: ast.FunctionDef) -> dict[str, int]:
    """tag -> line for every ``tag == "x"`` comparison in ``apply_op``."""
    tags: dict[str, int] = {}
    for node in ast.walk(apply_op):
        if isinstance(node, ast.Compare) and len(node.comparators) == 1:
            comparator = node.comparators[0]
            if isinstance(comparator, ast.Constant) and isinstance(
                comparator.value, str
            ):
                tags.setdefault(comparator.value, node.lineno)
    return tags


@register("WAL", "journal/WAL coverage: silent store mutators and "
                 "op-tag round trips")
def check_wal_coverage(tree: SourceTree) -> Iterator[Finding]:
    module = tree.find(STORE)
    if module is None or module.tree is None:
        return
    store = next(
        (
            node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef) and node.name == STORE_CLASS
        ),
        None,
    )
    if store is None:
        return

    apply_op: ast.FunctionDef | None = None
    for method in store.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        if method.name == "apply_op":
            apply_op = method
        if method.name in _EXEMPT:
            continue
        # Classmethods build fresh stores; they never mutate live state.
        if any(
            isinstance(d, ast.Name) and d.id in {"classmethod", "staticmethod"}
            for d in method.decorator_list
        ):
            continue
        if _method_mutates_state(method) and not _method_announces(method):
            if not module.is_suppressed(method.lineno, "WAL001"):
                yield Finding(
                    "WAL001",
                    module.rel,
                    method.lineno,
                    f"{STORE_CLASS}.{method.name} mutates shard state "
                    "without routing through self._mutated/self.wal_hook: "
                    "worker replicas and the WAL will silently go stale",
                )

    emitted = _emitted_tags(store)
    dispatched = _dispatched_tags(apply_op) if apply_op is not None else {}
    for tag, line in sorted(emitted.items()):
        if tag in dispatched:
            continue
        if not module.is_suppressed(line, "WAL002"):
            yield Finding(
                "WAL002",
                module.rel,
                line,
                f"op tag {tag!r} is emitted but apply_op never dispatches "
                "it: delta replay and WAL recovery will raise on a live "
                "journal",
            )
    for tag, line in sorted(dispatched.items()):
        if tag in emitted:
            continue
        if not module.is_suppressed(line, "WAL002"):
            yield Finding(
                "WAL002",
                module.rel,
                line,
                f"apply_op dispatches op tag {tag!r} that nothing emits: "
                "dead replay protocol (or a forgotten emission)",
            )
