"""PROT: mailbox protocol conformance.

The runtime's coordinator and workers speak the frozen-dataclass message
vocabulary of ``runtime/mailbox.py`` over pickled pipes.  The protocol
has no schema registry at runtime -- conformance is enforced here, at
lint time, by cross-reading the modules:

``PROT001``
    A message dataclass in ``mailbox.py`` that neither the worker
    (``runtime/worker.py``) nor the coordinator (``runtime/pool.py``)
    ever references: dead protocol surface (or a handler someone forgot
    to write).
``PROT002``
    A message dataclass not declared ``frozen=True, slots=True``.
    Frozen keeps messages hashable/value-like; slots keeps their pickled
    form closed (a stray attribute silently widening the wire format is
    exactly the drift this protocol cannot detect at runtime).
``PROT004``
    A request message the coordinator constructs (a direct dataclass
    call in ``pool.py``) with no ``isinstance`` dispatch branch in
    ``worker.py``: the worker would answer it with the unknown-message
    ``ErrorResponse`` at runtime, and every send of it would read as a
    crash.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import (
    SourceModule,
    SourceTree,
    dataclass_classes,
    register,
)
from repro.analysis.findings import Finding

MAILBOX = "runtime/mailbox.py"
WORKER = "runtime/worker.py"
POOL = "runtime/pool.py"


def _referenced_names(module: SourceModule) -> set[str]:
    names: set[str] = set()
    if module.tree is None:
        return names
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _constructed_names(module: SourceModule) -> dict[str, int]:
    """name -> first line of every direct ``Name(...)`` construction."""
    constructed: dict[str, int] = {}
    if module.tree is None:
        return constructed
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            constructed.setdefault(node.func.id, node.lineno)
    return constructed


def _isinstance_targets(module: SourceModule) -> set[str]:
    """Class names appearing as the second argument of ``isinstance``."""
    targets: set[str] = set()
    if module.tree is None:
        return targets
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            classinfo = node.args[1]
            candidates = (
                classinfo.elts
                if isinstance(classinfo, ast.Tuple)
                else [classinfo]
            )
            for candidate in candidates:
                if isinstance(candidate, ast.Name):
                    targets.add(candidate.id)
    return targets


def _dataclass_options(cls: ast.ClassDef) -> dict[str, bool]:
    options: dict[str, bool] = {}
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if isinstance(keyword.value, ast.Constant):
                    options[keyword.arg or ""] = bool(keyword.value.value)
    return options


@register("PROT", "mailbox protocol conformance: orphan messages, "
                  "unsafe declarations, undispatched requests")
def check_protocol(tree: SourceTree) -> Iterator[Finding]:
    mailbox = tree.find(MAILBOX)
    if mailbox is None or mailbox.tree is None:
        return
    worker = tree.find(WORKER)
    pool = tree.find(POOL)
    messages = dataclass_classes(mailbox)
    message_names = {cls.name for cls in messages}

    peer_references: set[str] = set()
    for peer in (worker, pool):
        if peer is not None:
            peer_references |= _referenced_names(peer)

    for cls in messages:
        if cls.name not in peer_references and not mailbox.is_suppressed(
            cls.lineno, "PROT001"
        ):
            yield Finding(
                "PROT001",
                mailbox.rel,
                cls.lineno,
                f"message dataclass {cls.name!r} is referenced by neither "
                f"{WORKER} nor {POOL}: dead protocol surface or a missing "
                "handler",
            )
        options = _dataclass_options(cls)
        if not (options.get("frozen") and options.get("slots")):
            if not mailbox.is_suppressed(cls.lineno, "PROT002"):
                yield Finding(
                    "PROT002",
                    mailbox.rel,
                    cls.lineno,
                    f"message dataclass {cls.name!r} must be declared "
                    "frozen=True, slots=True: slotted frozen messages "
                    "keep the pickled wire format closed and value-like",
                )

    if pool is not None and worker is not None:
        dispatched = _isinstance_targets(worker)
        for name, line in sorted(_constructed_names(pool).items()):
            if name in message_names and name not in dispatched:
                if not pool.is_suppressed(line, "PROT004"):
                    yield Finding(
                        "PROT004",
                        pool.rel,
                        line,
                        f"coordinator constructs request message {name!r} "
                        f"but {WORKER} has no isinstance dispatch branch "
                        "for it; the worker would answer with the "
                        "unknown-message ErrorResponse",
                    )
