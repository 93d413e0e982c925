"""Run the checkers over a tree and format the report.

The entry point the CLI (``loom-repro analyze``) and CI gate use:
:func:`analyze_paths` loads each root, runs the selected checkers and
returns sorted findings; :func:`render_text` / :func:`render_json`
format them; exit code 0 means clean, 1 means findings, 2 means a bad
``--select``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import repro

# Importing the checker modules populates the CHECKS registry.
from repro.analysis import (  # noqa: F401  (registration side effects)
    determinism,
    lifecycle,
    protocol,
    walcov,
)
from repro.analysis.base import CHECKS, framework_findings, load_tree
from repro.analysis.findings import Finding, sort_key


class UnknownCheckError(ValueError):
    """``--select`` named a check that is not registered."""


def default_root() -> Path:
    """The installed ``repro`` package tree (what CI analyzes)."""
    return Path(repro.__file__).resolve().parent


def resolve_selection(select: str | None) -> list[str]:
    """Validate a ``--select`` string into registered check prefixes."""
    if not select:
        return sorted(CHECKS)
    chosen: list[str] = []
    for raw in select.split(","):
        name = raw.strip().upper()
        if not name:
            continue
        prefix = next(
            (p for p in CHECKS if name == p or name.startswith(p)), None
        )
        if prefix is None:
            raise UnknownCheckError(
                f"unknown check {name!r}; registered: "
                f"{', '.join(sorted(CHECKS))}"
            )
        if prefix not in chosen:
            chosen.append(prefix)
    return chosen


def analyze_paths(
    paths: Sequence[str | Path] | None = None,
    *,
    select: str | None = None,
) -> list[Finding]:
    """Run the selected checkers over each root; findings sorted."""
    prefixes = resolve_selection(select)
    roots = [Path(p) for p in paths] if paths else [default_root()]
    findings: list[Finding] = []
    for root in roots:
        tree = load_tree(root)
        findings.extend(framework_findings(tree))
        for prefix in prefixes:
            _description, checker = CHECKS[prefix]
            findings.extend(checker(tree))
    return sorted(set(findings), key=sort_key)


def render_text(findings: Iterable[Finding]) -> str:
    findings = list(findings)
    if not findings:
        return "analysis clean: 0 findings"
    lines = [finding.render() for finding in findings]
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    summary = ", ".join(
        f"{code} x{count}" for code, count in sorted(counts.items())
    )
    lines.append(f"{len(findings)} finding(s): {summary}")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    findings = list(findings)
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return json.dumps(
        {
            "findings": [finding.as_dict() for finding in findings],
            "counts": dict(sorted(counts.items())),
            "checks": {
                prefix: description
                for prefix, (description, _checker) in sorted(CHECKS.items())
            },
            "clean": not findings,
        },
        indent=2,
    )
