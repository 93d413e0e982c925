"""The real ``src/repro`` tree must analyze clean.

This is the same gate CI runs: a finding anywhere in the package is a
regression against the invariants the checkers encode (or a new rule
that needs a justified ``# repro: noqa`` at its one sanctioned site).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import CHECKS, analyze_paths, default_root, render_text

SRC = Path(__file__).parents[2] / "src" / "repro"


def test_repo_tree_is_clean():
    findings = analyze_paths([SRC])
    assert findings == [], "\n" + render_text(findings)


def test_default_root_is_the_installed_package():
    root = default_root()
    assert root.name == "repro"
    assert (root / "analysis").is_dir()


def test_registered_checker_families():
    assert set(CHECKS) == {"DET", "PROT", "RES", "WAL"}
    for prefix, (description, checker) in CHECKS.items():
        assert description and callable(checker), prefix


def test_every_checker_runs_on_the_real_tree_individually():
    # Selecting one checker at a time must also be clean -- guards
    # against a checker that only passes because another one's module
    # ordering masks it.
    for prefix in CHECKS:
        assert analyze_paths([SRC], select=prefix) == [], prefix
