"""``loom-repro analyze``: exit codes and report formats."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

SRC = Path(__file__).parents[2] / "src" / "repro"
FIXTURES = Path(__file__).parent / "fixtures" / "violations"


def test_clean_tree_exits_zero(capsys):
    assert main(["analyze", str(SRC)]) == 0
    assert "analysis clean" in capsys.readouterr().out


def test_violations_exit_one_with_text_report(capsys):
    assert main(["analyze", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "WAL001" in out and "finding(s)" in out


def test_json_report_is_structured(capsys):
    assert main(["analyze", "--format", "json", str(FIXTURES)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["counts"]["DET003"] == 2
    triples = {
        (f["path"], f["line"], f["code"]) for f in payload["findings"]
    }
    assert ("runtime/pool.py", 7, "PROT004") in triples
    assert set(payload["checks"]) == {"DET", "PROT", "RES", "WAL"}


def test_json_clean_tree(capsys):
    assert main(["analyze", "--format", "json", str(SRC)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True and payload["findings"] == []


def test_select_filters_checkers(capsys):
    assert main(["analyze", "--select", "PROT", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "PROT001" in out and "WAL001" not in out


def test_unknown_check_is_usage_error(capsys):
    assert main(["analyze", "--select", "XYZ", str(SRC)]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys):
    assert main(["analyze", "/no/such/tree"]) == 2
    assert "no such path" in capsys.readouterr().err
