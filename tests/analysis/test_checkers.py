"""The fixture corpus: every seeded violation fires, nothing else does.

The fixture tree under ``fixtures/violations`` marks each line that must
produce a finding with ``# anl: CODE[,CODE2]``.  The contract asserted
here is exact and two-sided: the analyzer reports precisely the marked
(path, line, code) triples -- a missed marker is a false negative, an
unmarked finding is a false positive.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, load_tree
from repro.analysis.base import framework_findings

FIXTURES = Path(__file__).parent / "fixtures" / "violations"

#: ``# anl: DET001,DET002`` -- the expected-finding marker.
_MARKER = re.compile(r"#\s*anl:\s*(?P<codes>[A-Z0-9,]+)")


def expected_triples() -> set[tuple[str, int, str]]:
    expected: set[tuple[str, int, str]] = set()
    for path in sorted(FIXTURES.rglob("*.py")):
        rel = path.relative_to(FIXTURES).as_posix()
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            match = _MARKER.search(line)
            if match is None:
                continue
            for code in match.group("codes").split(","):
                expected.add((rel, lineno, code))
    return expected


def actual_triples() -> set[tuple[str, int, str]]:
    return {
        (finding.path, finding.line, finding.code)
        for finding in analyze_paths([FIXTURES])
    }


def test_corpus_matches_markers_exactly():
    expected = expected_triples()
    actual = actual_triples()
    assert expected, "fixture corpus has no markers -- corpus is broken"
    missed = expected - actual
    surplus = actual - expected
    assert not missed, f"seeded violations not reported: {sorted(missed)}"
    assert not surplus, f"unmarked findings (false positives): {sorted(surplus)}"


def test_every_checker_is_demonstrated():
    prefixes = {code.rstrip("0123456789") for _, _, code in actual_triples()}
    assert {"DET", "PROT", "RES", "WAL", "ANA"} <= prefixes


def test_select_narrows_to_one_checker():
    codes = {f.code for f in analyze_paths([FIXTURES], select="DET")}
    # Framework findings (ANA*) always run; only DET findings otherwise.
    assert codes == {"DET001", "DET002", "DET003", "ANA001"}


def test_select_accepts_full_codes():
    codes = {f.code for f in analyze_paths([FIXTURES], select="WAL001")}
    assert "WAL001" in codes and "DET001" not in codes


def test_justified_suppression_is_honoured():
    # badnoqa.py line 6 carries a justified noqa[DET002]; line 5's bare
    # noqa suppresses nothing.
    lines = {f.line for f in analyze_paths([FIXTURES]) if f.path == "badnoqa.py"}
    assert lines == {5}


def test_findings_are_sorted_and_unique():
    findings = analyze_paths([FIXTURES])
    keys = [(f.path, f.line, f.code) for f in findings]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_finding_as_dict_shape():
    finding = analyze_paths([FIXTURES])[0]
    payload = finding.as_dict()
    assert set(payload) == {"code", "path", "line", "message"}
    assert isinstance(payload["line"], int)


def test_unparsable_file_is_ana002(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n    pass\n")
    tree = load_tree(tmp_path)
    findings = list(framework_findings(tree))
    assert [f.code for f in findings] == ["ANA002"]
    assert findings[0].path == "broken.py"


def test_unknown_select_raises():
    from repro.analysis import UnknownCheckError

    with pytest.raises(UnknownCheckError):
        analyze_paths([FIXTURES], select="NOPE")
