"""Invariant-aware static analysis for the repro codebase.

``loom-repro analyze`` runs four repo-specific checkers over
``src/repro`` (or any tree handed to it):

=======  ==============================================================
prefix   invariant
=======  ==============================================================
DET      determinism: no global randomness, no wall clock in
         deterministic paths, no set-iteration order leaking into
         byte-exact encodings (the PR-2/PR-7 incident class)
PROT     mailbox protocol conformance between ``runtime/mailbox.py``,
         ``runtime/worker.py`` and ``runtime/pool.py``
RES      resource lifecycle: shm segments, WALs and worker pools are
         constructed only by their owners and always released
WAL      every ``DistributedGraphStore`` mutator announces itself to
         the journal/WAL; op tags round-trip through ``apply_op``
=======  ==============================================================

Only invariants nothing else can see are linted here.  Config dict
round-trips hold by construction (:mod:`repro.configbase`), a duplicate
or malformed metric name raises ``MetricError`` in ``build_registry()``,
a mailbox import of an undefined message is an ``ImportError``, and the
serve verb registry is matched against the daemon's handlers by
``tests/serve/test_serve_protocol.py`` -- each enforced once, exactly.

Suppression: ``# repro: noqa[CODE] -- justification`` on the finding's
line.  The justification is mandatory; a bare noqa is itself a finding
(ANA001).  See ``docs/static-analysis.md`` for the full rule catalogue.
"""

from repro.analysis.base import CHECKS, SourceModule, SourceTree, load_tree
from repro.analysis.findings import Finding
from repro.analysis.runner import (
    UnknownCheckError,
    analyze_paths,
    default_root,
    render_json,
    render_text,
    resolve_selection,
)

__all__ = [
    "CHECKS",
    "Finding",
    "SourceModule",
    "SourceTree",
    "UnknownCheckError",
    "analyze_paths",
    "default_root",
    "load_tree",
    "render_json",
    "render_text",
    "resolve_selection",
]
