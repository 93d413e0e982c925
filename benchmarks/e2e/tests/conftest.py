"""Self-tests of the benchmark harness (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent.parent
for entry in (str(REPO_ROOT / "src"), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
