"""``python -m repro.obs`` prints the catalogue table and nothing else."""

import os
import subprocess
import sys

from repro.obs import catalog_table


def test_module_entry_point_prints_the_catalogue_without_warnings():
    # ``-W error`` turns runpy's "found in sys.modules" RuntimeWarning --
    # what running a module the package already imported gives -- into
    # a non-zero exit.
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.obs"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == catalog_table() + "\n"
