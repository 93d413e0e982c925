"""Suite-wide fixtures."""

import os
import subprocess
import sys

import pytest

from repro.bench.experiments import run_experiment


class _Seed0Fast(dict):
    def __missing__(self, experiment_id):
        tables = self[experiment_id] = run_experiment(
            experiment_id, seed=0, fast=True
        )
        return tables


@pytest.fixture(scope="session")
def seed0_fast():
    """``{id: tables}`` at ``seed=0, fast=True``, each experiment run once
    per test session (schema, shape and catalogue tests share the run)."""
    return _Seed0Fast()


@pytest.fixture
def run_python():
    """Run a snippet in a fresh interpreter on the same import path
    (extra keyword arguments are environment variables); returns stdout."""

    def run(code, **env):
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env},
        ).stdout

    return run


class _OpensAFile:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return open, (self.path, "w")


@pytest.fixture
def hostile_object(tmp_path):
    """``(object, marker)``: unpickling the object with globals resolved
    creates the file ``marker`` -- what a tampered ``wal_dir`` plants."""
    marker = tmp_path / "marker"
    return _OpensAFile(str(marker)), marker
