"""Fixtures shared by the runtime tests."""

import multiprocessing

import pytest


@pytest.fixture()
def spawns(monkeypatch):
    """Every worker process a pool starts during the test, with the
    arguments it was started with: ``[(args, process), ...]``."""
    real_get_context = multiprocessing.get_context
    started = []

    class SpyContext:
        def __init__(self, context):
            self._context = context

        def __getattr__(self, name):
            return getattr(self._context, name)

        def Process(self, *, args, **kwargs):
            process = self._context.Process(args=args, **kwargs)
            started.append((args, process))
            return process

    monkeypatch.setattr(
        multiprocessing,
        "get_context",
        lambda method=None: SpyContext(real_get_context(method)),
    )
    return started
