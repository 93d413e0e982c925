"""Façade re-entrancy: the session command lock.

Two guarantees, tested separately:

* **Same-thread re-entry raises.**  A stats hook (or signal handler)
  calling back into the façade mid-command would deadlock on a plain
  lock and corrupt state without one; it now raises
  :class:`ConcurrentSessionError` immediately.
* **Cross-thread callers serialise.**  Two threads driving interleaved
  ingest/query/retract never interleave *inside* a command; the final
  store is byte-identical to replaying the commands serially in the
  order the lock admitted them (recorded by ``session.command_trace``).
"""

import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster, ClusterConfig, ConcurrentSessionError
from repro.graph.labelled import LabelledGraph
from repro.stream.events import EdgeArrival, VertexArrival

CONFIG = ClusterConfig(partitions=3, method="ldg", seed=7, batch_size=4)


def _label(vertex: int) -> str:
    return "a" if vertex % 2 == 0 else "b"


def _chain_events(vertices):
    """One op's stream: a fresh chain over ``vertices`` (no edges into
    older vertices, which a concurrent retract might have removed)."""
    events = [
        VertexArrival(v, _label(v), t) for t, v in enumerate(vertices)
    ]
    events.extend(
        EdgeArrival(u, v, len(vertices) + t)
        for t, (u, v) in enumerate(zip(vertices, vertices[1:]))
    )
    return events


def _pattern() -> LabelledGraph:
    graph = LabelledGraph()
    graph.add_vertex(0, "a")
    graph.add_vertex(1, "b")
    graph.add_edge(0, 1)
    return graph


def _seeded_session():
    """A session with enough resident state that queries are always
    legal, whatever the two threads have done so far."""
    session = Cluster.open(CONFIG)
    session.ingest(_chain_events(list(range(5000, 5008))))
    return session


class TestSameThreadReentry:
    def test_stats_hook_calling_query_raises(self):
        session = _seeded_session()
        caught: list[ConcurrentSessionError] = []

        def hook(stats):
            if caught:
                return
            try:
                session.query(_pattern())
            except ConcurrentSessionError as error:
                caught.append(error)

        session.ingest(_chain_events(list(range(10, 20))), stats_hooks=(hook,))
        assert caught, "re-entrant query inside ingest did not raise"
        assert "'query'" in str(caught[0])
        assert "'ingest'" in str(caught[0])
        # The lock was released on the way out: the façade still works.
        assert session.query(_pattern()).matches >= 0

    def test_reentry_propagates_and_releases_the_lock(self):
        session = _seeded_session()

        def hook(stats):
            session.stats()

        with pytest.raises(ConcurrentSessionError):
            session.ingest(
                _chain_events(list(range(30, 40))), stats_hooks=(hook,)
            )
        # Not poisoned: the next command acquires the lock normally.
        session.ingest(_chain_events(list(range(50, 54))))

    def test_close_is_exempt(self):
        """``close()`` must stay callable mid-command: it takes no command
        lock, so a stats hook or a signal handler may call it anywhere."""
        session = _seeded_session()

        def hook(stats):
            session.close()

        session.ingest(_chain_events(list(range(60, 64))), stats_hooks=(hook,))
        session.close()  # idempotent


@st.composite
def _programs(draw):
    """Two per-thread op lists over disjoint vertex namespaces; each
    retract targets a vertex its own thread ingested earlier, so every
    serialisation of the two programs is individually legal."""
    programs = []
    for thread in range(2):
        next_vertex = 1000 * (thread + 1)
        live: list[int] = []
        ops: list[tuple] = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            kind = draw(st.sampled_from(("ingest", "query", "retract")))
            if kind == "ingest":
                size = draw(st.integers(min_value=1, max_value=4))
                vertices = list(range(next_vertex, next_vertex + size))
                next_vertex += size
                live.extend(vertices)
                ops.append(("ingest", vertices))
            elif kind == "retract" and live:
                victim = draw(st.sampled_from(live))
                live.remove(victim)
                ops.append(("retract", victim))
            else:
                ops.append(("query", None))
        programs.append(ops)
    return programs


def _apply(session, op):
    kind, arg = op[0], op[1] if len(op) > 1 else None
    if kind == "ingest":
        session.ingest(_chain_events(arg))
    elif kind == "retract":
        session.retract(vertices=(arg,))
    else:
        session.query(_pattern())


class TestCrossThreadSerialisation:
    @settings(max_examples=8, deadline=None)
    @given(programs=_programs())
    def test_interleaved_threads_equal_the_serialised_order(self, programs):
        session = _seeded_session()
        session.command_trace = []
        idents: dict[int, int] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def run(index: int, ops) -> None:
            idents[threading.get_ident()] = index
            barrier.wait()
            try:
                for op in ops:
                    _apply(session, op)
            except BaseException as error:  # noqa: BLE001 - reraised
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(index, ops))
            for index, ops in enumerate(programs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        trace = session.command_trace
        assert len(trace) == sum(len(ops) for ops in programs)

        # Replay the admitted order serially on a fresh session.
        replay = _seeded_session()
        queues = [deque(ops) for ops in programs]
        for name, ident in trace:
            op = queues[idents[ident]].popleft()
            assert op[0] == name
            _apply(replay, op)
        assert all(not queue for queue in queues)
        assert replay.store.export_columns() == session.store.export_columns()
        session.close()
        replay.close()
