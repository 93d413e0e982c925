"""The mailbox vocabulary is closed, value-like and fully spoken.

Every message dataclass in ``repro.runtime.mailbox`` must be frozen
(value-like, hashable) and slotted (its pickled form cannot widen with a
stray attribute), and at least one peer -- the worker or the pool -- must
bind it; ruff's F401 keeps a bound name a used one.  A request the pool
sends without a worker branch needs no rule: the worker answers it with
its unknown-message ``ErrorResponse``, which fails every pool test that
sends it.  A payload rebuilds its query once per distinct value, and
the rebuilt queries it keeps are bounded.
"""

import dataclasses

import repro.runtime.mailbox as mailbox
import repro.runtime.pool as pool
import repro.runtime.worker as worker
import repro.workload.query as query_module
from repro.graph import LabelledGraph
from repro.runtime.mailbox import QueryPayload
from repro.workload import PatternQuery

MESSAGES = [
    value for value in vars(mailbox).values()
    if isinstance(value, type)
    and dataclasses.is_dataclass(value)
    and value.__module__ == mailbox.__name__
]


def test_every_message_is_frozen_slotted_and_bound_by_a_peer():
    assert len(MESSAGES) >= 10
    unfrozen = [m.__name__ for m in MESSAGES if not m.__dataclass_params__.frozen]
    unslotted = [m.__name__ for m in MESSAGES if "__slots__" not in vars(m)]
    orphans = [
        m.__name__ for m in MESSAGES
        if not any(vars(peer).get(m.__name__) is m for peer in (worker, pool))
    ]
    assert (unfrozen, unslotted, orphans) == ([], [], [])


def test_equal_payloads_rebuild_their_query_once(monkeypatch):
    """A served pattern arrives as a fresh payload on every request;
    equal payloads share one rebuilt query, so its plan is derived once,
    while a payload differing only by name gets a query of its own."""
    mailbox._rebuild.cache_clear()
    orders = []
    derive = query_module.search_order
    monkeypatch.setattr(
        query_module, "search_order", lambda graph: orders.append(graph) or derive(graph)
    )
    payload = QueryPayload.from_query(PatternQuery("wedge", LabelledGraph.path("aba")))
    first = payload.to_query()
    again = dataclasses.replace(payload).to_query()
    assert again is first
    assert first.plan is again.plan
    assert len(orders) == 1
    renamed = dataclasses.replace(payload, name="wedge2").to_query()
    assert renamed is not first
    assert (renamed.name, renamed.plan) == ("wedge2", first.plan)


def test_the_rebuilt_query_cache_stays_bounded():
    mailbox._rebuild.cache_clear()
    vertices = ((0, "a"),)
    for i in range(10 * mailbox.QUERY_CACHE_SIZE):
        QueryPayload(f"q{i}", vertices, ()).to_query()
    assert mailbox._rebuild.cache_info().currsize == mailbox.QUERY_CACHE_SIZE
