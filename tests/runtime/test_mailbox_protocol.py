"""The mailbox vocabulary is closed, value-like and fully spoken.

Every message dataclass in ``repro.runtime.mailbox`` must be frozen
(value-like, hashable) and slotted (its pickled form cannot widen with a
stray attribute), and at least one peer -- the worker or the pool -- must
bind it; ruff's F401 keeps a bound name a used one.  A request the pool
sends without a worker branch needs no rule: the worker answers it with
its unknown-message ``ErrorResponse``, which fails every pool test that
sends it.
"""

import dataclasses

import repro.runtime.mailbox as mailbox
import repro.runtime.pool as pool
import repro.runtime.worker as worker

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
