"""Deterministic fault injection for the worker pool.

Crash handling that is only ever exercised by real crashes is crash
handling that has never been tested.  A :class:`FaultPlan` scripts the
failures instead: each :class:`WorkerFault` names a worker, a fault
kind, and the mailbox message at which it fires, so a test can arrange
"worker 1 dies on its second request" and assert the exact degradation
path -- retry, respawn, serial fallback -- that the session takes.

Faults are *generation scoped*.  The session numbers every pool it
spawns (0, 1, 2, ...) and a fault only arms inside the pool of its own
generation, so a respawned pool does not re-trip the fault that killed
its predecessor -- which is what makes every scripted fault recoverable
by the bounded retry policy.

The plan travels into the worker process with the spawn arguments
(plain frozen dataclasses, picklable under every start method) and
costs nothing when absent: ``worker_main`` receives an empty tuple and
the message loop never looks at it.

Fault kinds:

========== ===========================================================
kind       behaviour in the worker process
========== ===========================================================
kill       ``os._exit`` hard-kill when the Nth request arrives -- the
           parent sees a dead pipe mid round trip (SIGKILL stand-in)
hang       sleep through ``delay`` (default far past any timeout)
           *before* replying -- the parent's ``request_timeout`` fires
           and the late reply lands in a closed pipe
corrupt    reply with an out-of-protocol payload instead of the
           response -- the parent treats it as a crashed worker
slow       sleep ``delay`` then answer *normally* -- recoverable
           latency, not a failure, provided the timeout is generous
boot       boot-time failure: exit before the ``Hello`` handshake (a
           failed restore stand-in)
stall      sleep through ``delay`` (default far past any timeout)
           *before* the first pipe read -- an import that never
           returns; the pool's ``Ready`` wait times out and names it
========== ===========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configbase import ConfigBase

FAULT_KINDS = ("kill", "hang", "corrupt", "slow", "boot", "stall")

#: Kinds that fire while the worker boots, not at a request.
BOOT_KINDS = ("boot", "stall")

#: Default hang and stall duration: far beyond any sane timeout, short
#: enough that ``pool.close()``'s terminate path reaps the sleeper.
HANG_SECONDS = 3600.0


@dataclass(frozen=True, slots=True)
class WorkerFault(ConfigBase):
    """One scripted failure: ``worker_id`` misbehaves (per ``kind``)
    when its ``at_message``-th mailbox request arrives, but only in the
    pool of generation ``generation``."""

    worker_id: int
    kind: str
    at_message: int = 1
    delay: float = 0.0
    generation: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind {self.kind!r} is not one of {FAULT_KINDS}"
            )
        if self.worker_id < 0:
            raise ValueError("fault worker_id must be >= 0")
        if self.at_message < 1:
            raise ValueError("fault at_message must be >= 1")
        if self.delay < 0:
            raise ValueError("fault delay must be >= 0")
        if self.generation < 0:
            raise ValueError("fault generation must be >= 0")


@dataclass(frozen=True, slots=True)
class FaultPlan(ConfigBase):
    """An immutable script of :class:`WorkerFault` entries.

    The session hands :meth:`for_worker` selections to each spawned
    worker; an empty selection (the overwhelmingly common case) adds
    zero work to the message loop.
    """

    faults: tuple[WorkerFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        faults = tuple(
            WorkerFault.from_dict(fault) if isinstance(fault, dict) else fault
            for fault in self.faults
        )
        for fault in faults:
            if not isinstance(fault, WorkerFault):
                raise ValueError(
                    f"fault plan entries must be WorkerFault, got "
                    f"{type(fault).__name__}"
                )
        object.__setattr__(self, "faults", faults)

    def for_worker(
        self, worker_id: int, generation: int
    ) -> tuple[WorkerFault, ...]:
        """The faults armed for one worker of one pool generation."""
        return tuple(
            fault
            for fault in self.faults
            if fault.worker_id == worker_id
            and fault.generation == generation
        )

    def __bool__(self) -> bool:
        return bool(self.faults)
