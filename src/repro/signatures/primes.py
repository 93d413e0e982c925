"""Deterministic prime pools for signature factors.

Signatures multiply per-label and per-label-pair prime factors; soundness of
the divisibility test requires only that *distinct keys get distinct
primes*.  :class:`PrimeAssigner` hands out primes on first use of a key, so
the mapping depends only on the order keys are first seen -- which our
callers make deterministic (labels are assigned in sorted order when a
scheme is frozen to a workload).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator


def primes() -> Iterator[int]:
    """Infinite ascending prime generator (incremental trial division).

    Trial division by the primes found so far is ample for our use: a
    signature scheme needs one prime per label plus one per label pair,
    dozens at most.
    """
    found: list[int] = []
    candidate = 2
    while True:
        is_prime = True
        for p in found:
            if p * p > candidate:
                break
            if candidate % p == 0:
                is_prime = False
                break
        if is_prime:
            found.append(candidate)
            yield candidate
        candidate += 1 if candidate == 2 else 2


class PrimeAssigner:
    """Stable key -> prime mapping, assigning the next free prime on demand.

    ``stride`` and ``offset`` let several assigners share one global prime
    sequence without overlap (e.g. vertex factors take even-indexed primes,
    edge factors odd-indexed ones), so a vertex factor can never equal an
    edge factor.
    """

    def __init__(self, *, stride: int = 1, offset: int = 0) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if not 0 <= offset < stride:
            raise ValueError("offset must lie in [0, stride)")
        self._assigned: dict[Hashable, int] = {}
        self._source = primes()
        self._stride = stride
        self._position = 0
        self._offset = offset

    def _next_prime(self) -> int:
        while True:
            prime = next(self._source)
            position = self._position
            self._position += 1
            if position % self._stride == self._offset:
                return prime

    def factor(self, key: Hashable) -> int:
        """The prime assigned to ``key`` (allocating one on first use)."""
        prime = self._assigned.get(key)
        if prime is None:
            prime = self._next_prime()
            self._assigned[key] = prime
        return prime

    def mapping(self) -> dict[Hashable, int]:
        """Snapshot of all assignments made so far."""
        return dict(self._assigned)

    def __len__(self) -> int:
        return len(self._assigned)
