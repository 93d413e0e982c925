"""Number-theoretic graph signatures (Song et al, VLDB'15).

Section 4.3 of the paper adopts Song et al's signature mechanism for
graph-stream pattern matching: every labelled graph gets a large integer
whose prime factorisation encodes its labelled vertices, degrees and edges.
Two properties make the scheme useful to LOOM:

* **subgraph divisibility** -- if ``S`` is a sub-graph of ``S'`` then
  ``sig(S)`` divides ``sig(S')``; contrapositive: a sub-graph whose
  signature is not divisible by a motif's signature cannot contain that
  motif (sound pruning),
* **incrementality** -- the signature of ``S + e`` is ``sig(S)`` times the
  factor of the new edge (and of the new endpoint, if any), so stream
  updates cost one big-int multiply.

Equality of signatures is a *non-authoritative* isomorphism check: it can
collide for distinct graphs, with very low probability (measured in
experiment E7 against the exact forms of :mod:`repro.graph.canonical`).
"""

from repro.signatures.primes import PrimeAssigner, primes
from repro.signatures.signature import SignatureScheme

__all__ = ["PrimeAssigner", "primes", "SignatureScheme"]
