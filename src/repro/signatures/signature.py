"""The signature scheme: graphs as products of prime factors.

For a labelled graph ``g`` the signature is

    sig(g) =   prod_{v in V}  p(l(v))
             * prod_{(u,v) in E}  p(l(u)) * p(l(v)) * q({l(u), l(v)})

where ``p`` assigns a prime to every vertex label and ``q`` a (disjoint)
prime to every unordered label pair.  Equivalently each vertex contributes
``p(l(v)) ** (1 + deg(v))`` -- the scheme captures "vertices, labels and
their degree, as distinct factors" exactly as the paper describes Song et
al's construction.

Key facts (property-tested in ``tests/signatures``):

* isomorphic graphs have equal signatures (the product only sees the
  multiset of labelled vertices/edges/degrees);
* if ``S`` is a sub-graph of ``S'`` then ``sig(S) | sig(S')``;
* signatures extend incrementally: one multiply per arriving element.

Collisions between non-isomorphic graphs are possible but rare; the
paper accepts the risk and experiment E7 measures the rate against
canonical forms.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import SignatureError
from repro.graph.labelled import Label, LabelledGraph
from repro.signatures.primes import PrimeAssigner

Signature = int

#: Signature of the empty graph (multiplicative identity).
EMPTY_SIGNATURE: Signature = 1


class SignatureScheme:
    """Assigns prime factors to labels and computes graph signatures.

    One scheme instance must be shared by everything that compares
    signatures (the TPSTry++, the stream matcher, the experiments): factors
    are allocated per-scheme, so signatures from different schemes are not
    comparable.

    ``include_edge_factors`` controls whether the per-label-pair primes
    ``q`` participate.  They are on by default (strictly stronger pruning);
    turning them off reproduces the degree-only variant and is used by the
    collision experiment.
    """

    def __init__(self, *, include_edge_factors: bool = True) -> None:
        self._vertex_primes = PrimeAssigner(stride=2, offset=0)
        self._edge_primes = PrimeAssigner(stride=2, offset=1)
        self.include_edge_factors = include_edge_factors

    # ------------------------------------------------------------------
    # Factors
    # ------------------------------------------------------------------
    def vertex_factor(self, label: Label) -> Signature:
        """Prime contributed by one vertex with ``label``."""
        return self._vertex_primes.factor(label)

    def edge_factor(self, label_u: Label, label_v: Label) -> Signature:
        """Factor contributed by one edge between labels ``label_u``/``label_v``.

        Includes both endpoint primes (encoding the degree increments) and,
        unless disabled, the label-pair prime.
        """
        vertex_prime = self._vertex_primes.factor
        factor = vertex_prime(label_u) * vertex_prime(label_v)
        if self.include_edge_factors:
            pair = (
                (label_u, label_v) if label_u <= label_v else (label_v, label_u)
            )
            factor *= self._edge_primes.factor(pair)
        return factor

    def register_alphabet(self, labels: Iterable[Label]) -> None:
        """Pre-assign primes to ``labels`` in sorted order.

        Freezing the alphabet up front makes factor assignment independent
        of graph iteration order, so two runs over the same workload build
        identical signatures.
        """
        for label in sorted(set(labels)):
            self.vertex_factor(label)

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    def signature_of(self, graph: LabelledGraph) -> Signature:
        """Batch signature of a whole labelled graph."""
        signature = EMPTY_SIGNATURE
        for vertex in graph.vertices():
            signature *= self.vertex_factor(graph.label(vertex))
        for u, v in graph.edges():
            signature *= self.edge_factor(graph.label(u), graph.label(v))
        return signature

    def extend_with_vertex(self, signature: Signature, label: Label) -> Signature:
        """Signature after adding an isolated vertex with ``label``."""
        return signature * self.vertex_factor(label)

    def extend_with_edge(
        self,
        signature: Signature,
        label_u: Label,
        label_v: Label,
        *,
        new_endpoint: Label | None = None,
    ) -> Signature:
        """Signature after adding one edge (and optionally its new endpoint).

        ``new_endpoint`` is the label of the endpoint that was not yet part
        of the sub-graph, if any; it must equal ``label_u`` or ``label_v``.
        """
        if new_endpoint is not None and new_endpoint not in (label_u, label_v):
            raise SignatureError(
                f"new endpoint label {new_endpoint!r} is not an endpoint of "
                f"({label_u!r}, {label_v!r})"
            )
        updated = signature * self.edge_factor(label_u, label_v)
        if new_endpoint is not None:
            updated = self.extend_with_vertex(updated, new_endpoint)
        return updated
