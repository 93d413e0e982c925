"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so that callers can catch
everything raised deliberately by this package with a single ``except``
clause, while programming errors (``TypeError``, ``KeyError`` from misuse of
plain dicts, ...) keep their built-in types.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Structural errors on labelled graphs (unknown vertex, duplicate edge, ...)."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex id was referenced that does not exist in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} not in graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was referenced that does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) not in graph")
        self.edge = (u, v)


class PartitioningError(ReproError):
    """Errors raised by partitioners (capacity exhausted, bad configuration)."""


class CapacityExceededError(PartitioningError):
    """No partition has room for the element(s) being assigned."""


class StreamError(ReproError):
    """Errors in graph-stream construction or consumption."""


class WorkloadError(ReproError):
    """Errors in query/workload definitions (empty workload, bad frequency)."""


class SignatureError(ReproError):
    """Errors in number-theoretic signature computation."""


class ConfigurationError(ReproError, ValueError):
    """A configuration object was constructed with invalid values."""


class SessionError(ReproError):
    """A :mod:`repro.api` session command was issued in the wrong state
    (querying before ingest completed, ingesting an invalid batch,
    recovering from an incompatible directory, ...)."""


class BatchCapacityError(SessionError, CapacityExceededError):
    """An ingest batch would leave more vertices resident than an explicit
    capacity lets the partitions hold; it is rejected whole, before any
    mutation (see :func:`repro.api.ingest.count_checked`)."""


class ConcurrentSessionError(SessionError):
    """A session command was issued while another command was still
    running *on the same thread* -- re-entrant use of the façade (a
    stats hook calling back into :meth:`Session.query`, a signal handler
    issuing commands mid-ingest).  Cross-thread callers never see this:
    they serialise on the session's command lock instead."""
