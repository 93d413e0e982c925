"""Graph streams: orderings, event sources and sliding windows.

A *graph-stream* (paper section 1/3.1) is an ordering over the elements of
a dynamic growing graph.  This package provides:

* :mod:`repro.stream.events` -- the vertex/edge arrival event types;
* :mod:`repro.stream.orderings` -- the ordering taxonomy the paper
  evaluates against (random, BFS/DFS "stochastic", adversarial, natural);
* :mod:`repro.stream.sources` -- turn a static graph + ordering into an
  event stream, or generate a growing graph's stream directly;
* :mod:`repro.stream.window` -- the sliding stream window LOOM buffers
  (section 4.1: "we buffer a sliding window over a graph-stream").
"""

from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    RemovalEvent,
    StreamEvent,
    VertexArrival,
    VertexRemoval,
)
from repro.stream.orderings import (
    ORDERINGS,
    adversarial_order,
    natural_order,
    ordered_vertices,
    random_order,
    with_churn,
)
from repro.stream.sources import (
    growth_stream,
    replay,
    stream_edges,
    stream_from_graph,
)
from repro.stream.window import SlidingWindow

__all__ = [
    "EdgeArrival",
    "EdgeRemoval",
    "RemovalEvent",
    "StreamEvent",
    "VertexArrival",
    "VertexRemoval",
    "ORDERINGS",
    "adversarial_order",
    "natural_order",
    "ordered_vertices",
    "random_order",
    "with_churn",
    "growth_stream",
    "replay",
    "stream_edges",
    "stream_from_graph",
    "SlidingWindow",
]
