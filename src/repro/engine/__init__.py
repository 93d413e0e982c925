"""The partitioning engine layer.

Everything the rest of the library needs to *run* a partitioner lives
here, above every method it runs (``partitioning``, ``core``, and the
``cluster`` executor that ``offline_wa`` profiles with); nothing below
imports it:

* :mod:`repro.engine.registry` -- the one method table every streaming
  and offline partitioner is listed in, with capability metadata
  (streaming vs offline, needs-workload) for uniform discovery by the
  session façade and the CLI, and the one place a
  :class:`PartitionRequest` becomes a partitioner;
* :mod:`repro.engine.pipeline` -- the batched :class:`StreamingEngine`
  that drives any streaming partitioner with one ``process_batch`` call
  per batch and per-batch stats hooks, plus the
  :class:`VertexStreamAdapter` lifting classic one-pass heuristics into
  the engine protocol;
* :mod:`repro.engine.workload_offline` -- the ``offline_wa`` skyline:
  profile the workload on a store, weight the edges, partition offline.
"""

from repro.engine.pipeline import (
    DEFAULT_BATCH_SIZE,
    BatchStats,
    EngineStats,
    StreamingEngine,
    StreamPartitioner,
    VertexStreamAdapter,
    as_stream_partitioner,
)
from repro.engine.registry import (
    OFFLINE,
    STREAMING,
    PartitionRequest,
    PartitionerRegistry,
    PartitionerSpec,
    UnknownPartitionerError,
    default_registry,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchStats",
    "EngineStats",
    "StreamingEngine",
    "StreamPartitioner",
    "VertexStreamAdapter",
    "as_stream_partitioner",
    "OFFLINE",
    "STREAMING",
    "PartitionRequest",
    "PartitionerRegistry",
    "PartitionerSpec",
    "UnknownPartitionerError",
    "default_registry",
]
