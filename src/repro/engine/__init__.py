"""The partitioning engine layer.

Everything the rest of the library needs to *run* a partitioner lives
here:

* :mod:`repro.engine.registry` -- the one method table every streaming
  and offline partitioner is listed in, with capability metadata
  (streaming vs offline, needs-workload) for uniform discovery by the
  session façade and the CLI;
* :mod:`repro.engine.pipeline` -- the batched :class:`StreamingEngine`
  that drives any streaming partitioner with one ``process_batch`` call
  per batch and per-batch stats hooks, plus the
  :class:`VertexStreamAdapter` lifting classic one-pass heuristics into
  the engine protocol.
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
