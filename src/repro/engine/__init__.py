"""The unified partitioning engine layer.

Everything the rest of the library needs to *run* a partitioner lives
here, behind two seams:

* :mod:`repro.engine.registry` -- the :class:`PartitionerRegistry` all
  streaming and offline partitioners self-register into, with capability
  metadata (streaming vs offline, needs-workload) for uniform discovery
  by the session façade and the CLI;
* :mod:`repro.engine.pipeline` -- the batched :class:`StreamingEngine`
  that drives any registered streaming partitioner over event batches
  with per-batch stats hooks, plus the :class:`VertexStreamAdapter`
  lifting classic one-pass heuristics into the engine protocol.

Later scaling work (sharded stores, async executors, multi-backend
dispatch) plugs into these seams rather than into individual
partitioners.
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
