"""Checkpoint storage: serialization, backends, resilience, and the store.

A pickle-free binary container format (JSON manifest + raw array blobs,
CRC-framed), pluggable backends (in-memory, local disk, bandwidth-
throttled, fault-injecting), a resilience layer (retry/backoff, circuit
breaker, tiered fallback), and a :class:`CheckpointStore` managing
full/differential checkpoint series with checksummed manifests, retention,
garbage collection and corruption quarantine.
"""

from repro.storage.serializer import (
    CorruptCheckpointError,
    pack_tree,
    pack_tree_into,
    pack_tree_into_view,
    pack_tree_with_crc,
    unpack_tree,
)
from repro.storage.backends import (
    StorageBackend,
    InMemoryBackend,
    LocalDiskBackend,
    ThrottledBackend,
    FlakyBackend,
    ChaosBackend,
    PrefixBackend,
    backend_from_spec,
)
from repro.storage.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    ResilientBackend,
    RetryPolicy,
    TieredBackend,
    VirtualClock,
    collect_resilience_stats,
)
from repro.storage.payload_codec import (
    LosslessCodec,
    PayloadCodec,
    UnknownCodecError,
    get_codec,
    make_codec,
)
from repro.storage.checkpoint_store import (
    CheckpointStore,
    FullCheckpointRecord,
    DiffCheckpointRecord,
)
from repro.storage.compaction import (
    ChainCompactor,
    CompactionReport,
    RetentionPolicy,
)
from repro.storage.persist_engine import (
    DrainTimeout,
    PendingWrite,
    WriteAborted,
)
from repro.storage.async_engine import (
    AsyncCheckpointEngine,
    BufferPool,
)
from repro.storage.mp_engine import (
    MultiprocessCheckpointEngine,
    ShmRing,
    WorkerCrashed,
)
from repro.storage.sharded import (
    ShardLayout,
    ShardedCheckpointStore,
    ShardedDiffView,
    ShardedFullView,
    ShardedPersistGroup,
    elastic_restore,
    open_persist_engine,
)

__all__ = [
    "CorruptCheckpointError",
    "pack_tree",
    "pack_tree_into",
    "pack_tree_with_crc",
    "unpack_tree",
    "StorageBackend",
    "InMemoryBackend",
    "LocalDiskBackend",
    "ThrottledBackend",
    "FlakyBackend",
    "ChaosBackend",
    "CircuitBreaker",
    "CircuitOpenError",
    "ResilientBackend",
    "RetryPolicy",
    "TieredBackend",
    "VirtualClock",
    "collect_resilience_stats",
    "LosslessCodec",
    "PayloadCodec",
    "UnknownCodecError",
    "get_codec",
    "make_codec",
    "CheckpointStore",
    "FullCheckpointRecord",
    "DiffCheckpointRecord",
    "ChainCompactor",
    "CompactionReport",
    "RetentionPolicy",
    "AsyncCheckpointEngine",
    "DrainTimeout",
    "BufferPool",
    "PendingWrite",
    "WriteAborted",
    "MultiprocessCheckpointEngine",
    "ShmRing",
    "WorkerCrashed",
    "backend_from_spec",
    "pack_tree_into_view",
    "PrefixBackend",
    "ShardLayout",
    "ShardedCheckpointStore",
    "ShardedDiffView",
    "ShardedFullView",
    "ShardedPersistGroup",
    "elastic_restore",
    "open_persist_engine",
]
