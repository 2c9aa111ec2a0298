"""Checkpoint storage: serialization, backends, resilience, and the store.

A pickle-free binary container format (JSON manifest + raw array blobs,
CRC-framed), pluggable backends (in-memory, local disk, bandwidth-
throttled, fault-injecting), a resilience layer (retry/backoff, circuit
breaker, tiered fallback), and a :class:`CheckpointStore` managing
full/differential checkpoint series with checksummed manifests, retention,
garbage collection and corruption quarantine.
"""

from repro.utils.exports import exports

exports(globals(), {
    ".serializer": "CorruptCheckpointError pack_tree pack_tree_into "
                   "pack_tree_into_view pack_tree_parts pack_tree_with_crc "
                   "unpack_tree",
    ".backends": "StorageBackend InMemoryBackend LocalDiskBackend "
                 "ThrottledBackend FlakyBackend ChaosBackend PrefixBackend "
                 "backend_from_spec",
    ".resilience": "CircuitBreaker CircuitOpenError ResilientBackend "
                   "RetryPolicy TieredBackend VirtualClock "
                   "collect_resilience_stats",
    ".payload_codec": "LosslessCodec PayloadCodec UnknownCodecError get_codec "
                      "make_codec",
    ".checkpoint_store": "CheckpointStore FullCheckpointRecord "
                         "DiffCheckpointRecord",
    ".compaction": "ChainCompactor CompactionReport RetentionPolicy",
    ".persist_engine": "DrainTimeout PendingWrite WriteAborted",
    ".async_engine": "AsyncCheckpointEngine",
    ".mp_engine": "MultiprocessCheckpointEngine ShmRing WorkerCrashed",
    ".sharded": "ShardLayout ShardedCheckpointStore ShardedDiffView "
                "ShardedFullView ShardedPersistGroup elastic_restore "
                "open_persist_engine",
})
