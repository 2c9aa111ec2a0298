"""Which public callables the traced run wraps, and how spans + public
``stats()`` become the per-layer metrics.

Layer = module name.  Spans come from the benchmark process only (training
thread, writer-pool threads, recovery pool threads); spawned persist
workers are not wrapped, so their totals are read from ``engine.stats()``
and their blob writes are counted by walking the directory.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from repro.compression.sparse import SparseGradient
from repro.compression.topk import TopKCompressor
from repro.core.batched_writer import BatchedGradientWriter
from repro.core.lowdiff import LowDiffCheckpointer
from repro.core.reusing_queue import ReusingQueue
from repro.distributed.trainer import DataParallelTrainer
from repro.optim.optimizer import Optimizer
from repro.storage import async_engine, checkpoint_store, compaction, mp_engine
from repro.storage.async_engine import AsyncCheckpointEngine
from repro.storage.backends import LocalDiskBackend
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.mp_engine import MultiprocessCheckpointEngine
from repro.storage.payload_codec import PayloadCodec
from repro.storage.sharded import ShardLayout, ShardedPersistGroup

from bench.metrics import LAYER_UNITS, mean
from bench.trace import self_times, union_s, within

PERSIST = ("setup", "train", "finalize")
RESTORE = ("restore_serial", "restore_parallel")
MB = 1e6


def install(tracer) -> None:
    """Wrap the layer boundaries.  Serializer functions are wrapped in the
    namespaces of the modules that imported them by name."""
    wrap = tracer.wrap
    first_len = lambda args, result: len(result[0])     # noqa: E731

    def step_arg(args, kwargs):
        """First argument after ``self``: a step, iteration or blob key."""
        return args[1] if len(args) > 1 else next(iter(kwargs.values()), "")

    wrap(TopKCompressor, "compress", "compression.compress")
    wrap(SparseGradient, "decompress_into", "compression.decompress")
    wrap(SparseGradient, "add", "core.recovery.merge")
    wrap(Optimizer, "step_with", "optim.step_with")
    for attr in ("model_state", "optimizer_state"):   # the full-snapshot copy
        wrap(DataParallelTrainer, attr, "distributed.trainer.state_copy")
    wrap(ReusingQueue, "put", "core.reusing_queue.put", tag_of=step_arg)
    wrap(BatchedGradientWriter, "submit", "core.batched_writer.submit",
         tag_of=step_arg)
    wrap(LowDiffCheckpointer, "attach", "core.lowdiff.attach")
    wrap(LowDiffCheckpointer, "finalize", "core.lowdiff.finalize")
    wrap(LowDiffCheckpointer, "recover", "core.recovery.recover")

    store = "storage.checkpoint_store."
    wrap(CheckpointStore, "__init__", store + "open")
    wrap(CheckpointStore, "save_diff", store + "save_diff", tag_of=step_arg)
    wrap(CheckpointStore, "save_full", store + "save_full", tag_of=step_arg)
    for attr in ("save_diff_bytes", "register_diff_blob"):
        wrap(CheckpointStore, attr, store + "commit_diff", tag_of=step_arg)
    for attr in ("save_full_bytes", "register_full_blob"):
        wrap(CheckpointStore, attr, store + "commit_full", tag_of=step_arg)
    wrap(CheckpointStore, "load_full", store + "load_full")
    wrap(CheckpointStore, "load_diff", store + "load_diff")
    wrap(CheckpointStore, "read_raw", store + "read_raw")
    wrap(CheckpointStore, "decode_diff", store + "decode_diff")
    wrap(CheckpointStore, "compact", "storage.compaction.compact")

    wrap(PayloadCodec, "encode_tree", "storage.payload_codec.encode")
    wrap(PayloadCodec, "decode_tree", "storage.payload_codec.decode")

    pack = "storage.serializer.pack"
    wrap(checkpoint_store, "pack_tree_with_crc", pack, size_of=first_len)
    wrap(compaction, "pack_tree_with_crc", pack, size_of=first_len)
    wrap(compaction, "pack_tree_into", pack, size_of=first_len)
    wrap(async_engine, "pack_tree_into", pack, size_of=first_len)
    wrap(mp_engine, "pack_tree_into_view", pack,
         size_of=lambda args, result: result[0])
    wrap(checkpoint_store, "unpack_tree", "storage.serializer.unpack",
         size_of=lambda args, result: len(args[0]))

    wrap(LocalDiskBackend, "write", "storage.backends.write",
         size_of=lambda args, result: len(args[2]), tag_of=step_arg)
    wrap(LocalDiskBackend, "read", "storage.backends.read",
         size_of=lambda args, result: len(result), tag_of=step_arg)
    wrap(os, "fsync", "storage.backends.fsync")

    for attr in ("save_diff", "save_full"):
        wrap(AsyncCheckpointEngine, attr, "storage.async_engine.submit",
             tag_of=step_arg)
        wrap(MultiprocessCheckpointEngine, attr, "storage.mp_engine.submit",
             tag_of=step_arg)
        wrap(ShardedPersistGroup, attr, "storage.sharded.fanout",
             tag_of=step_arg)
    wrap(AsyncCheckpointEngine, "finalize", "storage.async_engine.drain")
    wrap(MultiprocessCheckpointEngine, "finalize", "storage.mp_engine.drain")
    wrap(MultiprocessCheckpointEngine, "__init__", "storage.mp_engine.spawn")
    for attr in ("slice_payload", "slice_full"):
        wrap(ShardLayout, attr, "storage.sharded.slice")


# Derivation ---------------------------------------------------------------------
def _engine_stats(stats: dict) -> list[dict]:
    engine = stats.get("engine")
    if engine is None:
        return []
    return engine["shards"] if "shards" in engine else [engine]


def _rate_mb_s(spans) -> float:
    seconds = sum(s.dur for s in spans)
    return sum(s.nbytes for s in spans) / MB / seconds if seconds else 0.0


def derive(spec, spans, trains, restores, nockpt_s, untraced_iter_ms,
           compaction_row) -> dict:
    """Per-layer metrics of one traced run: ``{name: {value, unit}}``.

    A layer the workload bypasses reports 0 (no spans, no stats)."""
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def sel(name, phases):
        return [s for s in by_name.get(name, ()) if s.phase in phases]

    def mean_ms(name, phases):
        return mean(s.dur for s in sel(name, phases)) * 1e3

    own = self_times(spans)
    iters = sum(len(t.iter_s) for t in trains)
    cycles = len(trains)
    engines = [_engine_stats(t.stats) for t in trains]
    process_mode = any("ring_capacity" in e for es in engines for e in es)
    serial = [r for r in restores if r["kind"] == "serial"]
    parallel = [r for r in restores if r["kind"] == "parallel"]
    n_restores = len(serial) + len(parallel)
    out: dict[str, float] = {}

    # compression / distributed / core.lowdiff -------------------------------
    compress = sel("compression.compress", ("train",))
    out["compression.compress_ms"] = mean(s.dur for s in compress) * 1e3
    out["compression.calls_per_iter"] = len(compress) / iters
    iter_ms = [s * 1e3 for t in trains for s in t.iter_s]
    stall_ms = [s * 1e3 for t in trains for s in t.stall_s]
    out["distributed.nockpt_iter_ms"] = statistics.median(nockpt_s) * 1e3
    out["distributed.contention_ms_per_iter"] = (
        mean(iter_ms) - mean(nockpt_s) * 1e3 - mean(stall_ms))
    out["core.lowdiff.synced_hook_ms"] = mean(
        s for t in trains for s in t.synced_s) * 1e3
    out["core.lowdiff.post_update_hook_ms"] = mean(
        s for t in trains for s in t.update_s) * 1e3
    fcf = spec.config.full_every_iters
    out["core.lowdiff.full_snapshot_ms"] = mean(
        s for t in trains for i, s in enumerate(t.update_s)
        if (i + 1) % fcf == 0) * 1e3
    out["core.lowdiff.attach_s"] = mean(t.attach_s for t in trains)
    out["core.lowdiff.finalize_s"] = mean(t.finalize_s for t in trains)

    # queue / batched writer ----------------------------------------------------
    out["core.reusing_queue.put_us"] = mean(
        s.dur for s in sel("core.reusing_queue.put", ("train",))) * 1e6
    out["core.reusing_queue.max_depth"] = max(
        t.stats["queue_max_depth"] for t in trains)
    out["core.reusing_queue.copied_bytes"] = sum(
        t.stats["queue_copied_bytes"] for t in trains)
    out["core.batched_writer.submit_ms"] = mean(
        own[s.id] for s in sel("core.batched_writer.submit", ("train",))) * 1e3

    # checkpoint store ------------------------------------------------------------
    store = "storage.checkpoint_store."
    writes = sel("storage.backends.write", PERSIST)
    blob_write = {s.parent: s.dur for s in writes
                  if not str(s.tag).endswith("manifest.json")}
    commits = sel(store + "commit_diff", PERSIST) \
        + sel(store + "commit_full", PERSIST)
    for kind in ("diff", "full"):
        saves = sel(f"{store}save_{kind}", PERSIST) \
            or sel(f"{store}commit_{kind}", PERSIST)
        out[f"{store}save_{kind}_ms"] = mean(s.dur for s in saves) * 1e3
    out[store + "commit_ms"] = mean(
        s.dur - blob_write.get(s.id, 0.0) for s in commits) * 1e3
    out[store + "manifest_bytes_per_commit"] = mean(
        s.nbytes for s in writes if str(s.tag).endswith("manifest.json"))
    worker_blobs = sum(t.disk["blob_files"] for t in trains) \
        if process_mode else 0
    worker_bytes = sum(t.disk["blob_bytes"] for t in trains) \
        if process_mode else 0
    logical = sum(t.logical_bytes for t in trains)
    out[store + "write_amp"] = (
        sum(s.nbytes for s in writes) + worker_bytes) / logical
    out[store + "open_ms"] = sum(
        s.dur for s in sel(store + "open", RESTORE)) / n_restores * 1e3

    # codec / serializer -------------------------------------------------------
    codec = "storage.payload_codec."
    encode_s = sum(s.dur for s in sel(codec + "encode", PERSIST))
    decode_s = sum(s.dur for s in sel(codec + "decode", RESTORE))
    out[codec + "encode_mb_s"] = logical / MB / encode_s if encode_s else 0.0
    out[codec + "decode_mb_s"] = (
        mean(t.restore_logical_bytes for t in trains) * n_restores
        / MB / decode_s if decode_s else 0.0)
    out[codec + "ratio"] = (
        logical / sum(t.disk["blob_bytes"] for t in trains)
        if spec.config.codec else 0.0)
    out["storage.serializer.pack_mb_s"] = _rate_mb_s(
        sel("storage.serializer.pack", PERSIST))
    out["storage.serializer.unpack_mb_s"] = _rate_mb_s(
        sel("storage.serializer.unpack", RESTORE))
    out["storage.serializer.overhead_bytes_per_record"] = mean(
        t.disk["diff_overhead_bytes"] for t in trains)

    # backends ---------------------------------------------------------------------
    backends = "storage.backends."
    out[backends + "write_ms"] = mean(s.dur for s in writes) * 1e3
    out[backends + "write_calls_per_iter"] = (
        len(writes) + worker_blobs) / iters
    out[backends + "fsyncs_per_iter"] = (
        len(sel(backends + "fsync", PERSIST)) + worker_blobs) / iters
    out[backends + "write_mb_s"] = _rate_mb_s(writes)
    reads = sel(backends + "read", RESTORE)
    out[backends + "read_ms"] = mean(s.dur for s in reads) * 1e3
    out[backends + "read_mb_s"] = _rate_mb_s(reads)

    # engines (per-cycle totals from stats(), summed over shards) --------------------
    def per_cycle(key, kind_key):
        return sum(e.get(key, 0.0) for es in engines for e in es
                   if kind_key in e) / cycles

    thread, proc = "storage.async_engine.", "storage.mp_engine."
    out[thread + "submit_ms"] = mean_ms(thread + "submit", PERSIST)
    out[thread + "backpressure_s"] = per_cycle("backpressure_time_s",
                                               "snapshot_slots")
    out[thread + "snapshot_stall_s"] = per_cycle("snapshot_stall_time_s",
                                                 "snapshot_slots")
    out[thread + "queue_hwm"] = max(
        (e["high_watermark"] for es in engines for e in es
         if "snapshot_slots" in e), default=0)
    out[thread + "drain_s"] = sum(
        s.dur for s in sel(thread + "drain", ("finalize",))) / cycles
    out[proc + "submit_ms"] = mean_ms(proc + "submit", PERSIST)
    out[proc + "ring_stall_s"] = per_cycle("ring_stall_time_s",
                                           "ring_capacity")
    out[proc + "worker_busy_s"] = per_cycle("worker_busy_s", "ring_capacity")
    out[proc + "pack_s"] = per_cycle("pack_time_s", "ring_capacity")
    out[proc + "commit_s"] = per_cycle("commit_time_s", "ring_capacity")
    out[proc + "drain_s"] = sum(
        s.dur for s in sel(proc + "drain", ("finalize",))) / cycles
    out[proc + "spawn_s"] = sum(
        s.dur for s in sel(proc + "spawn", ("setup",))) / cycles

    # sharded ------------------------------------------------------------------------
    sharded = "storage.sharded."
    out[sharded + "slice_ms"] = sum(
        s.dur for s in sel(sharded + "slice", PERSIST)) / iters * 1e3
    out[sharded + "fanout_ms"] = sum(
        own[s.id] for s in sel(sharded + "fanout", PERSIST)) / iters * 1e3
    skews = [max(t.disk["shard_bytes"]) / mean(t.disk["shard_bytes"]) - 1.0
             for t in trains if t.disk["shard_bytes"]]
    out[sharded + "shard_byte_skew"] = mean(skews)
    out[sharded + "parallel_speedup"] = (
        statistics.median(r["seconds"] for r in serial)
        / statistics.median(r["seconds"] for r in parallel))

    # recovery -----------------------------------------------------------------------
    restore_spans = [s for s in spans if s.phase in RESTORE]
    roots = [s for s in restore_spans if s.name == "restore"]
    load_full, load_chain, merge, apply, residue = [], [], [], [], []
    chain_names = {store + "load_diff", store + "read_raw",
                   store + "decode_diff"}
    apply_names = {"optim.step_with", "compression.decompress"}
    for root in roots:
        inside = within(restore_spans, root)
        load_full.append(union_s(
            s for s in inside if s.name == store + "load_full"))
        load_chain.append(union_s(s for s in inside if s.name in chain_names))
        if root.tag == "parallel":
            merge.append(union_s(
                s for s in inside if s.name == "core.recovery.merge"))
        else:
            apply.append(union_s(s for s in inside if s.name in apply_names))
        residue.append(root.dur - union_s(
            s for s in inside if s.name != "core.recovery.recover"))
    recovery = "core.recovery."
    out[recovery + "load_full_s"] = mean(load_full)
    out[recovery + "load_chain_s"] = mean(load_chain)
    out[recovery + "merge_s"] = mean(merge)
    out[recovery + "apply_s"] = mean(apply)
    out[recovery + "merge_ops"] = mean(r["merge_ops"] for r in parallel)
    out[recovery + "merge_depth"] = mean(r["merge_depth"] for r in parallel)
    out[recovery + "diffs_loaded"] = mean(r["diffs_loaded"] for r in serial)
    out["optim.step_with_ms"] = mean_ms("optim.step_with", RESTORE)

    # compaction / budget / overhead ---------------------------------------------------
    out["storage.compaction.merge_s"] = (
        compaction_row["seconds"] if compaction_row else 0.0)
    out["storage.compaction.bytes_rewritten"] = (
        compaction_row["bytes_rewritten"] if compaction_row else 0)
    hooks = sel("core.lowdiff.synced_hook", ("train",)) \
        + sel("core.lowdiff.post_update_hook", ("train",))
    out["budget.persist_residue_ms"] = sum(
        own[s.id] for s in hooks) / iters * 1e3
    out["budget.restore_residue_s"] = mean(residue)
    out["obs.trace_overhead_frac"] = (
        statistics.median(iter_ms) / untraced_iter_ms - 1.0)

    return {name: {"value": float(out[name]), "unit": unit}
            for name, unit in LAYER_UNITS.items()}
