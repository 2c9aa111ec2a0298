"""Metric declarations and the end-to-end summary.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's vocabulary;
``BENCHMARK.json`` declares the same names (``--selftest`` checks they
agree).  Timings are reported as p50 unless the definition says otherwise,
with the sample count beside them.
"""

from __future__ import annotations

import resource
import statistics

# name, unit, better, regression bound (share of the parent's median).
# Timings carry the widest bound the contract allows: ten-run sweeps of the
# host-speed-corrected timings on the shared 2-core host spread 2-21 %
# (IQR/median; README), the correction is partial, and a bound below
# the benchmark's own spread would reject the benchmark rather than a
# regression.  ``--compare`` prints the exact change and the measured spread
# beside each verdict.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("iter_ms", "ms", "lower", 0.25),
    ("iter_tail_ms", "ms", "lower", 0.25),
    ("stall_ms_per_iter", "ms", "lower", 0.25),
    ("durable_iters_per_s", "1/s", "higher", 0.25),
    ("restore_serial_s", "s", "lower", 0.25),
    ("restore_parallel_s", "s", "lower", 0.25),
    ("disk_bytes_per_iter", "B", "lower", 0.03),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# name, unit, better.  Layer = module name; see README for definitions.
PER_LAYER = [
    ("compression.compress_ms", "ms", "lower"),
    ("compression.calls_per_iter", "count", "lower"),
    ("distributed.nockpt_iter_ms", "ms", "lower"),
    ("distributed.contention_ms_per_iter", "ms", "lower"),
    ("core.lowdiff.synced_hook_ms", "ms", "lower"),
    ("core.lowdiff.post_update_hook_ms", "ms", "lower"),
    ("core.lowdiff.full_snapshot_ms", "ms", "lower"),
    ("core.lowdiff.attach_s", "s", "lower"),
    ("core.lowdiff.finalize_s", "s", "lower"),
    ("core.reusing_queue.put_us", "us", "lower"),
    ("core.reusing_queue.max_depth", "count", "lower"),
    ("core.reusing_queue.copied_bytes", "B", "lower"),
    ("core.batched_writer.submit_ms", "ms", "lower"),
    ("storage.checkpoint_store.save_diff_ms", "ms", "lower"),
    ("storage.checkpoint_store.save_full_ms", "ms", "lower"),
    ("storage.checkpoint_store.commit_ms", "ms", "lower"),
    ("storage.checkpoint_store.manifest_bytes_per_commit", "B", "lower"),
    ("storage.checkpoint_store.write_amp", "ratio", "lower"),
    ("storage.checkpoint_store.open_ms", "ms", "lower"),
    ("storage.payload_codec.encode_mb_s", "MB/s", "higher"),
    ("storage.payload_codec.decode_mb_s", "MB/s", "higher"),
    ("storage.payload_codec.ratio", "ratio", "higher"),
    ("storage.serializer.pack_mb_s", "MB/s", "higher"),
    ("storage.serializer.unpack_mb_s", "MB/s", "higher"),
    ("storage.serializer.overhead_bytes_per_record", "B", "lower"),
    ("storage.backends.write_ms", "ms", "lower"),
    ("storage.backends.write_calls_per_iter", "count", "lower"),
    ("storage.backends.fsyncs_per_iter", "count", "lower"),
    ("storage.backends.write_mb_s", "MB/s", "higher"),
    ("storage.backends.read_ms", "ms", "lower"),
    ("storage.backends.read_mb_s", "MB/s", "higher"),
    ("storage.async_engine.submit_ms", "ms", "lower"),
    ("storage.async_engine.backpressure_s", "s", "lower"),
    ("storage.async_engine.snapshot_stall_s", "s", "lower"),
    ("storage.async_engine.queue_hwm", "count", "lower"),
    ("storage.async_engine.drain_s", "s", "lower"),
    ("storage.mp_engine.submit_ms", "ms", "lower"),
    ("storage.mp_engine.ring_stall_s", "s", "lower"),
    ("storage.mp_engine.worker_busy_s", "s", "lower"),
    ("storage.mp_engine.pack_s", "s", "lower"),
    ("storage.mp_engine.commit_s", "s", "lower"),
    ("storage.mp_engine.drain_s", "s", "lower"),
    ("storage.mp_engine.spawn_s", "s", "lower"),
    ("storage.sharded.slice_ms", "ms", "lower"),
    ("storage.sharded.fanout_ms", "ms", "lower"),
    ("storage.sharded.shard_byte_skew", "ratio", "lower"),
    ("storage.sharded.parallel_speedup", "ratio", "higher"),
    ("core.recovery.load_full_s", "s", "lower"),
    ("core.recovery.load_chain_s", "s", "lower"),
    ("core.recovery.merge_s", "s", "lower"),
    ("core.recovery.apply_s", "s", "lower"),
    ("core.recovery.merge_ops", "count", "lower"),
    ("core.recovery.merge_depth", "count", "lower"),
    ("core.recovery.diffs_loaded", "count", "lower"),
    ("optim.step_with_ms", "ms", "lower"),
    ("storage.compaction.merge_s", "s", "lower"),
    ("storage.compaction.bytes_rewritten", "B", "lower"),
    ("budget.persist_residue_ms", "ms", "lower"),
    ("budget.restore_residue_s", "s", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
]

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the max over waited-for children
    (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def summarise_e2e(spec, trains: list, restores: list[dict],
                  setup_samples: list[tuple], rss_mb: float) -> dict:
    """The nine end-to-end metrics from pooled cycle samples.

    Every timing sample is first multiplied by the host-speed correction
    of its cycle (``TrainResult.correction``, see bench/hostspeed.py);
    ``setup_samples`` are ``(seconds, correction)`` pairs.  Each entry:
    ``value``, ``unit``, ``n`` (samples behind the value), for timings
    ``uncorrected`` (the same statistic of the samples as measured) and
    for ``iter_tail_ms`` the percentile and how many samples lie beyond it
    (< 10 means the percentile is not supported by this run's length).
    """
    def timings(corrected: bool) -> dict:
        def factor(train):
            return train.correction if corrected else 1.0

        iter_ms = [s * 1e3 * factor(t) for t in trains for s in t.iter_s]
        stall_ms = [s * 1e3 * factor(t) for t in trains for s in t.stall_s]
        restore_s = {kind: [r["seconds"] * factor(trains[r["cycle"]])
                            for r in restores if r["kind"] == kind]
                     for kind in ("serial", "parallel")}
        durable = [len(t.iter_s) / ((t.loop_s + t.finalize_s) * factor(t))
                   for t in trains]
        return {
            "setup_s": statistics.median(
                s * (f if corrected else 1.0) for s, f in setup_samples),
            "iter_ms": statistics.median(iter_ms),
            "iter_tail_ms": percentile(iter_ms, spec.tail_percentile),
            "stall_ms_per_iter": mean(stall_ms),
            "durable_iters_per_s": statistics.median(durable),
            "restore_serial_s": statistics.median(restore_s["serial"]),
            "restore_parallel_s": statistics.median(restore_s["parallel"]),
        }

    iterations = sum(len(t.iter_s) for t in trains)
    beyond = int(iterations * (1.0 - spec.tail_percentile / 100.0))
    kinds = [r["kind"] for r in restores]
    counts = {
        "setup_s": len(setup_samples), "iter_ms": iterations,
        "iter_tail_ms": iterations, "stall_ms_per_iter": iterations,
        "durable_iters_per_s": len(trains),
        "restore_serial_s": kinds.count("serial"),
        "restore_parallel_s": kinds.count("parallel"),
    }
    uncorrected = timings(False)
    summary = {
        name: {"value": value, "unit": E2E_UNITS[name], "n": counts[name],
               "uncorrected": uncorrected[name]}
        for name, value in timings(True).items()}
    summary["iter_tail_ms"].update(percentile=spec.tail_percentile,
                                   samples_beyond=beyond)
    disk = [t.disk["bytes"] / len(t.iter_s) for t in trains]
    summary["disk_bytes_per_iter"] = {
        "value": statistics.median(disk), "unit": E2E_UNITS[
            "disk_bytes_per_iter"], "n": len(disk)}
    summary["peak_rss_mb"] = {"value": rss_mb,
                              "unit": E2E_UNITS["peak_rss_mb"], "n": 1}
    return summary
