"""Thread-engine vs process-engine persistence benchmark (PR 8 artifact).

Measures what the shared-memory multi-process engine buys over the
in-process writer-thread pool and writes ``BENCH_PR8.json`` at the repo
root:

1. **Training-loop stall per iteration** — a compute loop submitting one
   differential per iteration, priced against a no-checkpoint baseline,
   swept over worker count x payload size x codec for both engines.  The
   codec-on large-payload cell is the headline: encode CPU contends with
   the training thread for the GIL under the thread engine but runs in
   separate worker processes under the shared-memory engine.
2. **Parallel recovery** — the threaded merge-tree recovery of a chain
   the codec encoded, its state asserted bit-identical to the inline
   fold of the same tree.
3. **Calibration** — measured persist/recover throughput fed back into
   the simulator via :meth:`ClusterSpec.calibrate_from_bench`, closing
   the loop between the real engine and the performance model.

Engines are constructed, import-warmed and ready-gated *before* the
timed window — process spawn/bootstrap (~1 s) is a once-per-job cost the
paper's long-running training amortizes, so it must not pollute the
per-iteration stall numbers.  ``BENCH_QUICK=1`` shrinks every dimension
for CI smoke runs.  Run directly
(``python benchmarks/bench_mp_engine.py``) or via pytest; both
regenerate the JSON.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.core.recovery import parallel_recover
from repro.optim import SGD
from repro.sim import LowDiffStrategy, TrainingSim, Workload
from repro.sim.cluster import A100_CLUSTER
from repro.storage import (
    AsyncCheckpointEngine,
    CheckpointStore,
    LocalDiskBackend,
    MultiprocessCheckpointEngine,
)
from repro.storage.payload_codec import payload_to_tree
from repro.storage.serializer import serialized_size
from repro.tensor.models import MLP
from repro.utils.rng import Rng

QUICK = bool(os.environ.get("BENCH_QUICK"))
RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_PR8.json")

ITERS = 6 if QUICK else 12
WORKER_COUNTS = (2,) if QUICK else (1, 2, 4)
#: Gradient shapes the TopK payloads come from: "large" puts multiple MB
#: per record through the codec, the regime worker processes exist for.
PAYLOAD_SHAPES = ({"large": (512, 512)} if QUICK
                  else {"small": (256, 256), "large": (1024, 1024)})
CODECS = (None, "lossless")
RHO = 0.5
#: Deeper than the measured loop so neither engine hits backpressure:
#: the stall metric then isolates what each engine *steals from the
#: training thread* (GIL-bound encode for threads, ring memcpy for
#: processes); queued work drains in the separately-timed finalize.
QUEUE_DEPTH = ITERS + 4
CHAIN_LENGTH = 8 if QUICK else 16
RECOVERY_SHAPE = (256, 256)


def compute_kernel(size=320, loops=12):
    """~25 ms of GIL-releasing matmuls standing in for an iteration's
    compute — the window background persistence must hide behind."""
    a = np.ones((size, size))
    out = 0.0
    for _ in range(loops):
        out += float((a @ a)[0, 0]) * 1e-9
    return out


def make_payloads(shape, count, seed=1):
    compressor = TopKCompressor(RHO)
    rng = Rng(seed)
    return [
        compressor.compress({
            "w": rng.child(step, "w").normal(size=shape),
        })
        for step in range(count)
    ]


def payload_mb(payload) -> float:
    return serialized_size(payload_to_tree(payload)) / 1e6


# ---------------------------------------------------------------------------
# 1. Training-loop stall sweep, thread vs process engine
# ---------------------------------------------------------------------------

def measure_baseline() -> float:
    """Wall time of the bare compute loop (no checkpointing)."""
    compute_kernel()  # warm numpy buffers / BLAS threads
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(ITERS):
            compute_kernel()
        best = min(best, time.perf_counter() - started)
    return best


def run_cell(tmpdir: str, engine_kind: str, workers: int, payloads,
             codec, baseline_s: float) -> dict:
    """One sweep cell: construct+warm the engine, time the submit loop."""
    root = os.path.join(tmpdir, f"{engine_kind}-{workers}-{codec}")
    store = CheckpointStore(LocalDiskBackend(root), codec=codec)
    if engine_kind == "process":
        engine = MultiprocessCheckpointEngine(
            store, num_workers=workers, queue_depth=QUEUE_DEPTH,
            ring_bytes=128 << 20, worker_nice=19)
    else:
        engine = AsyncCheckpointEngine(store, num_writers=workers,
                                       queue_depth=QUEUE_DEPTH)
    # Warm the whole path (worker imports, codec tables, page cache)
    # outside the timed window, then start from an empty queue.
    engine.save_diff(1, 1, payloads[0])
    engine.drain()

    started = time.perf_counter()
    for index in range(ITERS):
        compute_kernel()
        step = index + 2
        engine.save_diff(step, step, payloads[index % len(payloads)])
    loop_wall = time.perf_counter() - started
    drain_started = time.perf_counter()
    engine.finalize()
    drain_s = time.perf_counter() - drain_started

    stats = engine.stats()
    return {
        "engine": engine_kind,
        "workers": workers,
        "codec": codec or "none",
        "payload_mb": payload_mb(payloads[0]),
        "stall_ms_per_iter": max(0.0, loop_wall - baseline_s) / ITERS * 1e3,
        "loop_wall_s": loop_wall,
        "drain_s": drain_s,
        "committed": stats["committed"],
        "worker_busy_s": stats.get("worker_busy_s", 0.0),
        "encoded_bytes": sum(r.nbytes for r in store.diffs()),
    }


def measure_sweep(tmpdir: str) -> dict:
    baseline_s = measure_baseline()
    payload_sets = {
        name: make_payloads(shape, min(4, ITERS))
        for name, shape in PAYLOAD_SHAPES.items()
    }
    cells = []
    for payload_name, payloads in payload_sets.items():
        for codec in CODECS:
            for workers in WORKER_COUNTS:
                for engine_kind in ("thread", "process"):
                    cell = run_cell(tmpdir, engine_kind, workers,
                                    payloads, codec, baseline_s)
                    cell["payload"] = payload_name
                    cells.append(cell)
    return {"baseline_s": baseline_s, "iterations": ITERS, "cells": cells}


def headline_from(sweep: dict) -> dict:
    """The codec-on large-payload cell at the largest worker count."""
    workers = max(WORKER_COUNTS)

    def pick(kind):
        return next(c for c in sweep["cells"]
                    if c["engine"] == kind and c["workers"] == workers
                    and c["payload"] == "large" and c["codec"] == "lossless")

    thread, process = pick("thread"), pick("process")
    # A fully-hidden thread stall prices as ~0; floor at timer resolution
    # so the ratio stays finite and honest.
    floor_ms = 1e-3
    ratio = (max(thread["stall_ms_per_iter"], floor_ms)
             / max(process["stall_ms_per_iter"], floor_ms))
    return {
        "workers": workers,
        "codec": "lossless",
        "payload_mb": process["payload_mb"],
        "thread_stall_ms": thread["stall_ms_per_iter"],
        "process_stall_ms": process["stall_ms_per_iter"],
        "thread_drain_s": thread["drain_s"],
        "process_drain_s": process["drain_s"],
        "stall_ratio_x": ratio,
    }


# ---------------------------------------------------------------------------
# 2. Recovery: the threaded merge tree
# ---------------------------------------------------------------------------

def build_chain(tmpdir: str):
    root = os.path.join(tmpdir, "recovery")
    store = CheckpointStore(LocalDiskBackend(root), codec="lossless")
    model = MLP(RECOVERY_SHAPE[0], [RECOVERY_SHAPE[1]], 16, rng=Rng(0))
    optimizer = SGD(model, lr=0.05)
    store.save_full(0, model.state_dict(), optimizer.state_dict())
    compressor = TopKCompressor(RHO)
    rng = Rng(2)
    for step in range(1, CHAIN_LENGTH + 1):
        payload = compressor.compress({
            name: rng.child(step, name).normal(size=p.shape)
            for name, p in model.named_parameters()
        })
        optimizer.step_with(payload.decompress())
        store.save_diff(step, step, payload)
    return root


def recover_once(root: str, max_workers: int | None = None):
    store = CheckpointStore(LocalDiskBackend(root), codec="lossless")
    model = MLP(RECOVERY_SHAPE[0], [RECOVERY_SHAPE[1]], 16, rng=Rng(9))
    optimizer = SGD(model, lr=0.05)
    started = time.perf_counter()
    result = parallel_recover(store, model, optimizer, max_workers=max_workers)
    elapsed = time.perf_counter() - started
    chain_bytes = sum(r.nbytes for r in store.diffs()) \
        + sum(r.nbytes for r in store.fulls())
    return model.state_dict(), result, elapsed, chain_bytes


def measure_recovery(tmpdir: str) -> dict:
    root = build_chain(tmpdir)
    threaded_s = float("inf")
    for _ in range(1 if QUICK else 2):
        threaded_state, result, elapsed, chain_bytes = recover_once(root)
        threaded_s = min(threaded_s, elapsed)
    inline_state = recover_once(root, max_workers=1)[0]
    pooled_state = recover_once(root, max_workers=2)[0]
    bit_exact = all(
        np.array_equal(threaded_state[name], inline_state[name])
        and np.array_equal(threaded_state[name], pooled_state[name])
        for name in threaded_state)
    assert result.step == CHAIN_LENGTH
    return {
        "chain_length": CHAIN_LENGTH,
        "threaded_s": threaded_s,
        "bit_exact": bit_exact,
        "merge_ops": result.merge_ops,
        "merge_depth": result.merge_depth,
        "chain_bytes": chain_bytes,
    }


# ---------------------------------------------------------------------------
# 3. Calibration: measured throughput back into the simulator
# ---------------------------------------------------------------------------

def measure_calibration(headline_cell: dict, recovery: dict) -> dict:
    busy = headline_cell["worker_busy_s"]
    persist_mb_s = (headline_cell["encoded_bytes"] / busy / 1e6
                    if busy > 0 else None)
    recover_mb_s = (recovery["chain_bytes"] / recovery["threaded_s"] / 1e6
                    if recovery["threaded_s"] > 0 else None)
    calibration = {
        "persist_mb_s": persist_mb_s,
        "recover_mb_s": recover_mb_s,
    }
    spec = A100_CLUSTER.calibrate_from_bench({"calibration": calibration})
    workload = Workload.create("gpt2_small", spec, rho=0.01)
    sim = TrainingSim(workload, LowDiffStrategy(
        full_every=100, batch_size=2, async_engine=True,
        persist_workers=max(WORKER_COUNTS))).run(200)
    calibration["calibrated_cluster"] = spec.name
    calibration["sim_overhead_fraction"] = sim.overhead_fraction
    return calibration


def run_all() -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        sweep = measure_sweep(tmpdir)
        headline = headline_from(sweep)
        workers = headline["workers"]
        headline_cell = next(
            c for c in sweep["cells"]
            if c["engine"] == "process" and c["workers"] == workers
            and c["payload"] == "large" and c["codec"] == "lossless")
        recovery = measure_recovery(tmpdir)
        results = {
            "benchmark": "mp-persistence-engine",
            "quick_mode": QUICK,
            "cpu_count": os.cpu_count(),
            "sweep": sweep["cells"],
            "baseline_s": sweep["baseline_s"],
            "iterations": sweep["iterations"],
            "headline": headline,
            "recovery": recovery,
            "calibration": measure_calibration(headline_cell, recovery),
        }
    with open(RESULT_PATH, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    return results


@pytest.fixture(scope="module")
def results():
    return run_all()


def test_process_engine_beats_thread(results):
    """Acceptance: the process engine cuts codec-on large-payload stall
    >= 1.5x at the top worker count (>= 1.0x in quick mode, where tiny
    payloads leave little for either engine to hide)."""
    headline = results["headline"]
    assert headline["stall_ratio_x"] >= (1.0 if QUICK else 1.5)


def test_recovery_bit_exact(results):
    recovery = results["recovery"]
    assert recovery["bit_exact"]
    assert recovery["merge_ops"] == recovery["chain_length"] - 1


def test_calibration_round_trips(results):
    calibration = results["calibration"]
    assert calibration["persist_mb_s"] and calibration["persist_mb_s"] > 0
    assert calibration["recover_mb_s"] and calibration["recover_mb_s"] > 0
    assert calibration["calibrated_cluster"].endswith("-calibrated")
    # Measured quick-mode throughput can be orders of magnitude below the
    # paper testbed's SSD, so only sanity — not magnitude — is asserted.
    fraction = calibration["sim_overhead_fraction"]
    assert fraction >= 0.0 and math.isfinite(fraction)


def test_every_cell_committed(results):
    for cell in results["sweep"]:
        assert cell["committed"] == results["iterations"] + 1, cell


if __name__ == "__main__":
    print(json.dumps(run_all(), indent=2))
