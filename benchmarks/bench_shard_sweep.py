"""Sharded checkpointing sweep: shard count x IO concurrency x payload
size (PR 10 artifact).

Measures what per-shard chains buy (and cost) over the one-blob store and
writes ``BENCH_PR10.json`` at the repo root:

1. **Persist sweep** — wall time per persisted full+diff pair through
   :class:`ShardedCheckpointStore` over a local-disk backend, swept over
   shard count x ``shard_concurrency`` x payload size.  The S=1 column is
   the unsharded baseline; the guard pins S=4 concurrent persistence to
   within 1.1x of it (slicing + per-shard manifests must stay in the
   noise when writes overlap).
2. **Recovery** — serial replay vs parallel per-shard merge-tree recovery
   over the same sharded chain, bit-exactness of the parallel result
   pinned against the *unsharded* parallel path (same merge-tree shape →
   identical fp32 folds), with the guard requiring the parallel path to
   be no slower than serial.
3. **Sim cross-check** — the calibrated performance model with the same
   shard knobs, tying the measured effect to the simulator's pricing.

``BENCH_QUICK=1`` (or ``--quick``) shrinks every dimension for CI smoke
runs.  Run directly (``python benchmarks/bench_shard_sweep.py``) or via
pytest; both regenerate the JSON.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.core.recovery import parallel_recover, serial_recover
from repro.optim import Adam
from repro.sim import LowDiffStrategy, TrainingSim, Workload
from repro.sim.cluster import A100_CLUSTER
from repro.storage import (
    CheckpointStore,
    LocalDiskBackend,
    ShardedCheckpointStore,
)
from repro.tensor.models import MLP
from repro.utils.rng import Rng

QUICK = bool(os.environ.get("BENCH_QUICK")) or "--quick" in sys.argv
RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_PR10.json")

SHARD_COUNTS = (1, 2, 4) if QUICK else (1, 2, 4, 8)
CONCURRENCY = (1, 4)
#: Square per-tensor sides of the synthetic model state; "large" puts
#: multiple MB per full through the store — the regime sharding targets.
PAYLOAD_SIDES = {"small": 128, "large": 384} if QUICK \
    else {"small": 256, "large": 768}
PERSIST_ROUNDS = 3 if QUICK else 6
CHAIN_LENGTH = 8 if QUICK else 16
#: Diff density for the persist sweep — deliberately heavy so diff
#: records carry real bytes through the backend.
RHO_PERSIST = 0.3
#: Diff density for the recovery comparison — the sparse regime
#: differential checkpointing targets.  Merge-tree recovery folds
#: sparse unions and applies the optimizer once; replay pays a dense
#: apply per record, so its advantage scales with 1/rho.
RHO_RECOVER = 0.02


def make_state(side: int, seed: int = 3):
    """Synthetic model/optimizer state: four dense square tensors."""
    rng = Rng(seed)
    shapes = {f"layer{i}.w": (side, side) for i in range(4)}
    model = {name: rng.child(name).normal(size=shape)
             for name, shape in shapes.items()}
    optimizer = {
        "type": "Adam", "lr": 1e-3, "step_count": 0,
        "slots": {name: {"m": np.zeros(shape), "v": np.zeros(shape)}
                  for name, shape in shapes.items()},
    }
    return model, optimizer, shapes


def make_diffs(shapes, count, seed=11):
    compressor = TopKCompressor(RHO_PERSIST)
    rng = Rng(seed)
    return [
        compressor.compress({
            name: rng.child(step, name).normal(size=shape)
            for name, shape in shapes.items()
        })
        for step in range(1, count + 1)
    ]


# ---------------------------------------------------------------------------
# 1. Persist sweep
# ---------------------------------------------------------------------------

def run_persist_cell(tmpdir: str, shards: int, concurrency: int,
                     payload_name: str) -> dict:
    model, optimizer, shapes = make_state(PAYLOAD_SIDES[payload_name])
    diffs = make_diffs(shapes, PERSIST_ROUNDS)
    root = os.path.join(tmpdir, f"persist-{shards}-{concurrency}-{payload_name}")
    store = ShardedCheckpointStore(
        LocalDiskBackend(root), shards=shards, shard_concurrency=concurrency)
    # Warm: layout persist, page cache, codec tables.
    store.save_full(0, model, optimizer)

    started = time.perf_counter()
    for round_index in range(PERSIST_ROUNDS):
        step = (round_index + 1) * 10
        store.save_full(step, model, optimizer)
        store.save_diff(step + 1, step + 1, diffs[round_index], count=1)
    wall = time.perf_counter() - started

    total_bytes = sum(store.storage_bytes().values())
    return {
        "shards": shards,
        "concurrency": concurrency,
        "payload": payload_name,
        "rounds": PERSIST_ROUNDS,
        "wall_s": wall,
        "s_per_round": wall / PERSIST_ROUNDS,
        "storage_bytes": total_bytes,
    }


def measure_persist(tmpdir: str) -> list[dict]:
    cells = []
    for payload_name in PAYLOAD_SIDES:
        for shards in SHARD_COUNTS:
            for concurrency in CONCURRENCY:
                if shards == 1 and concurrency != CONCURRENCY[0]:
                    continue  # concurrency is moot unsharded
                cells.append(run_persist_cell(
                    tmpdir, shards, concurrency, payload_name))
    return cells


def persist_headline(cells: list[dict]) -> dict:
    """S=4 concurrent persistence vs the unsharded baseline (large)."""
    def pick(shards, concurrency):
        return next(c for c in cells
                    if c["shards"] == shards and c["payload"] == "large"
                    and c["concurrency"] == concurrency)

    base = pick(1, CONCURRENCY[0])
    sharded = pick(4, max(CONCURRENCY))
    return {
        "payload": "large",
        "unsharded_s_per_round": base["s_per_round"],
        "sharded4_s_per_round": sharded["s_per_round"],
        "stall_ratio_x": sharded["s_per_round"] / base["s_per_round"],
    }


# ---------------------------------------------------------------------------
# 2. Recovery: serial vs parallel per-shard merge
# ---------------------------------------------------------------------------

def fresh_model_opt(seed: int):
    # Large enough that per-record replay cost (decompress + dense Adam
    # apply) dominates fixed pool/manifest overhead — the regime where
    # the single-apply merge-tree path is the algorithmic win, even on
    # one core.
    model = MLP(256, [512, 512], 64, rng=Rng(seed))
    return model, Adam(model, lr=1e-3)


def populate_training(store, seed=5):
    model, optimizer = fresh_model_opt(seed)
    compressor = TopKCompressor(RHO_RECOVER)
    rng = Rng(seed + 1)
    store.save_full(0, model.state_dict(), optimizer.state_dict())
    for step in range(1, CHAIN_LENGTH + 1):
        grads = {name: rng.child("g", step, name).normal(size=p.shape)
                 for name, p in model.named_parameters()}
        payload = compressor.compress(grads)
        optimizer.step_with(payload.decompress())
        store.save_diff(step, step, payload, count=1)


def time_recover(fn, store, seed=99, repeats=3):
    best, result, states = float("inf"), None, None
    for _ in range(repeats):
        model, optimizer = fresh_model_opt(seed)
        started = time.perf_counter()
        result = fn(store, model, optimizer)
        best = min(best, time.perf_counter() - started)
        states = (model.state_dict(), optimizer.state_dict())
    return best, result, states


def measure_recovery(tmpdir: str) -> dict:
    shards = 4
    store = ShardedCheckpointStore(
        LocalDiskBackend(os.path.join(tmpdir, "recover-sharded")),
        shards=shards, shard_concurrency=shards)
    populate_training(store)
    reference = CheckpointStore(
        LocalDiskBackend(os.path.join(tmpdir, "recover-plain")))
    populate_training(reference)

    serial_s, serial_result, _ = time_recover(serial_recover, store)
    parallel_s, parallel_result, parallel_states = time_recover(
        parallel_recover, store)
    _, _, ref_states = time_recover(parallel_recover, reference, repeats=1)

    bit_exact = all(
        np.array_equal(parallel_states[0][name], ref_states[0][name])
        for name in ref_states[0]
    ) and all(
        np.array_equal(parallel_states[1]["slots"][name][slot],
                       ref_states[1]["slots"][name][slot])
        for name in ref_states[1]["slots"]
        for slot in ref_states[1]["slots"][name]
    )
    return {
        "shards": shards,
        "chain_length": CHAIN_LENGTH,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup_x": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "merge_ops": parallel_result.merge_ops,
        "serial_apply_ops": serial_result.apply_ops,
        "bit_exact_vs_unsharded_parallel": bit_exact,
        "recovered_step": parallel_result.step,
    }


# ---------------------------------------------------------------------------
# 3. Sim cross-check
# ---------------------------------------------------------------------------

def measure_sim() -> dict:
    def overhead(shards, concurrency=4):
        workload = Workload.create("gpt2_small", A100_CLUSTER, rho=0.01)
        strategy = LowDiffStrategy(
            full_every=10, batch_size=2, async_engine=True,
            shards=shards, shard_concurrency=concurrency)
        return TrainingSim(workload, strategy).run(200).overhead_fraction

    return {
        "overhead_unsharded": overhead(1),
        "overhead_sharded4": overhead(4),
        "overhead_sharded4_serial_lanes": overhead(4, concurrency=1),
    }


def run_all() -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        persist_cells = measure_persist(tmpdir)
        results = {
            "benchmark": "shard-sweep",
            "quick_mode": QUICK,
            "cpu_count": os.cpu_count(),
            "persist": persist_cells,
            "persist_headline": persist_headline(persist_cells),
            "recovery": measure_recovery(tmpdir),
            "sim": measure_sim(),
        }
    with open(RESULT_PATH, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    return results


@pytest.fixture(scope="module")
def results():
    return run_all()


def test_sharded_persist_within_budget(results):
    """Guard: S=4 concurrent sharded persistence stays within 1.1x of the
    unsharded store per full+diff round (large payload)."""
    assert results["persist_headline"]["stall_ratio_x"] <= 1.1, \
        results["persist_headline"]


def test_parallel_recovery_no_slower_than_serial(results):
    """Guard: per-shard parallel merge recovery is no slower than the
    serial replay over the same chain."""
    recovery = results["recovery"]
    assert recovery["parallel_s"] <= recovery["serial_s"], recovery


def test_parallel_recovery_bit_exact(results):
    recovery = results["recovery"]
    assert recovery["bit_exact_vs_unsharded_parallel"]
    assert recovery["recovered_step"] == CHAIN_LENGTH
    # 4 shards x (chain-1) pairwise merges.
    assert recovery["merge_ops"] == 4 * (CHAIN_LENGTH - 1)


def test_sim_sharding_reduces_overhead(results):
    sim = results["sim"]
    assert sim["overhead_sharded4"] <= sim["overhead_unsharded"] + 1e-12
    # One IO lane serializes the waves — no concurrency, no win.
    assert sim["overhead_sharded4_serial_lanes"] == pytest.approx(
        sim["overhead_unsharded"])


if __name__ == "__main__":
    print(json.dumps(run_all(), indent=2))
