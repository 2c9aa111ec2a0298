"""Bit-exactness pins for the vectorized training hot path.

Three fast paths replace reference implementations and must round
identically everywhere:

- ``SparseGradient.merge_ordered`` (one global-index-space sort + per-level
  vectorized folds) vs the sequential pairwise ``add()`` fold;
- the fused allocation-free optimizer kernels (``_update_param_fused``)
  vs the reference numpy expressions;
- ``decompress_into`` (scatter-add into reusable ``DenseScratch`` buffers)
  vs fresh-allocation ``decompress``;
- ``step_with(payload)`` (a scatter under sparse-exact SGD, a block-by-block
  densify otherwise) vs ``step_with(payload.decompress())``;
- a window ``step_with([payload, ...])`` (every step on a block before the
  next block) vs one reference ``step_with`` per step.

Replicas that each apply the synchronized update stay bit-identical.
"""

import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bench.workloads import WORKLOADS
from repro.compression import TopKCompressor
from repro.compression.sparse import (
    KWAY_COUNTER_FALLBACK,
    KWAY_COUNTER_KWAY,
    DenseScratch,
    SparseGradient,
)
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.core.recovery import serial_recover
from repro.distributed import DataParallelTrainer, SyntheticClassification
from repro.distributed.collectives import sparse_allreduce
from repro.obs import OBS
from repro.optim import Adam, SGD
from repro.optim.optimizer import BLOCK, Optimizer
from repro.storage import CheckpointStore, InMemoryBackend
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.models import MLP
from repro.tensor.parameter import Parameter
from repro.utils.pool import published
from repro.utils.rng import Rng
from tests.helpers import (
    CallCounts,
    assert_optimizers_equal,
    assert_states_equal,
)


def kway_counts():
    return {"kway": OBS.registry.counter(KWAY_COUNTER_KWAY).value,
            "fallback": OBS.registry.counter(KWAY_COUNTER_FALLBACK).value}


def sequential_fold(payloads):
    merged = payloads[0]
    for payload in payloads[1:]:
        merged = merged.add(payload)
    return merged


def random_payloads(seed, workers, shapes, rho):
    rng = Rng(seed)
    compressor = TopKCompressor(rho)
    return [
        compressor.compress({
            f"t{i}": rng.child("g", w, i).normal(size=shape)
            for i, shape in enumerate(shapes)
        })
        for w in range(workers)
    ]


def assert_payloads_identical(a, b):
    assert a.shapes == b.shapes
    assert set(a.entries) == set(b.entries)
    for name in a.entries:
        np.testing.assert_array_equal(a.entries[name][0], b.entries[name][0],
                                      err_msg=f"{name} indices")
        np.testing.assert_array_equal(a.entries[name][1], b.entries[name][1],
                                      err_msg=f"{name} values")


class TestKWayMerge:
    @given(st.integers(2, 8), st.integers(0, 1000),
           st.sampled_from([0.05, 0.2, 0.5, 0.99]))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_pairwise_fold(self, workers, seed, rho):
        payloads = random_payloads(seed, workers, [(17,), (4, 9), (3,)], rho)
        assert_payloads_identical(
            SparseGradient.merge_ordered(payloads), sequential_fold(payloads))

    def test_single_payload_passthrough(self):
        payloads = random_payloads(3, 1, [(10,)], 0.5)
        assert SparseGradient.merge_ordered(payloads) is payloads[0]

    def test_empty_selection_merges(self):
        empty = SparseGradient(
            {"t0": (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))},
            {"t0": (6,)})
        full = random_payloads(11, 1, [(6,)], 0.5)[0]
        merged = SparseGradient.merge_ordered([empty, full, empty])
        assert_payloads_identical(merged, sequential_fold([empty, full, empty]))

    def test_duplicate_indices_fall_back_and_stay_exact(self):
        dup = SparseGradient(
            {"t0": (np.array([2, 2, 5]), np.array([1.0, 2.0, 3.0], np.float32))},
            {"t0": (8,)})
        other = random_payloads(5, 1, [(8,)], 0.5)[0]
        before = kway_counts()
        merged = SparseGradient.merge_ordered([dup, other])
        assert kway_counts()["fallback"] == before["fallback"] + 1
        assert_payloads_identical(merged, sequential_fold([dup, other]))

    def test_kway_counter_increments(self):
        payloads = random_payloads(9, 4, [(20,)], 0.3)
        before = kway_counts()
        SparseGradient.merge_ordered(payloads)
        assert kway_counts() == {"kway": before["kway"] + 1,
                                 "fallback": before["fallback"]}
        # The collective takes the same route: a fallback to the pairwise
        # fold is a silent perf regression, not a correctness one.
        sparse_allreduce(payloads, average=True)
        assert kway_counts() == {"kway": before["kway"] + 2,
                                 "fallback": before["fallback"]}


class TestDecompressInto:
    @given(st.integers(0, 500), st.sampled_from([0.1, 0.4, 0.99]))
    @settings(max_examples=40, deadline=None)
    def test_matches_decompress(self, seed, rho):
        payload = random_payloads(seed, 1, [(5, 7), (13,)], rho)[0]
        scratch = DenseScratch(payload.shapes)
        fast = payload.decompress_into(scratch)
        reference = payload.decompress()
        for name in reference:
            np.testing.assert_array_equal(fast[name], reference[name])

    def test_buffers_reused_and_rezeroed(self):
        first = random_payloads(1, 1, [(40,)], 0.5)[0]
        second = random_payloads(2, 1, [(40,)], 0.1)[0]
        scratch = DenseScratch(first.shapes)
        out_first = first.decompress_into(scratch)
        base_first = out_first["t0"].base if out_first["t0"].base is not None \
            else out_first["t0"]
        out_second = second.decompress_into(scratch)
        base_second = out_second["t0"].base if out_second["t0"].base is not None \
            else out_second["t0"]
        assert base_first is base_second  # same backing buffer
        np.testing.assert_array_equal(out_second["t0"],
                                      second.decompress()["t0"])


def run_steps(optimizer_cls, fused, steps=25, dtype=np.float64, **kwargs):
    rng = Rng(99)
    params = [Parameter(rng.child("p", i).normal(size=(6, 5)).astype(dtype),
                        name=f"p{i}") for i in range(3)]
    optimizer = optimizer_cls(params, **kwargs)
    optimizer.fused = fused
    for step in range(steps):
        grads = {f"p{i}": rng.child("g", step, i).normal(size=(6, 5))
                 for i in range(3)}
        optimizer.step_with(grads)
    return params, optimizer


BLOCK_EDGE_SHAPES = [(), (0,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,),
                     (2 * BLOCK + 3,), (3, BLOCK // 3 + 1)]
BLOCK_EDGE_IDS = ["scalar", "empty", "block-1", "block", "block+1",
                  "2block+3", "rows"]
#: Parameters p0..p3 whose runs split inside one, at 2 workers and at 3.
SPLIT_SHAPES = [(BLOCK + 1,), (3, BLOCK // 3 + 1), (2 * BLOCK + 3,), ()]
FUSED_OPTIMIZERS = [
    (Adam, {"lr": 1e-3}),
    (Adam, {"lr": 1e-3, "weight_decay": 0.01}),
    (SGD, {"lr": 0.05, "momentum": 0.9}),
    (SGD, {"lr": 0.05, "weight_decay": 0.01}),
    (SGD, {"lr": 0.05, "momentum": 0.9, "weight_decay": 0.01}),
]
FUSED_IDS = ["adam", "adam-wd", "sgd-momentum", "sgd-wd", "sgd-momentum-wd"]


class TestFusedOptimizerSteps:
    @pytest.mark.parametrize("kwargs", [
        {"lr": 1e-3},
        {"lr": 1e-3, "weight_decay": 0.01},
        {"lr": 3e-4, "betas": (0.8, 0.95), "eps": 1e-6, "weight_decay": 0.1},
    ])
    def test_adam_fused_matches_reference(self, kwargs):
        fast_params, fast_opt = run_steps(Adam, fused=True, **kwargs)
        ref_params, ref_opt = run_steps(Adam, fused=False, **kwargs)
        for fast, ref in zip(fast_params, ref_params):
            np.testing.assert_array_equal(fast.data, ref.data)
        assert_optimizers_equal(fast_opt.state_dict(), ref_opt.state_dict())

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.05},
        {"lr": 0.05, "momentum": 0.9},
        {"lr": 0.05, "momentum": 0.9, "weight_decay": 0.01},
        {"lr": 0.05, "weight_decay": 0.01},
    ])
    def test_sgd_fused_matches_reference(self, kwargs):
        fast_params, fast_opt = run_steps(SGD, fused=True, **kwargs)
        ref_params, ref_opt = run_steps(SGD, fused=False, **kwargs)
        for fast, ref in zip(fast_params, ref_params):
            np.testing.assert_array_equal(fast.data, ref.data)
        assert_optimizers_equal(fast_opt.state_dict(), ref_opt.state_dict())

    def test_float32_params_fall_back_to_reference_kernel(self):
        # Parameter normally forces float64; if param data is swapped to
        # float32, the fused kernels' dtype propagation would differ from
        # the reference expressions, so _fused_ok must route such
        # optimizers through the reference kernel — and stay bit-stable.
        def build(fused):
            rng = Rng(7)
            params = [Parameter(rng.child("p", i).normal(size=(4, 3)),
                                name=f"p{i}") for i in range(2)]
            for param in params:
                param.data = param.data.astype(np.float32)
            optimizer = Adam(params, lr=1e-3, weight_decay=0.01)
            optimizer.fused = fused
            for step in range(10):
                optimizer.step_with(
                    {f"p{i}": rng.child("g", step, i).normal(size=(4, 3))
                     for i in range(2)})
            return params, optimizer

        fast_params, fast_opt = build(fused=True)
        assert not fast_opt._fused_ok
        ref_params, _ = build(fused=False)
        for fast, ref in zip(fast_params, ref_params):
            np.testing.assert_array_equal(fast.data, ref.data)

    def test_scratch_buffers_allocated_once(self):
        # One BLOCK-element pair per optimizer, whatever the parameter
        # sizes: a tensor larger than BLOCK adds no scratch of its own.
        gen = np.random.default_rng(3)
        params = [Parameter(gen.standard_normal(2 * BLOCK + 5), name="big"),
                  Parameter(gen.standard_normal((6, 5)), name="small")]
        optimizer = Adam(params, lr=1e-3)
        ids = []
        for _ in range(3):
            optimizer.step_with({p.name: gen.standard_normal(p.shape)
                                 for p in params})
            assert sum(buf.nbytes for buf in optimizer._scratch) \
                == 2 * BLOCK * 8
            ids.append(tuple(id(buf) for buf in optimizer._scratch))
        assert ids[0] == ids[1] == ids[2]

    @pytest.mark.parametrize("shape", BLOCK_EDGE_SHAPES, ids=BLOCK_EDGE_IDS)
    @pytest.mark.parametrize("optimizer_cls,kwargs", FUSED_OPTIMIZERS,
                             ids=FUSED_IDS)
    def test_block_edges_match_reference(self, optimizer_cls, kwargs, shape):
        # Weight decay makes the gradient alias the scratch inside a block;
        # a tensor that ends mid-block cuts the scratch to a shorter slice.
        runs = []
        for fused in (True, False):
            gen = np.random.default_rng(17)
            param = Parameter(np.zeros(0), name="w")
            param.data = gen.standard_normal(shape)
            optimizer = optimizer_cls([param], **kwargs)
            optimizer.fused = fused
            for _ in range(3):
                optimizer.step_with({"w": gen.standard_normal(shape)})
            runs.append((param, optimizer))
        (fast, fast_opt), (ref, ref_opt) = runs
        assert_same_bits(fast.data, ref.data)
        for key, slot in fast_opt._slots("w").items():
            assert_same_bits(slot, ref_opt._slots("w")[key])

    @pytest.mark.parametrize("shapes,names", [
        *(([shape], None) for shape in BLOCK_EDGE_SHAPES),
        # Whatever the width, some run is cut inside a parameter.
        (SPLIT_SHAPES, None), (SPLIT_SHAPES, ["p0", "p2", "p3"]),
    ], ids=[*BLOCK_EDGE_IDS, "split", "zero-names"])
    @pytest.mark.parametrize("optimizer_cls,kwargs", FUSED_OPTIMIZERS,
                             ids=FUSED_IDS)
    @pytest.mark.parametrize("width", [2, 3])
    def test_pool_split_matches_reference(self, width, optimizer_cls, kwargs,
                                          shapes, names):
        # A published pool splits a step of 2 * BLOCK elements or more
        # into runs of whole blocks, each over its own scratch pair.
        def run(fused, pool):
            gen = np.random.default_rng(29)
            params = []
            for index, shape in enumerate(shapes):
                param = Parameter(np.zeros(0), name=f"p{index}")
                param.data = gen.standard_normal(shape)
                params.append(param)
            optimizer = optimizer_cls(params, **kwargs)
            optimizer.fused = fused
            with published(pool):
                for _ in range(3):
                    optimizer.step_with({p.name: gen.standard_normal(p.shape)
                                         for p in params}, names=names)
            return params, optimizer

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # runs interleave as often as can be
        try:
            with ThreadPoolExecutor(width) as pool, mock.patch.object(
                    pool, "submit", wraps=pool.submit) as submit:
                split, split_opt = run(True, pool)
        finally:
            sys.setswitchinterval(interval)
        stepped = sum(p.data.size for p in split
                      if names is None or p.name in names)
        assert bool(submit.call_count) == (stepped >= 2 * BLOCK)
        assert len(split_opt._scratch) <= 2 * width
        for params, optimizer in (run(True, None), run(False, None)):
            for param, got in zip(params, split):
                assert_same_bits(got.data, param.data)
                for key, slot in split_opt._slots(got.name).items():
                    assert_same_bits(slot, optimizer._slots(param.name)[key])


class TestLiveStepThreads:
    def test_live_steps_start_no_thread(self):
        """Training publishes no pool: Adam steps of 2 * BLOCK elements and
        more under an inline LowDiffCheckpointer start no thread, and each
        replica's optimizer holds exactly one scratch pair."""
        trainer = DataParallelTrainer(
            model_builder=lambda rank: MLP(128, [512], 10, rng=Rng(0)),
            optimizer_builder=lambda m: Adam(m, lr=1e-3),
            loss_fn=CrossEntropyLoss(),
            dataset=SyntheticClassification(128, 10, batch_size=4, seed=1),
            num_workers=2,
            compressor_builder=lambda: TopKCompressor(0.1))
        assert sum(p.data.size for p in trainer.workers[0].model.parameters()) \
            >= 2 * BLOCK
        checkpointer = LowDiffCheckpointer(
            CheckpointStore(InMemoryBackend()),
            CheckpointConfig(full_every_iters=2, batch_size=1))
        checkpointer.attach(trainer)
        with mock.patch.object(threading.Thread, "start", autospec=True,
                               side_effect=threading.Thread.start) as start:
            for _ in range(3):
                trainer.step()
        checkpointer.finalize()
        assert start.call_count == 0
        for worker in trainer.workers:
            assert len(worker.optimizer._scratch) == 2


def window_steps(gen, params, count):
    """``count`` steps of gradients over ``params``: sparse payloads listing
    a quarter of each tensor in unsorted order plus one coordinate twice
    more (three addends on it), with -0.0 and float32-subnormal values;
    every third step a dense dict."""
    shapes = {param.name: param.shape for param in params}
    steps = []
    for step in range(count):
        if step % 3 == 2:
            steps.append({name: gen.standard_normal(shape)
                          for name, shape in shapes.items()})
            continue
        entries = {}
        for param in params:
            indices = gen.permutation(param.data.size)[:-(-param.data.size // 4)]
            indices = np.concatenate([indices, indices[:1], indices[:1]])
            values = gen.standard_normal(indices.size)
            values[::5] = -0.0
            values[1::7] = 1e-40
            entries[param.name] = (indices, values)
        steps.append(SparseGradient(entries, shapes))
    return steps


class TestReplayWindows:
    """A window ``step_with([g1, g2, ...])`` — every step applied to one
    block before the next block — is bit-equal to one reference
    ``step_with`` per step, wherever the windows are cut."""

    STEPS = 4

    @pytest.mark.parametrize("shapes,names", [
        *(([shape], None) for shape in BLOCK_EDGE_SHAPES),
        (SPLIT_SHAPES, None), (SPLIT_SHAPES, ["p0", "p2", "p3"]),
    ], ids=[*BLOCK_EDGE_IDS, "split", "zero-names"])
    @pytest.mark.parametrize("optimizer_cls,kwargs", FUSED_OPTIMIZERS,
                             ids=FUSED_IDS)
    @pytest.mark.parametrize("width", [None, 1, 2, 3],
                             ids=["inline", "pool1", "pool2", "pool3"])
    def test_window_matches_step_by_step(self, width, optimizer_cls, kwargs,
                                         shapes, names):
        def run(fused, cuts, pool):
            gen = np.random.default_rng(41)
            params = []
            for index, shape in enumerate(shapes):
                param = Parameter(np.zeros(0), name=f"p{index}")
                param.data = gen.standard_normal(shape)
                params.append(param)
            optimizer = optimizer_cls(params, **kwargs)
            optimizer.fused = fused
            steps = window_steps(gen, params, self.STEPS)
            with published(pool):
                for low, high in zip(cuts, cuts[1:]):
                    optimizer.step_with(steps[low:high], names=names)
            assert optimizer.step_count == self.STEPS
            return params, optimizer

        reference = run(False, range(self.STEPS + 1), None)
        pool = ThreadPoolExecutor(width) if width else None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # runs densify and step interleaved
        try:
            # One window, then two cut at every position.
            for cut in range(1, self.STEPS + 1):
                params, optimizer = run(True, sorted({0, cut, self.STEPS}),
                                        pool)
                for got, want in zip(params, reference[0]):
                    assert_same_bits(got.data, want.data)
                    for key, slot in optimizer._slots(got.name).items():
                        assert_same_bits(slot,
                                         reference[1]._slots(want.name)[key])
        finally:
            sys.setswitchinterval(interval)
            if pool is not None:
                pool.shutdown()

    def test_float32_window_falls_back_step_by_step(self):
        runs = []
        for window in (True, False):
            gen = np.random.default_rng(5)
            params = [Parameter(gen.standard_normal((4, 3)), name=f"p{i}")
                      for i in range(2)]
            for param in params:
                param.data = param.data.astype(np.float32)
            optimizer = Adam(params, lr=1e-3, weight_decay=0.01)
            steps = window_steps(gen, params, self.STEPS)
            if window:
                optimizer.step_with(steps)
            else:
                for step in steps:
                    optimizer.step_with(step)
            runs.append((params, optimizer))
        assert not runs[0][1]._fused_ok
        for got, want in zip(runs[0][0], runs[1][0]):
            assert_same_bits(got.data, want.data)
        assert_optimizers_equal(runs[0][1].state_dict(), runs[1][1].state_dict())

    @pytest.mark.parametrize("kind", ["bytes", "batched"])
    @pytest.mark.parametrize("position", range(6))
    def test_serial_replay_cuts_windows(self, position, kind):
        """Serial recovery of a 6-diff Adam chain whose diff ``position``
        either fills most of the window's byte bound (one float64 per
        parameter) or carries two steps: it replays alone, its neighbours
        in windows, and the state is bit-equal to replaying the stored
        diffs one reference ``step_with`` at a time."""
        model = MLP(6, [8], 3, rng=Rng(0))
        optimizer = Adam(model, lr=1e-2, weight_decay=0.01)
        store = CheckpointStore(InMemoryBackend())
        store.save_full(0, model.state_dict(), optimizer.state_dict())
        rng, step = Rng(3), 0
        for index in range(6):
            count = 2 if kind == "batched" and index == position else 1
            rho = 0.9 if kind == "bytes" and index == position else 0.1
            payload = TopKCompressor(rho).compress({
                name: rng.child("g", index, name).normal(size=p.shape)
                for name, p in model.named_parameters()})
            store.save_diff(step + 1, step + count, payload, count=count)
            step += count
        budget = 8 * sum(p.data.size for p in model.parameters())
        sizes = [store.load_diff(record).nbytes for record in
                 store.diffs_after(0)]
        small = [size for index, size in enumerate(sizes) if index != position]
        assert sum(small) <= budget < sizes[position] + min(small) \
            or kind == "batched"

        replayed = MLP(6, [8], 3, rng=Rng(1))
        replayed_opt = Adam(replayed, lr=1e-2, weight_decay=0.01)
        with CallCounts() as counts:
            result = serial_recover(store, replayed, replayed_opt)
        windows = (position > 0) + 1 + (position < 5)
        assert counts.calls(Optimizer.step_with) == windows
        assert (result.step, result.diffs_loaded, result.apply_ops) \
            == (step, 6, 6)

        reference = MLP(6, [8], 3, rng=Rng(1))
        reference_opt = Adam(reference, lr=1e-2, weight_decay=0.01)
        reference_opt.fused = False
        reference.load_state_dict(model.state_dict())
        reference_opt.load_state_dict(optimizer.state_dict())
        for record in store.diffs_after(0):
            reference_opt.step_with(store.load_diff(record))
            reference_opt.step_count += record.count - 1
        for name, value in reference.state_dict().items():
            assert_same_bits(replayed.state_dict()[name], value)
        assert_optimizers_equal(replayed_opt.state_dict(),
                                reference_opt.state_dict())


#: Tensors of every awkward size: 0-d, empty, one element, and two plain.
PAYLOAD_SHAPES = {"scalar": (), "empty": (0,), "one": (1,), "matrix": (3, 4),
                  "vector": (9,)}
OPTIMIZERS = [
    (SGD, {"lr": 0.05}),
    (SGD, {"lr": 0.05, "momentum": 0.9}),
    (SGD, {"lr": 0.05, "weight_decay": 0.01}),
    (SGD, {"lr": 0.05, "momentum": 0.9, "weight_decay": 0.01}),
    (Adam, {"lr": 1e-3, "weight_decay": 0.01}),
]


def signed_zero_params(seed, dtype):
    """Parameters over ``PAYLOAD_SHAPES`` with a third of them -0.0 (the
    data is set after construction, which would make a 0-d value 1-d)."""
    gen = np.random.default_rng(seed)
    params = []
    for name, shape in PAYLOAD_SHAPES.items():
        data = gen.standard_normal(shape)
        data[gen.random(shape) < 1 / 3] = -0.0
        param = Parameter(np.zeros(0), name=name)
        param.data = data.astype(dtype)
        params.append(param)
    return params


def sparse_payload(gen, params, duplicates):
    """Unsorted indices; -0.0 and +0.0 values, some on -0.0 parameters."""
    entries = {}
    for param in params:
        size = param.data.size
        indices = gen.choice(size, gen.integers(0, size + 1), replace=False)
        if duplicates and indices.size:
            indices = np.concatenate([indices, gen.choice(indices, 2)])
        values = gen.standard_normal(indices.size)
        values[gen.random(indices.size) < 0.3] = -0.0
        values[gen.random(indices.size) < 0.1] = 0.0
        entries[param.name] = (indices, values)
    return SparseGradient(entries, PAYLOAD_SHAPES)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    unsigned = np.uint64 if a.dtype == np.float64 else np.uint32
    np.testing.assert_array_equal(a.view(unsigned), b.view(unsigned))


def step_allocation_peak(cls, kwargs, gen, duplicates):
    """Peak bytes two ``step_with(payload)`` calls allocate beyond the
    scratch pair, on parameters of 2 * BLOCK + 5 and 3 * (BLOCK // 3 + 1)
    elements, and the smaller's bytes.  Each payload lists an eighth of
    each tensor, unsorted; a repeated index when ``duplicates``."""
    params = [Parameter(gen.standard_normal(2 * BLOCK + 5), name="big"),
              Parameter(gen.standard_normal((3, BLOCK // 3 + 1)), name="rows")]
    optimizer = cls(params, **kwargs)
    payloads = []
    for _ in range(2):
        entries = {}
        for param in params:
            indices = gen.permutation(param.data.size)[:param.data.size // 8]
            if duplicates:
                indices = np.concatenate([indices, indices[:2]])
            entries[param.name] = (indices, gen.standard_normal(indices.size))
        payloads.append(SparseGradient(entries,
                                       {p.name: p.shape for p in params}))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for payload in payloads:
            optimizer.step_with(payload)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak - 2 * BLOCK * 8, min(param.data.nbytes for param in params)


class TestSparseStepWith:
    """``step_with(payload)`` == ``step_with(payload.decompress())``, bit
    for bit, whichever route the optimizer takes."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           optimizer=st.sampled_from(OPTIMIZERS),
           dtype=st.sampled_from([np.float64, np.float32]),
           duplicates=st.booleans(), subset=st.booleans(),
           lr_change=st.booleans())
    def test_payload_matches_its_decompress(self, seed, optimizer, dtype,
                                            duplicates, subset, lr_change):
        cls, kwargs = optimizer
        gen = np.random.default_rng(seed)
        pairs = []
        for _ in range(2):
            params = signed_zero_params(seed, dtype)
            pairs.append((params, cls(params, **kwargs)))
        (sparse_params, sparse_opt), (dense_params, dense_opt) = pairs
        names = None
        if subset:
            names = [name for name in PAYLOAD_SHAPES if gen.random() < 0.5]
        for step in range(3):
            if lr_change and step == 2:
                sparse_opt.lr = dense_opt.lr = sparse_opt.lr * 0.3
            payload = sparse_payload(gen, sparse_params, duplicates)
            sparse_opt.step_with(payload, names=names)
            dense_opt.step_with(payload.decompress(), names=names)
            for got, want in zip(sparse_params, dense_params):
                assert_same_bits(got.data, want.data)
                for key, slot in sparse_opt._slots(got.name).items():
                    assert_same_bits(slot, dense_opt._slots(got.name)[key])
            assert sparse_opt.step_count == dense_opt.step_count == step + 1
        assert sparse_opt.sparse_exact == (
            cls is SGD and len(kwargs) == 1 and dtype == np.float64)
        # No step of a model larger than 2 * BLOCK allocates an array the
        # size of a parameter: the fused kernel densifies block by block,
        # a scatter and its duplicate check allocate O(k).  (The float32
        # reference kernel allocates temporaries by design.)
        if dtype == np.float64:
            peak, smallest = step_allocation_peak(cls, kwargs, gen, duplicates)
            assert peak < smallest

    @pytest.mark.parametrize("optimizer", [OPTIMIZERS[0], OPTIMIZERS[-1]])
    @pytest.mark.parametrize("entries,shapes,names", [
        ({"p0": [0], "p1": [1], "nope": [0]}, {"p0": (3,), "p1": (2, 2),
                                               "nope": (1,)}, None),
        ({"p0": [0]}, {"p0": (3,)}, None),
        ({"p0": [0]}, {"p0": (3,)}, ["nope"]),
        ({"p0": [0]}, {"p0": (3,)}, ["p0", "p1"]),
        ({"p0": [0], "p1": [1]}, {"p0": (4,), "p1": (2, 2)}, None),
        ({"p0": [0], "p1": [1]}, {"p0": (3,), "p1": (4,)}, ["p1"]),
    ], ids=["unknown", "missing", "names-unknown", "names-missing",
            "shape", "names-shape"])
    def test_same_errors_as_dense(self, optimizer, entries, shapes, names):
        cls, kwargs = optimizer
        payload = SparseGradient(
            {name: (np.array(idx), np.ones(len(idx))) for name, idx
             in entries.items()}, shapes)
        raised = []
        for grads in (payload, payload.decompress()):
            params = [Parameter(np.zeros(3), name="p0"),
                      Parameter(np.zeros((2, 2)), name="p1")]
            opt = cls(params, **kwargs)
            with pytest.raises((KeyError, ValueError)) as info:
                opt.step_with(grads, names=names)
            raised.append((info.type, str(info.value), opt.step_count))
        assert raised[0] == raised[1]


class TestDuplicateCheckStamp:
    """``has_duplicates`` sorts the ``k`` indices of a run that is neither
    increasing nor decoder-proven, once per such run; the bench's live and
    restored payloads never reach that branch."""

    @staticmethod
    def stamps_per_check():
        calls, check = [], SparseGradient.has_duplicates

        def spy(payload):
            with CallCounts() as counts:
                result = check(payload)
            calls.append(counts.builtin_named("sort"))
            return result

        return calls, mock.patch.object(SparseGradient, "has_duplicates", spy)

    def test_only_an_unsorted_run_is_stamped(self):
        calls, patched = self.stamps_per_check()
        shapes = {"w": (10,)}
        with patched:
            for indices, repeats in (([3, 1, 7], False), ([3, 1, 3], True),
                                     ([1, 3, 7], False)):
                assert SparseGradient({"w": (np.array(indices), np.ones(3))},
                                      shapes).has_duplicates() == repeats
        assert calls == [1, 1, 0]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_bench_workloads_never_stamp(self, name):
        """Each bench workload, quick shape, persisted inline: a training
        run, then a serial and a parallel recovery."""
        spec = WORKLOADS[name].quick()
        checkpointer = LowDiffCheckpointer(
            CheckpointStore(InMemoryBackend()),
            dataclasses.replace(spec.config, async_persist=False))
        trainer = spec.trainer(7)
        calls, patched = self.stamps_per_check()
        with patched:
            checkpointer.attach(trainer)
            trainer.run(spec.iterations)
            checkpointer.finalize()
            for parallel in (False, True):
                model = spec.model(7)
                checkpointer.recover(model, spec.make_optimizer(model),
                                     parallel=parallel)
        assert calls and sum(calls) == 0


class TestSparseReplayCounts:
    """Replay cost as counts: sparse-exact SGD applies each diff as one
    ``subtract.at`` per tensor — no dense kernel, no dense buffer — while
    Adam replays windows of diffs through its dense kernel, densifying
    each diff block by block into the scratch pair it already owns."""

    DIFFS = 4

    def replay(self, optimizer_cls, rho=0.5, **kwargs):
        model = MLP(6, [8], 3, rng=Rng(0))
        optimizer = optimizer_cls(model, lr=1e-2, **kwargs)
        store = CheckpointStore(InMemoryBackend())
        store.save_full(0, model.state_dict(), optimizer.state_dict())
        rng, compressor = Rng(1), TopKCompressor(rho)
        for step in range(1, self.DIFFS + 1):
            payload = compressor.compress({
                name: rng.child("g", step, name).normal(size=p.shape)
                for name, p in model.named_parameters()})
            optimizer.step_with(payload)
            store.save_diff(step, step, payload)
        restored = MLP(6, [8], 3, rng=Rng(2))
        restored_opt = optimizer_cls(restored, lr=1e-2, **kwargs)
        with CallCounts() as counts:
            serial_recover(store, restored, restored_opt)
        assert_states_equal(restored.state_dict(), model.state_dict())
        assert_optimizers_equal(restored_opt.state_dict(),
                                optimizer.state_dict())
        return counts, restored_opt, len(optimizer.param_names)

    def test_sgd_scatters(self):
        counts, optimizer, tensors = self.replay(SGD)
        assert optimizer.sparse_exact
        assert counts.calls(SGD._update_param_fused) == 0
        assert counts.calls(SGD._update_param) == 0
        assert counts.calls(DenseScratch.__init__) == 0
        assert optimizer._scratch is None
        assert counts.calls(SGD._update_param_sparse) == self.DIFFS * tensors
        assert counts.builtin_named("at") == self.DIFFS * tensors

    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (Adam, {}), (SGD, {"momentum": 0.9})])
    def test_dense_optimizers_densify_once_per_diff(self, optimizer_cls,
                                                    kwargs):
        # A window holds diffs while their decoded bytes fit one float64
        # per parameter: three 168-byte diffs fit the MLP's 83 parameters
        # (664 bytes), the fourth opens a second window.
        counts, optimizer, tensors = self.replay(optimizer_cls, rho=0.25,
                                                 **kwargs)
        windows = 2
        assert not optimizer.sparse_exact
        assert counts.calls(Optimizer.step_with) == windows
        assert counts.calls(optimizer_cls._update_param_fused) \
            == windows * tensors
        assert counts.calls(DenseScratch.__init__) == 0
        assert counts.calls(SparseGradient.decompress_into) == 0
        # Each tensor is one block: one np.add.at per tensor per diff.
        assert counts.builtin_named("at") == self.DIFFS * tensors
        assert counts.calls(SGD._update_param_sparse) == 0


def make_trainer(num_workers=4, seed=21, rank_seed=lambda rank: 0):
    return DataParallelTrainer(
        model_builder=lambda rank: MLP(8, [16, 16], 4,
                                       rng=Rng(seed + rank_seed(rank))),
        optimizer_builder=lambda m: Adam(m, lr=1e-3, weight_decay=0.01),
        loss_fn=CrossEntropyLoss(),
        dataset=SyntheticClassification(8, 4, batch_size=4, seed=seed + 1),
        num_workers=num_workers,
        compressor_builder=lambda: TopKCompressor(0.2),
    )


class TestDedupUpdates:
    """Every replica applies the synchronized update itself and stays
    bit-identical; nothing copies one replica's state into another."""

    def test_matches_non_dedup_bit_exact(self):
        trainer = make_trainer()
        for _ in range(10):
            trainer.step()
        assert trainer.replicas_consistent()
        reference = trainer.workers[0].optimizer.state_dict()
        for worker in trainer.workers[1:]:
            assert_optimizers_equal(worker.optimizer.state_dict(), reference)

    def test_divergence_detected_by_signature_audit(self):
        """The init-time signature check rejects a rank-dependent builder."""
        with pytest.raises(ValueError, match="rank-independent"):
            make_trainer(rank_seed=lambda rank: rank)

    def test_divergence_on_non_audit_step_is_repaired_by_copyto(self):
        """Replica drift persists: no step overwrites one replica with
        another's state."""
        trainer = make_trainer()
        trainer.step()
        next(iter(dict(trainer.workers[1].model.named_parameters()).values())) \
            .data[:] += 1.0
        trainer.step()
        assert not trainer.replicas_consistent()

    def test_dense_path_dedups_too(self):
        trainer = DataParallelTrainer(
            model_builder=lambda rank: MLP(8, [16], 4, rng=Rng(3)),
            optimizer_builder=lambda m: SGD(m, lr=0.05, momentum=0.9),
            loss_fn=CrossEntropyLoss(),
            dataset=SyntheticClassification(8, 4, batch_size=4, seed=4),
            num_workers=3)
        for _ in range(8):
            trainer.step()
        assert trainer.replicas_consistent()
        reference = trainer.workers[0].optimizer.state_dict()
        for worker in trainer.workers[1:]:
            assert_optimizers_equal(worker.optimizer.state_dict(), reference)
