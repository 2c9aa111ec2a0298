"""Tests for serial and parallel recovery (§VI).

One pipeline restores every store, so the store-touching cases run over
S ∈ {1, 2, 4}: each ``Test…`` class builds its stores through the
``make_store`` fixture, and the ``…Shards2`` / ``…Shards4`` subclasses at
the bottom rerun it against the sharded facade.  (Sharded == unsharded
bit-equality itself is pinned in ``tests/test_zero_sharded.py``.)
"""

import math
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import SparseGradient, TopKCompressor
from repro.core import recovery
from repro.core.recovery import (
    MergeFold,
    merge_payloads,
    merge_tree_depth,
    parallel_recover,
    serial_recover,
)
from repro.optim import SGD, Adam
from repro.optim.optimizer import Optimizer
from repro.storage import CheckpointStore, InMemoryBackend
from repro.storage import ShardedCheckpointStore
from tests.helpers import (
    CallCounts,
    Recorder,
    assert_optimizers_equal,
    assert_states_equal,
    fan_out,
    fresh_model_opt,
    populate_store,
    tree_merge,
)
from tests.test_costs import check
from tests.test_crash_contract import replay


@pytest.fixture
def make_store(request):
    """Factory for the store under test: the plain store for the class's
    ``shards == 1``, the sharded facade over the same backend otherwise."""
    shards = request.cls.shards

    def make(backend=None):
        backend = InMemoryBackend() if backend is None else backend
        if shards == 1:
            return CheckpointStore(backend)
        return ShardedCheckpointStore(backend, shards)
    return make


def blob_at(store, start):
    """``(sub_store, record)`` of the last shard's blob of the diff that
    starts at ``start`` — the one blob a fault drill damages."""
    view = next(v for v in store.diffs_after(0) if v.start == start)
    return store.parts(view)[-1]


def pool_threads():
    """Recovery pool threads still alive (none may outlive a call)."""
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("ThreadPoolExecutor")]


def train_with_snapshots(store, model, optimizer, rng, steps=6,
                         full_at=None):
    """Full at 0 (and after step ``full_at``) + one diff per step;
    snapshot model state after each."""
    compressor = TopKCompressor(0.5)
    store.save_full(0, model.state_dict(), optimizer.state_dict())
    snapshots = {0: model.state_dict()}
    for step in range(1, steps + 1):
        grads = {name: rng.child("g", step, name).normal(size=p.shape)
                 for name, p in model.named_parameters()}
        payload = compressor.compress(grads)
        optimizer.step_with(payload.decompress())
        store.save_diff(step, step, payload)
        if step == full_at:
            store.save_full(step, model.state_dict(), optimizer.state_dict())
        snapshots[step] = model.state_dict()
    return snapshots


class TestMergeTreeDepth:
    @pytest.mark.parametrize("count,expected", [
        (0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4),
    ])
    def test_depth(self, count, expected):
        assert merge_tree_depth(count) == expected


class TestSerialRecovery:
    shards = 1

    def test_bit_exact_with_adam(self, rng, make_store):
        store = make_store()
        model, optimizer = fresh_model_opt(Adam)
        final_model, final_opt = populate_store(store, model, optimizer, rng)
        target_model, target_opt = fresh_model_opt(Adam, seed=9)
        result = serial_recover(store, target_model, target_opt)
        assert result.diffs_loaded == 6
        assert result.step == 6
        assert_states_equal(target_model.state_dict(), final_model)
        for name in final_opt["slots"]:
            np.testing.assert_array_equal(
                target_opt.state_dict()["slots"][name]["m"],
                final_opt["slots"][name]["m"])

    def test_bit_exact_with_sgd(self, rng, make_store):
        store = make_store()
        model, optimizer = fresh_model_opt(SGD, lr=0.05)
        final_model, _ = populate_store(store, model, optimizer, rng)
        target_model, target_opt = fresh_model_opt(SGD, seed=9, lr=0.05)
        serial_recover(store, target_model, target_opt)
        assert_states_equal(target_model.state_dict(), final_model)

    def test_no_full_checkpoint_raises(self, make_store):
        store = make_store()
        model, optimizer = fresh_model_opt()
        with pytest.raises(FileNotFoundError):
            serial_recover(store, model, optimizer)

    def test_recovery_from_middle_full(self, rng, make_store):
        """Recovery starts from the *latest* full and replays the tail."""
        store = make_store()
        model, optimizer = fresh_model_opt()
        final = train_with_snapshots(store, model, optimizer, rng,
                                     full_at=3)[6]
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(store, target_model, target_opt)
        assert result.full_step == 3
        assert result.diffs_loaded == 3  # only steps 4..6 replayed
        assert_states_equal(target_model.state_dict(), final)

    def test_batched_records_advance_step_count(self, rng, make_store):
        store = make_store()
        model, optimizer = fresh_model_opt()
        populate_store(store, model, optimizer, rng, steps=6, batch=3)
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(store, target_model, target_opt)
        # 2 batched records, each representing 3 gradients.
        assert result.diffs_loaded == 2
        assert result.gradients_replayed == 6
        assert target_opt.step_count == 6

    def test_gap_truncates_recovery(self):
        replay("persist 4; damage diff delete -1 2; reopen", shards=self.shards)


class TestCorruptionFallback:
    """Recovery under a stale or partially corrupt checkpoint series: fixed
    rule sequences of the crash-contract machine
    (``tests/test_crash_contract.py``), and replay windows cut short."""

    shards = 1

    def test_stale_manifest_falls_back_bit_exactly(self):
        replay("persist 4; full; persist 2; damage full delete -1 -1; reopen",
               shards=self.shards)

    def test_corrupt_mid_chain_diff_truncates_never_skips(self):
        replay("persist 6; damage diff flip -1 3; reopen", shards=self.shards)

    @pytest.mark.parametrize("position", range(8))
    def test_corrupt_diff_inside_a_window_truncates_there(self, rng,
                                                          make_store,
                                                          position):
        """Eight Adam diffs of 18 coordinates replay as two windows of four
        (four fit one float64 per parameter, five do not).  A corrupt diff
        at any position — first, inside or last of either window — ends
        the replay there, bit-exact at the step before it, with the same
        counts as replaying one diff at a time."""
        store = make_store()
        model, optimizer = fresh_model_opt()
        compressor = TopKCompressor(0.2)
        store.save_full(0, model.state_dict(), optimizer.state_dict())
        snapshots = {0: (model.state_dict(), optimizer.state_dict())}
        for step in range(1, 9):
            payload = compressor.compress({
                name: rng.child("g", step, name).normal(size=p.shape)
                for name, p in model.named_parameters()})
            optimizer.step_with(payload)
            store.save_diff(step, step, payload)
            snapshots[step] = (model.state_dict(), optimizer.state_dict())
        intact_model, intact_opt = fresh_model_opt(seed=9)
        with CallCounts() as counts:
            serial_recover(store, intact_model, intact_opt)
        assert counts.calls(Optimizer.step_with) == 2
        sub, bad = blob_at(store, position + 1)
        raw = bytearray(sub.backend.read(bad.key))
        raw[len(raw) // 2] ^= 0xFF
        sub.backend.write(bad.key, bytes(raw))
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(store, target_model, target_opt)
        assert (result.step, result.diffs_loaded, result.corrupt_diffs_skipped,
                result.apply_ops) == (position, position, 1, position)
        assert sub.quarantined == [bad.key] and len(store.quarantined) == 1
        assert_states_equal(target_model.state_dict(), snapshots[position][0])
        assert_optimizers_equal(target_opt.state_dict(),
                                snapshots[position][1])

    def test_deleted_mid_chain_diff_truncates_never_skips(self):
        replay("persist 6; damage diff delete -1 3; reopen", shards=self.shards)

    def test_parallel_recovery_truncates_on_corruption(self):
        replay("persist 6; damage diff flip -1 4; reopen", shards=self.shards,
               optimizer="sgd")


class TestParallelRecovery:
    shards = 1

    def test_exact_for_sgd(self, rng, make_store):
        """SGD without momentum is linear: tree-merged recovery is exact."""
        store = make_store()
        model, optimizer = fresh_model_opt(SGD, lr=0.05)
        final_model, _ = populate_store(store, model, optimizer, rng)
        target_model, target_opt = fresh_model_opt(SGD, seed=9, lr=0.05)
        result = parallel_recover(store, target_model, target_opt)
        # Payload values are stored fp32 on the wire; each tree merge
        # rounds to fp32, so exactness is up to fp32 resolution.
        assert_states_equal(target_model.state_dict(), final_model,
                            exact=False, atol=1e-5)
        assert result.merge_ops == 5 * self.shards
        assert result.merge_depth == math.ceil(math.log2(6))
        assert result.apply_ops == 1
        assert target_opt.step_count == 6

    def test_merge_counts_log_depth(self, rng, make_store):
        for steps in (2, 4, 7, 16):
            store = make_store()
            model, optimizer = fresh_model_opt(SGD, lr=0.05, seed=steps)
            populate_store(store, model, optimizer, rng.child(steps),
                           steps=steps)
            target_model, target_opt = fresh_model_opt(SGD, seed=99, lr=0.05)
            result = parallel_recover(store, target_model, target_opt)
            assert result.merge_ops == (steps - 1) * self.shards
            assert result.merge_depth == math.ceil(math.log2(steps))

    def test_threaded_matches_single_threaded(self, rng, make_store):
        """Thread count is invisible in the result: the pool only changes
        where merges run, never their pairing or order."""
        results = {}
        for workers in (1, 4):
            store = make_store()
            model, optimizer = fresh_model_opt(SGD, lr=0.05)
            populate_store(store, model, optimizer, rng.child("same-data"))
            target_model, target_opt = fresh_model_opt(SGD, seed=9, lr=0.05)
            with fan_out(workers):
                result = parallel_recover(store, target_model, target_opt)
            results[workers] = (target_model.state_dict(), result)
        state_1, result_1 = results[1]
        state_4, result_4 = results[4]
        assert_states_equal(state_1, state_4)  # bit-exact across pools
        assert (result_1.merge_ops, result_1.merge_depth, result_1.step) \
            == (result_4.merge_ops, result_4.merge_depth, result_4.step)

    def test_threaded_truncates_on_corrupt_decode(self, rng, make_store):
        """A corrupt blob surfacing from a pool decode truncates the chain
        exactly like the serial path (InMemoryBackend opts into parallel
        reads, so both threaded stages are exercised)."""
        store = make_store()
        model, optimizer = fresh_model_opt(SGD, lr=0.05)
        snapshots = train_with_snapshots(store, model, optimizer, rng)
        sub, bad = blob_at(store, 5)
        sub.backend.write(bad.key, b"\x00" * 16)
        target_model, target_opt = fresh_model_opt(SGD, seed=9, lr=0.05)
        with fan_out(4):
            result = parallel_recover(store, target_model, target_opt)
        assert result.step == 4
        assert result.corrupt_diffs_skipped == 1
        # Every shard truncates at the same position; only the failing
        # shard's blob is quarantined.
        assert sub.quarantined == [bad.key] and len(store.quarantined) == 1
        assert_states_equal(target_model.state_dict(), snapshots[4],
                            exact=False, atol=1e-5)
        assert not pool_threads()

    def test_threaded_truncates_on_missing_read(self, rng, make_store):
        """A missing key surfacing from a parallel read truncates too."""
        store = make_store()
        model, optimizer = fresh_model_opt(SGD, lr=0.05)
        snapshots = train_with_snapshots(store, model, optimizer, rng)
        sub, gone = blob_at(store, 4)
        sub.backend.delete(gone.key)
        target_model, target_opt = fresh_model_opt(SGD, seed=9, lr=0.05)
        with fan_out(4):
            result = parallel_recover(store, target_model, target_opt)
        assert result.step == 3
        assert result.corrupt_diffs_skipped == 1
        assert_states_equal(target_model.state_dict(), snapshots[3],
                            exact=False, atol=1e-5)
        assert not pool_threads()

    def test_approximate_for_adam(self, rng, make_store):
        """Adam is nonlinear: parallel recovery has gradient-accumulation
        semantics — close but not bit-equal (documented in DESIGN.md)."""
        store = make_store()
        model, optimizer = fresh_model_opt(Adam, lr=1e-3)
        final_model, _ = populate_store(store, model, optimizer, rng)
        target_model, target_opt = fresh_model_opt(Adam, seed=9, lr=1e-3)
        parallel_recover(store, target_model, target_opt)
        recovered = target_model.state_dict()
        for name in final_model:
            # Within a few step-sizes of the exact state.
            assert np.abs(recovered[name] - final_model[name]).max() < 0.05
        assert target_opt.step_count == 6

    def test_tree_merge_equals_serial_fold(self, rng):
        if self.shards > 1:
            pytest.skip("touches no store")
        payloads = [
            TopKCompressor(0.4).compress(
                {"w": rng.child(i).normal(size=(30,))})
            for i in range(7)
        ]
        serial = merge_payloads(payloads).decompress()["w"]
        # Tree order (as parallel_recover builds it).
        np.testing.assert_allclose(tree_merge(payloads).decompress()["w"],
                                   serial, atol=1e-5)

    def test_empty_diff_chain(self, rng, make_store):
        store = make_store()
        model, optimizer = fresh_model_opt()
        store.save_full(0, model.state_dict(), optimizer.state_dict())
        result = parallel_recover(store, model, optimizer)
        assert result.diffs_loaded == 0
        assert result.merge_ops == 0

    def test_exact_for_state_deltas(self, rng, make_store):
        """Naïve-DC deltas add exactly: parallel == serial, bit for bit."""
        from repro.core.differential import state_delta
        if self.shards > 1:
            pytest.skip("sharded stores persist sparse payloads only")
        store = make_store()
        model, optimizer = fresh_model_opt(Adam)
        store.save_full(0, model.state_dict(), optimizer.state_dict())
        prev_m, prev_o = model.state_dict(), optimizer.state_dict()
        for step in range(1, 6):
            grads = {name: rng.child("g", step, name).normal(size=p.shape)
                     for name, p in model.named_parameters()}
            optimizer.step_with(grads)
            cur_m, cur_o = model.state_dict(), optimizer.state_dict()
            store.save_diff(step, step,
                            state_delta(prev_m, prev_o, cur_m, cur_o,
                                        rho=0.999999))
            prev_m, prev_o = cur_m, cur_o
        serial_model, serial_opt = fresh_model_opt(seed=8)
        serial_recover(store, serial_model, serial_opt)
        par_model, par_opt = fresh_model_opt(seed=9)
        result = parallel_recover(store, par_model, par_opt)
        assert_states_equal(serial_model.state_dict(), par_model.state_dict(),
                            exact=False, atol=1e-5)
        assert serial_opt.step_count == par_opt.step_count == 5
        assert result.merge_depth == math.ceil(math.log2(5))


# The streaming fold ------------------------------------------------------------
SHAPES = {"a": (7, 9), "b": (1,), "c": (130,), "d": (4, 4, 4)}
LEAF_KINDS = ("sorted", "unsorted", "duplicates", "gaps", "zeros", "cancel")


def make_leaf(gen, kind, previous=None):
    """One chain leaf of the given shape of trouble."""
    if kind == "cancel" and previous is not None:   # sums to exact zeros
        return previous.scale(-1.0)
    entries = {}
    for name, shape in SHAPES.items():
        size = math.prod(shape)
        density = 10 ** gen.uniform(-3, math.log10(0.6))    # 0.1 % .. 60 %
        count = min(size, int(round(density * size + gen.random())))
        if kind == "gaps" and gen.random() < 0.5:
            count = 0                                   # tensor left empty
        indices = gen.choice(size, count, replace=False)
        if kind == "sorted":
            indices = np.sort(indices)
        if kind == "duplicates" and count:
            indices = np.concatenate(
                [indices, gen.choice(indices, gen.integers(1, 4))])
            gen.shuffle(indices)
        values = (gen.standard_normal(indices.size)
                  * 10.0 ** gen.integers(-3, 4, indices.size))
        if kind == "zeros" and indices.size:
            values[gen.random(indices.size) < 0.5] = 0.0
            values[gen.random(indices.size) < 0.3] = -0.0
        entries[name] = (indices, values)
    return SparseGradient(entries, SHAPES)


def store_of(leaves, shards, backend=None):
    """Full at 0 (zeros) + one diff per leaf."""
    backend = InMemoryBackend() if backend is None else backend
    store = CheckpointStore(backend) if shards == 1 \
        else ShardedCheckpointStore(backend, shards)
    store.save_full(0, {name: np.zeros(shape) for name, shape in SHAPES.items()},
                    {"type": "sgd", "lr": 1.0, "step_count": 0, "slots": {}})
    for step, leaf in enumerate(leaves, 1):
        store.save_diff(step, step, leaf)
    return store


def usable_cpus(cpus):
    """Run the block as on a host with ``cpus`` usable CPUs."""
    return mock.patch.object(os, "sched_getaffinity",
                             lambda pid: set(range(cpus)), create=True)


def recover_with(store, workers, cpus=8):
    """``parallel_recover`` on ``cpus`` usable CPUs, folding on ``min(
    workers, cpus, segments)`` threads (:func:`fan_out`), or as planned
    when ``workers`` is None; returns ``(result, applied gradients)``."""
    target = Recorder()
    with usable_cpus(cpus) if workers is None else fan_out(workers, cpus):
        result = parallel_recover(store, target, target)
    return result, target.grads


def assert_bit_equal(grads, reference):
    """Same bits, signs of zero included (``==`` would pass -0.0 for 0.0)."""
    assert set(grads) == set(reference)
    for name in reference:
        assert grads[name].dtype == reference[name].dtype == np.float64
        np.testing.assert_array_equal(
            grads[name].view(np.uint64), reference[name].view(np.uint64),
            err_msg=name)


class TestMergeFold:
    """The fold is the balanced pairwise ``add`` tree, bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(LEAF_KINDS), min_size=1,
                          max_size=33),
           shards=st.sampled_from([1, 2, 4]),
           workers=st.sampled_from([1, 2, 3, 4]))
    def test_root_is_the_pairwise_add_tree(self, seed, kinds, shards, workers):
        gen = np.random.default_rng(seed)
        leaves = []
        for kind in kinds:
            leaves.append(make_leaf(gen, kind, leaves[-1] if leaves else None))
        result, grads = recover_with(store_of(leaves, shards), workers)
        assert_bit_equal(grads, tree_merge(leaves).decompress())
        assert result.merge_ops == shards * (len(leaves) - 1)
        assert result.merge_depth == merge_tree_depth(len(leaves))
        assert result.diffs_loaded == result.step == len(leaves)
        assert 1 <= result.workers <= max(1, workers)

    def test_stack_is_a_binary_counter(self):
        """After n pushes the stack holds one node per set bit of n, and
        node (k, j) covers leaves [j*2**k, (j+1)*2**k)."""

        class Span:     # a payload that records which leaves it covers
            def __init__(self, lo, hi):
                self.lo, self.hi = lo, hi

            def add(self, other):
                assert self.hi == other.lo      # adjacent, in chain order
                return Span(self.lo, other.hi)

        fold = MergeFold()
        for n in range(1, 41):
            fold.push(Span(n - 1, n))
            assert [level for level, _ in fold.stack] == [
                k for k in reversed(range(n.bit_length())) if n >> k & 1]
            for level, node in fold.stack:
                assert node.hi - node.lo == 2 ** level
                assert node.lo % 2 ** level == 0
            assert fold.leaves == n
        root = fold.root()
        assert (root.lo, root.hi) == (0, 40)
        assert fold.stats["merge_ops"] == 39

    def test_unsorted_unique_leaves_stay_on_the_fast_path(self):
        """Single-worker top-k output is unsorted but duplicate-free: it
        must not be mistaken for the duplicate fallback."""
        gen = np.random.default_rng(5)
        leaves = [make_leaf(gen, "unsorted") for _ in range(9)]
        assert not any(leaf.has_duplicates() for leaf in leaves)
        assert make_leaf(gen, "duplicates").has_duplicates()
        with mock.patch.object(SparseGradient, "add",
                               side_effect=AssertionError("slow path")):
            _, grads = recover_with(store_of(leaves, 2), workers=2)
        assert_bit_equal(grads, tree_merge(leaves).decompress())

    def test_state_delta_chains_fold_with_their_own_add(self, rng):
        """Naïve-DC deltas go through the same fold: bit-equal to the
        pairwise ``add`` tree applied once, at every fan-out."""
        from repro.core.differential import apply_state_delta, state_delta
        store = CheckpointStore(InMemoryBackend())
        model, optimizer = fresh_model_opt(Adam)
        base = (model.state_dict(), optimizer.state_dict())
        store.save_full(0, *base)
        deltas, prev = [], base
        for step in range(1, 8):
            optimizer.step_with(
                {name: rng.child("g", step, name).normal(size=p.shape)
                 for name, p in model.named_parameters()})
            cur = (model.state_dict(), optimizer.state_dict())
            deltas.append(state_delta(*prev, *cur, rho=0.5))
            store.save_diff(step, step, deltas[-1])
            prev = cur
        want_model, want_opt = apply_state_delta(*base, tree_merge(deltas))
        for workers in (1, 3):
            got_model, got_opt = fresh_model_opt(Adam, seed=9)
            with fan_out(workers, cpus=8):
                result = parallel_recover(store, got_model, got_opt)
            assert_states_equal(got_model.state_dict(), want_model)
            for name, slots in want_opt["slots"].items():
                for slot, want in slots.items():
                    np.testing.assert_array_equal(
                        got_opt.state_dict()["slots"][name][slot], want)
            assert (result.merge_ops, result.merge_depth, result.step) \
                == (6, 3, 7)


class TestFoldTruncation:
    """A hole at position p leaves the tree over ``chain[:p]`` — the same
    fold, cut short — and quarantines what the load-then-merge pipeline
    did: per shard, in order, the first unreadable record within the
    running limit."""

    @staticmethod
    def damage(store, position, shard=-1):
        sub, record = store.parts(store.diffs_after(0)[position])[shard]
        sub.backend.write(record.key, b"\x00" * 16)
        return sub, record.key

    @pytest.mark.parametrize("shards,workers", [(1, 1), (1, 3), (2, 1), (2, 4)])
    def test_every_truncation_point(self, shards, workers):
        gen = np.random.default_rng(shards * 10 + workers)
        leaves = [make_leaf(gen, "sorted") for _ in range(11)]
        for position in range(len(leaves)):
            store = store_of(leaves, shards)
            sub, key = self.damage(store, position)
            result, grads = recover_with(store, workers)
            assert result.diffs_loaded == result.step == position
            assert result.corrupt_diffs_skipped == 1
            assert result.merge_ops == shards * max(0, position - 1)
            assert result.merge_depth == merge_tree_depth(position)
            assert sub.quarantined == [key] and len(store.quarantined) == 1
            if position:
                assert_bit_equal(grads,
                                 tree_merge(leaves[:position]).decompress())
            else:
                assert grads is None and result.apply_ops == 0
            assert not pool_threads()

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("first,second,limit", [(9, 4, 4), (4, 9, 4)])
    def test_holes_in_two_shards(self, workers, first, second, limit):
        """Shard 0 breaks at ``first``, shard 1 at ``second``: the chain
        ends at the earlier hole; the later one is quarantined only when
        its shard was read before the limit shrank (shard 0 is)."""
        gen = np.random.default_rng(7)
        leaves = [make_leaf(gen, "unsorted") for _ in range(13)]
        store = store_of(leaves, 2)
        holes = [self.damage(store, first, shard=0),
                 self.damage(store, second, shard=1)]
        result, grads = recover_with(store, workers)
        assert result.diffs_loaded == limit
        assert_bit_equal(grads, tree_merge(leaves[:limit]).decompress())
        assert result.merge_ops == 2 * (limit - 1)
        expected = holes if second < first else holes[:1]
        assert [sub.quarantined for sub in store.shard_stores] \
            == [[key] if (sub, key) in expected else []
                for sub, key in holes]
        assert not pool_threads()

    def test_sequential_backend_is_read_in_chain_order(self):
        """Without ``thread_safe_reads`` the parent reads, shard-major in
        chain order (seeded fault wrappers replay); the pool only decodes
        and folds — and a hole still truncates."""
        class Sequential(InMemoryBackend):
            thread_safe_reads = False

            def __init__(self):
                super().__init__()
                self.reads = []

            def read(self, key):
                self.reads.append((key, threading.current_thread().name))
                return super().read(key)

        gen = np.random.default_rng(3)
        leaves = [make_leaf(gen, "sorted") for _ in range(12)]
        backend = Sequential()
        store = store_of(leaves, 2, backend)
        keys = [[f"shard-{shard:04d}/{store.parts(view)[shard][1].key}"
                 for view in store.diffs_after(0)] for shard in (0, 1)]
        sub, bad = self.damage(store, 10)
        backend.reads.clear()
        result, grads = recover_with(store, workers=4)
        assert result.workers == 3 and result.diffs_loaded == 10   # 4+4+4
        assert_bit_equal(grads, tree_merge(leaves[:10]).decompress())
        assert sub.quarantined == [bad] and len(store.quarantined) == 1
        reads = [(key, thread) for key, thread in backend.reads
                 if "/diff/" in key]
        assert {thread for _, thread in reads} == {"MainThread"}
        # Shard 0 whole, shard 1 whole (its hole shows at decode and is
        # copied to quarantine), shard 0 again over the shorter prefix.
        assert [key for key, _ in reads] \
            == keys[0] + keys[1] + [keys[1][10]] + keys[0][:10]
        assert not pool_threads()


class TestFanOut:
    """workers = min(8, usable CPUs, segments) for a chain of large
    records, else one; one means inline."""

    @staticmethod
    def chain_store(count=16):
        gen = np.random.default_rng(count)
        return store_of([make_leaf(gen, "sorted") for _ in range(count)], 1)

    def test_pinned_to_one_cpu_runs_inline(self):
        """Under ``sched_setaffinity`` (or a cgroup pin) to one core the
        pool is sized from the affinity mask, not ``cpu_count()``: no
        thread is started."""
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("platform has no CPU affinity")
        store = self.chain_store()
        seen = []
        read_raw = CheckpointStore.read_raw

        def counting_read(self, record):
            seen.append(threading.active_count())
            return read_raw(self, record)

        allowed = os.sched_getaffinity(0)
        before = threading.active_count()
        os.sched_setaffinity(0, {min(allowed)})
        try:
            with mock.patch.object(CheckpointStore, "read_raw", counting_read), \
                    mock.patch.object(recovery, "ThreadPoolExecutor",
                                      side_effect=AssertionError("pool")):
                target = Recorder()
                result = parallel_recover(store, target, target)
        finally:
            os.sched_setaffinity(0, allowed)
        assert result.workers == 1 and result.merge_ops == 15
        assert set(seen) == {before} and threading.active_count() == before

    @pytest.mark.parametrize("workers,cpus,count,fanout", [
        (4, 2, 16, 2), (4, 8, 16, 4),
        (3, 8, 16, 2),      # segments are powers of two: 8 + 8
        (1, 8, 16, 1), (0, 8, 16, 1), (8, 8, 3, 1), (8, 1, 16, 1),
    ])
    def test_fan_out_rule(self, workers, cpus, count, fanout):
        result, _ = recover_with(self.chain_store(count), workers, cpus=cpus)
        assert result.workers == fanout
        assert result.merge_ops == count - 1
        assert not pool_threads()

    @pytest.mark.parametrize("cpus,count,fanout", [(2, 16, 2), (16, 64, 8)])
    def test_default_fans_out_for_large_records_only(self, cpus, count,
                                                     fanout):
        """Threads are used only from the record size up where they win
        (small records decode GIL-bound: fan-out would lose)."""
        store = self.chain_store(count)
        mean = sum(view.nbytes for view in store.diffs_after(0)) / count
        assert mean < recovery.FANOUT_MIN_RECORD_BYTES
        result, _ = recover_with(store, None, cpus=cpus)
        assert result.workers == 1
        with mock.patch.object(recovery, "FANOUT_MIN_RECORD_BYTES", int(mean)):
            result, _ = recover_with(store, None, cpus=cpus)
        assert result.workers == fanout and result.merge_ops == count - 1

    def test_a_coded_blob_weighs_its_decode(self):
        """A coded record decodes dearer per stored byte than an uncoded
        one, so it fans out from CODED_DECODE_WEIGHT times fewer bytes."""
        gen = np.random.default_rng(5)
        store = CheckpointStore(InMemoryBackend(), codec="lossless")
        store.save_full(0, {name: np.zeros(shape)
                            for name, shape in SHAPES.items()},
                        {"type": "sgd", "lr": 1.0, "step_count": 0, "slots": {}})
        for step in range(1, 17):
            store.save_diff(step, step, make_leaf(gen, "sorted"))
        weight = sum(view.nbytes for view in store.diffs_after(0)) / 16 \
            * recovery.CODED_DECODE_WEIGHT
        for threshold, fanout in ((weight, 2), (weight + 1, 1)):
            with mock.patch.object(recovery, "FANOUT_MIN_RECORD_BYTES",
                                   threshold):
                assert recover_with(store, None, cpus=2)[0].workers == fanout

    def test_phases_are_reported(self):
        store = self.chain_store()
        for recover in (serial_recover, parallel_recover):
            target = Recorder()
            result = recover(store, target, target)
            assert set(result.phase_s) == set(recovery.PHASES)
            assert all(seconds >= 0.0 for seconds in result.phase_s.values())
            assert result.phase_s["load_chain"] > 0.0
            assert result.phase_s["apply"] > 0.0
        assert result.phase_s["merge"] > 0.0     # the parallel one


class TestFullStatePool:
    def test_pool_only_with_a_cpu_to_spare_and_bit_identical(self):
        check(("restore", "serial", "adam", 1))


class TestRecoveryPool:
    @pytest.mark.parametrize("recover", ["serial", "parallel"])
    @pytest.mark.parametrize("cpus,pools", [(2, 1), (1, 0)])
    def test_one_pool_per_call_none_on_one_cpu(self, recover, cpus, pools):
        check(("restore", recover, "adam", cpus))

    def test_no_pool_published_on_a_pool_thread(self):
        check(("restore", "serial", "momentum", 2))


class TestNoSortGuard:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_sort_no_add_bounded_buffers(self, cpus):
        check(("restore", "parallel", "sgd", cpus))


# The same cases against the sharded facade.
for _cases in (TestSerialRecovery, TestCorruptionFallback,
               TestParallelRecovery):
    for _shards in (2, 4):
        _name = f"{_cases.__name__}Shards{_shards}"
        globals()[_name] = type(_name, (_cases,), {"shards": _shards})
