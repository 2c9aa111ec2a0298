"""Tests for serial and parallel recovery (§VI).

One pipeline restores every store, so the store-touching cases run over
S ∈ {1, 2, 4}: each ``Test…`` class builds its stores through the
``make_store`` fixture, and the ``…Shards2`` / ``…Shards4`` subclasses at
the bottom rerun it against the sharded facade.  (Sharded == unsharded
bit-equality itself is pinned in ``tests/test_zero_sharded.py``.)
"""

import math

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.core.recovery import (
    merge_payloads,
    merge_tree_depth,
    parallel_recover,
    serial_recover,
)
from repro.optim import SGD, Adam
from repro.storage import (
    CheckpointStore,
    InMemoryBackend,
    ShardedCheckpointStore,
)
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import assert_states_equal


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


def fresh_model_opt(optimizer_cls=Adam, seed=0, **opt_kwargs):
    model = MLP(6, [8], 3, rng=Rng(seed))
    opt_kwargs.setdefault("lr", 1e-2)
    return model, optimizer_cls(model, **opt_kwargs)


def populate_store(store, model, optimizer, rng, steps=6, batch=1,
                   compressor=None):
    """Simulate training: full at 0, diff per step; returns final states."""
    compressor = compressor or TopKCompressor(0.5)
    store.save_full(0, model.state_dict(), optimizer.state_dict())
    pending = []
    for step in range(1, steps + 1):
        grads = {name: rng.child("g", step, name).normal(size=p.shape)
                 for name, p in model.named_parameters()}
        payload = compressor.compress(grads)
        optimizer.step_with(payload.decompress())
        pending.append((step, payload))
        if len(pending) == batch:
            merged = pending[0][1]
            for _, item in pending[1:]:
                merged = merged.add(item)
            store.save_diff(pending[0][0], pending[-1][0], merged,
                            count=len(pending))
            pending = []
    return model.state_dict(), optimizer.state_dict()


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

    def test_gap_truncates_recovery(self, rng, make_store):
        store = make_store()
        model, optimizer = fresh_model_opt()
        compressor = TopKCompressor(0.5)
        store.save_full(0, model.state_dict(), optimizer.state_dict())
        for step in (1, 2, 4):  # 3 missing: chain must stop at 2
            grads = {name: rng.child("g", step, name).normal(size=p.shape)
                     for name, p in model.named_parameters()}
            store.save_diff(step, step, compressor.compress(grads))
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(store, target_model, target_opt)
        assert result.diffs_loaded == 2
        assert result.step == 2


class TestCorruptionFallback:
    """Recovery under a stale or partially corrupt checkpoint series."""

    shards = 1
    train_with_snapshots = staticmethod(train_with_snapshots)

    def test_stale_manifest_falls_back_bit_exactly(self, rng, make_store):
        """The manifest references a full whose blob is gone: a reopened
        store drops the stale record and recovery lands bit-exactly on the
        previous intact full + diff chain."""
        backend = InMemoryBackend()
        store = make_store(backend)
        model, optimizer = fresh_model_opt()
        snapshots = train_with_snapshots(store, model, optimizer, rng,
                                         full_at=4)
        # The newest full's blob vanishes (lost volume, eager cleanup) but
        # the manifest still references it.
        newest = store.latest_full()
        assert newest.step == 4
        sub, record = store.parts(newest)[-1]
        sub.backend.delete(record.key)
        reopened = make_store(backend)
        assert reopened.latest_full().step == 0  # stale record dropped
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(reopened, target_model, target_opt)
        assert result.full_step == 0
        assert result.step == 6
        assert_states_equal(target_model.state_dict(), snapshots[6])

    def test_corrupt_mid_chain_diff_truncates_never_skips(self, rng,
                                                          make_store):
        """A corrupt diff mid-chain ends the replay there: the recovered
        state is exactly the pre-gap state, not a splice across the gap."""
        store = make_store()
        model, optimizer = fresh_model_opt()
        snapshots = self.train_with_snapshots(store, model, optimizer, rng)
        sub, bad = blob_at(store, 4)
        raw = bytearray(sub.backend.read(bad.key))
        raw[len(raw) // 2] ^= 0xFF
        sub.backend.write(bad.key, bytes(raw))
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(store, target_model, target_opt)
        assert result.step == 3
        assert result.diffs_loaded == 3
        assert result.corrupt_diffs_skipped == 1
        # Only the failing shard's blob is quarantined; its siblings at
        # that chain position are intact and stay put.
        assert sub.quarantined == [bad.key] and len(store.quarantined) == 1
        # Bit-exact with the state just before the corrupt record — diffs
        # 5 and 6 were intact but unreachable across the gap.
        assert_states_equal(target_model.state_dict(), snapshots[3])
        assert target_opt.step_count == 3

    def test_deleted_mid_chain_diff_truncates_never_skips(self, rng,
                                                          make_store):
        store = make_store()
        model, optimizer = fresh_model_opt()
        snapshots = self.train_with_snapshots(store, model, optimizer, rng)
        sub, gone = blob_at(store, 4)
        sub.backend.delete(gone.key)
        reopened = make_store(store.backend)
        chain = reopened.diffs_after(0)
        assert [(r.start, r.end) for r in chain] == [(1, 1), (2, 2), (3, 3)]
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(reopened, target_model, target_opt)
        assert result.step == 3
        assert_states_equal(target_model.state_dict(), snapshots[3])

    def test_parallel_recovery_truncates_on_corruption(self, rng, make_store):
        store = make_store()
        model, optimizer = fresh_model_opt(SGD, lr=0.05)
        snapshots = self.train_with_snapshots(store, model, optimizer, rng)
        sub, bad = blob_at(store, 5)
        sub.backend.write(bad.key, b"\x00" * 16)
        target_model, target_opt = fresh_model_opt(SGD, seed=9, lr=0.05)
        result = parallel_recover(store, target_model, target_opt)
        assert result.step == 4
        assert result.corrupt_diffs_skipped == 1
        assert_states_equal(target_model.state_dict(), snapshots[4],
                            exact=False, atol=1e-5)


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
            result = parallel_recover(store, target_model, target_opt,
                                      max_workers=workers)
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
        result = parallel_recover(store, target_model, target_opt,
                                  max_workers=4)
        assert result.step == 4
        assert result.corrupt_diffs_skipped == 1
        # Every shard truncates at the same position; only the failing
        # shard's blob is quarantined.
        assert sub.quarantined == [bad.key] and len(store.quarantined) == 1
        assert_states_equal(target_model.state_dict(), snapshots[4],
                            exact=False, atol=1e-5)

    def test_threaded_truncates_on_missing_read(self, rng, make_store):
        """A missing key surfacing from a parallel read truncates too."""
        store = make_store()
        model, optimizer = fresh_model_opt(SGD, lr=0.05)
        snapshots = train_with_snapshots(store, model, optimizer, rng)
        sub, gone = blob_at(store, 4)
        sub.backend.delete(gone.key)
        target_model, target_opt = fresh_model_opt(SGD, seed=9, lr=0.05)
        result = parallel_recover(store, target_model, target_opt,
                                  max_workers=4)
        assert result.step == 3
        assert result.corrupt_diffs_skipped == 1
        assert_states_equal(target_model.state_dict(), snapshots[3],
                            exact=False, atol=1e-5)

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
        level = payloads
        while len(level) > 1:
            nxt = [level[i].add(level[i + 1]) for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        np.testing.assert_allclose(level[0].decompress()["w"], serial, atol=1e-5)

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


# The same cases against the sharded facade.
for _cases in (TestSerialRecovery, TestCorruptionFallback,
               TestParallelRecovery):
    for _shards in (2, 4):
        _name = f"{_cases.__name__}Shards{_shards}"
        globals()[_name] = type(_name, (_cases,), {"shards": _shards})
