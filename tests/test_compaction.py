"""Tests for diff-chain compaction and crash-safe retention.

Covers the :mod:`repro.storage.compaction` policy/compactor pair, the
store's manifest-first compaction primitives, and the ISSUE acceptance
drill: with compaction enabled, recovery from a >= 64-diff chain is
bit-exact versus the uninterrupted run, worst-case diffs-replayed is
bounded by the :class:`RetentionPolicy`, and a crash injected at *any*
mutation inside ``gc()``/``compact()`` leaves the store recoverable with
no manifest entry referencing a missing key.
"""

import copy
import threading
from functools import reduce

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.core.recovery import serial_recover
from repro.optim import Adam
from repro.storage import (
    ChainCompactor,
    CheckpointStore,
    InMemoryBackend,
    RetentionPolicy,
)
from repro.storage.async_engine import AsyncCheckpointEngine
from repro.storage.checkpoint_store import journal_key
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import (
    adam_factory,
    assert_optimizers_equal,
    assert_states_equal,
    build_chain,
    make_mlp_trainer,
    model_factory,
    recover_fresh,
    reference_run,
    sgd_factory,
)
from tests.test_crash_contract import replay


def assert_no_dangling_manifest(store):
    """The crash-ordering invariant: no manifest entry names a missing key."""
    audit = store.verify(deep=True)
    assert audit["missing"] == []
    assert audit["corrupt"] == []


class TestRetentionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetentionPolicy(keep_fulls=0)
        with pytest.raises(ValueError):
            RetentionPolicy(max_chain_len=0)
        with pytest.raises(ValueError):
            RetentionPolicy(compact_run=1)

    def test_recovery_cost_model(self):
        policy = RetentionPolicy(load_full_s=2.0, replay_diff_s=0.5)
        assert policy.recovery_cost_s(0) == 2.0
        assert policy.recovery_cost_s(6) == pytest.approx(5.0)

    def test_chain_budget_is_min_of_triggers(self):
        assert RetentionPolicy().chain_budget() is None
        assert RetentionPolicy(max_chain_len=10).chain_budget() == 10
        cost_only = RetentionPolicy(max_recovery_cost_s=5.0, load_full_s=1.0,
                                    replay_diff_s=1.0)
        assert cost_only.chain_budget() == 4
        both = RetentionPolicy(max_chain_len=10, max_recovery_cost_s=5.0,
                               load_full_s=1.0, replay_diff_s=1.0)
        assert both.chain_budget() == 4

    def test_should_compact_reads_live_chain(self):
        """A pass works only on a live chain over its budget."""
        store, _ = build_chain(steps=6)
        assert RetentionPolicy(max_chain_len=4).chain_records(store) == 6
        records = store.fulls() + store.diffs()
        report = store.compact(RetentionPolicy(max_chain_len=8))
        assert (report.mode, report.runs_merged, report.records_before,
                report.records_after) == ("merge", 0, 6, 6)
        assert store.fulls() + store.diffs() == records
        report = store.compact(RetentionPolicy(max_chain_len=4))
        assert report.runs_merged > 0 and report.records_after <= 4
        empty = CheckpointStore(InMemoryBackend())
        assert RetentionPolicy(max_chain_len=1).chain_records(empty) == 0
        assert empty.compact(RetentionPolicy(max_chain_len=1)).mode == "noop"

    def test_apply_gc_delegates_to_store(self):
        store, _ = build_chain(steps=12, full_every=4)  # fulls 0, 4, 8, 12
        deleted = RetentionPolicy(keep_fulls=2).apply_gc(store)
        assert [r.step for r in store.fulls()] == [8, 12]
        assert deleted > 0


class TestMergeMode:
    def test_merge_payloads_ordered_matches_left_fold(self):
        rng = np.random.default_rng(7)
        grads = [{"w": rng.normal(size=(32,)).astype(np.float32)}
                 for _ in range(5)]
        payloads = [TopKCompressor(0.5).compress(g) for g in grads]
        merged = ChainCompactor.merge_payloads_ordered(payloads)
        folded = reduce(lambda a, b: a.add(b), payloads)
        np.testing.assert_array_equal(merged.decompress()["w"],
                                      folded.decompress()["w"])

    def test_super_diff_payload_is_exact_fold_of_replaced_records(self):
        store, _ = build_chain(steps=8)
        originals = [store.load_diff(r) for r in store.diffs_after(0)]
        policy = RetentionPolicy(max_chain_len=2, compact_run=4)
        report = store.compact(policy)  # no factories -> merge mode
        assert report.mode == "merge"
        chain = store.diffs_after(0)
        assert len(chain) == 2 and chain[0].count == 4 and chain[1].count == 4
        for record, chunk in zip(chain, (originals[:4], originals[4:])):
            expected = reduce(lambda a, b: a.add(b), chunk)
            loaded = store.load_diff(record)
            for name, value in expected.decompress().items():
                np.testing.assert_array_equal(loaded.decompress()[name], value)

    def test_merge_bounds_chain_and_recovery_stays_close(self):
        store, snapshots = build_chain(steps=12, optimizer_factory=sgd_factory)
        policy = RetentionPolicy(max_chain_len=4, compact_run=4)
        report = store.compact(policy)
        assert report.mode == "merge"
        assert report.runs_merged == 3
        assert report.records_after == 3 <= 4
        assert report.records_before == 12
        assert report.reclaimed_bytes > 0
        # Replay count (the represented gradient total) is preserved.
        assert sum(r.count for r in store.diffs_after(0)) == 12
        result, model, optimizer = recover_fresh(store, sgd_factory)
        assert result.step == 12
        assert result.diffs_loaded == 3  # bounded by the policy
        # Plain SGD is linear in the gradient, so the merged replay agrees
        # with per-step replay up to float association order.
        assert_states_equal(model.state_dict(), snapshots[12][0],
                            exact=False, atol=1e-5)

    def test_repeated_passes_fold_super_diffs(self):
        store, _ = build_chain(steps=20, optimizer_factory=sgd_factory)
        report = store.compact(RetentionPolicy(max_chain_len=2, compact_run=4))
        assert report.records_after <= 2
        assert sum(r.count for r in store.diffs_after(0)) == 20
        result, _, _ = recover_fresh(store, sgd_factory)
        assert result.step == 20

    def test_engine_attached_merge_reuses_engine_buffer_pool(self):
        """A merge pass over an async checkpointer's drained store hands
        each super-diff to the backend as the serializer's parts: exactly
        one list-data ``write`` per merged run, and the compacted store
        still recovers the run.  The id predates that;
        ``FLOOR_DROPPABLE.md`` lists its new name."""
        writes = []

        class WriteLog(InMemoryBackend):
            def write(self, key, data):
                writes.append((key, type(data)))
                super().write(key, data)

        trainer = make_mlp_trainer(seed=6, optimizer_builder=sgd_factory)
        ckpt = LowDiffCheckpointer(
            CheckpointStore(WriteLog()),
            CheckpointConfig(full_every_iters=100, batch_size=1,
                             async_persist=True))
        ckpt.attach(trainer)
        trainer.run(20)
        ckpt.finalize()
        merged = ckpt.store.compact(
            RetentionPolicy(keep_fulls=1, max_chain_len=6)).runs_merged
        assert merged > 0
        # diff/<start>_<end>.ckpt with start < end: a super-diff.
        super_diffs = [(key, kind) for key, kind in writes
                       if key.startswith("diff/") and key[5:15] != key[16:26]]
        assert len({key for key, _ in super_diffs}) == len(super_diffs) \
            == merged
        assert all(kind is list for _, kind in super_diffs)
        model = MLP(8, [16, 16], 4, rng=Rng(99))
        ckpt.recover(model, sgd_factory(model))
        # Merged replay is linear in the gradient for plain SGD: equal up
        # to float association order.
        assert_states_equal(model.state_dict(), trainer.model_state(),
                            exact=False, atol=1e-5)

    def test_enforce_is_noop_within_budget(self):
        store, _ = build_chain(steps=3)
        report = ChainCompactor(store, RetentionPolicy(max_chain_len=4)) \
            .run_once()
        assert report.runs_merged == report.gc_deleted == 0
        assert report.records_before == report.records_after == 3
        assert len(store.diffs()) == 3  # untouched

    def test_run_once_on_empty_store_is_noop(self):
        store = CheckpointStore(InMemoryBackend())
        report = store.compact(RetentionPolicy(max_chain_len=1))
        assert report.mode == "noop" and report.runs_merged == 0


class TestRebaseMode:
    def test_rebase_without_factories_rejected(self):
        """Rebase needs both factories: given one, the pass merges."""
        store, _ = build_chain(steps=2)
        report = store.compact(RetentionPolicy(), model_factory=model_factory)
        assert report.mode == "merge" and report.new_full_step is None
        assert [r.step for r in store.fulls()] == [0]

    def test_64_diff_chain_bit_exact_and_bounded(self):
        """The ISSUE acceptance drill: a >= 64-record chain under Adam,
        compacted by rebase, recovers bit-exact with bounded replay."""
        store, snapshots = build_chain(steps=64)
        policy = RetentionPolicy(keep_fulls=1, max_chain_len=8)
        report = store.compact(policy, model_factory=model_factory,
                               optimizer_factory=adam_factory)
        assert report.mode == "rebase"
        assert report.new_full_step == 64
        assert report.records_before == 64
        assert report.records_after == 0 <= policy.chain_budget()
        # keep_fulls=1 prunes the old base and the whole replayed chain.
        assert [r.step for r in store.fulls()] == [64]
        assert store.diffs() == []
        assert_no_dangling_manifest(store)
        result, model, optimizer = recover_fresh(store)
        assert result.step == 64
        assert result.diffs_loaded <= policy.chain_budget()
        assert_states_equal(model.state_dict(), snapshots[64][0])
        assert_optimizers_equal(optimizer.state_dict(), snapshots[64][1])

    def test_auto_trigger_bounds_chain_during_training(self):
        """End-to-end: rebasing a LowDiffCheckpointer's store after every
        persisted diff that takes the chain over budget keeps the live
        chain within it (compaction fires between fulls), and recovery
        stays bit-exact with the uninterrupted trainer."""
        trainer = make_mlp_trainer(seed=5)
        store = CheckpointStore(InMemoryBackend())
        policy = RetentionPolicy(keep_fulls=1, max_chain_len=6)
        mlp8 = lambda: MLP(8, [16, 16], 4, rng=Rng(0))
        adam3 = lambda m: Adam(m, lr=1e-3)
        ckpt = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=100, batch_size=1))
        ckpt.attach(trainer)
        reports, chains = [], []

        def compact_over_budget(iteration):
            # Runs after the checkpointer's hook has persisted the diff.
            if policy.chain_records(store) > policy.chain_budget():
                reports.append(store.compact(policy, model_factory=mlp8,
                                             optimizer_factory=adam3))
            chains.append(policy.chain_records(store))

        trainer.register_post_update_hook(compact_over_budget)
        trainer.run(30)
        ckpt.finalize()
        assert reports and all(r.mode == "rebase" and r.new_full_step
                               for r in reports)
        assert max(chains) <= policy.chain_budget()
        assert policy.chain_records(store) <= policy.chain_budget()
        assert_no_dangling_manifest(store)
        model = mlp8()
        optimizer = adam3(model)
        result = serial_recover(store, model, optimizer)
        assert result.step == 30
        assert result.diffs_loaded <= policy.chain_budget()
        assert_states_equal(model.state_dict(), trainer.model_state())


class TestBoundaryCases:
    def test_gc_drops_diff_ending_exactly_at_retained_horizon(self):
        """A diff whose range ends exactly at the oldest retained full's
        step is unreachable (recovery starts *at* that full) and must go;
        the diff starting one past it must stay."""
        store, snapshots = build_chain(steps=10, full_every=4)  # fulls 0,4,8
        store.gc(keep_fulls=2)  # retains fulls 4 and 8; horizon = 4
        ranges = [(r.start, r.end) for r in store.diffs()]
        assert (4, 4) not in ranges
        assert (5, 5) in ranges
        assert [r.step for r in store.fulls()] == [4, 8]
        # The surviving chain is contiguous from the horizon onward and
        # replays bit-exact to the end.
        assert [r.start for r in store.diffs_after(4)] == list(range(5, 11))
        assert_no_dangling_manifest(store)
        result, model, optimizer = recover_fresh(store)
        assert result.step == 10
        assert_states_equal(model.state_dict(), snapshots[10][0])
        assert_optimizers_equal(optimizer.state_dict(), snapshots[10][1])

    def test_verify_repair_commits_manifest_with_only_corrupt_records(self):
        """repair=True with corrupt (but not missing) blobs must still
        commit the pruned manifest: a reopened store may not reference
        the quarantined key."""
        store, _ = build_chain(steps=3)
        victim = store.diffs()[1]
        raw = bytearray(store.backend.read(victim.key))
        raw[len(raw) // 2] ^= 0xFF
        store.backend.write(victim.key, bytes(raw))
        report = store.verify(deep=True, repair=True)
        assert report["corrupt"] == [victim.key]
        assert report["missing"] == []
        assert victim.key in store.quarantined
        reopened = CheckpointStore(store.backend)
        assert victim.key not in [r.key for r in reopened.diffs()]
        assert_no_dangling_manifest(reopened)
        # The corrupt bytes are preserved for post-mortems.
        assert store.backend.exists("quarantine/" + victim.key)

    def test_purge_unreferenced_racing_async_persist(self):
        """gc's unreferenced-key sweep must never vaporize a write the
        async engine is committing concurrently: every submitted record
        survives, verifies deep, and forms a contiguous chain."""
        store = CheckpointStore(InMemoryBackend())
        store.save_full(0, {"w": np.zeros(4)}, {"type": "none",
                                                "step_count": 0, "slots": {}})
        engine = AsyncCheckpointEngine(store, num_writers=2, queue_depth=4)
        rng = np.random.default_rng(11)
        payloads = [TopKCompressor(0.5).compress(
            {"w": rng.normal(size=(64,)).astype(np.float32)})
            for _ in range(40)]
        stop = threading.Event()

        def writer():
            for step, payload in enumerate(payloads, start=1):
                engine.save_diff(step, step, payload)
            engine.drain()
            stop.set()

        thread = threading.Thread(target=writer)
        thread.start()
        sweeps = 0
        while not stop.is_set():
            store.gc(keep_fulls=1)
            sweeps += 1
        thread.join()
        engine.finalize()
        store.gc(keep_fulls=1)
        assert sweeps > 0
        assert len(store.diffs_after(0)) == 40  # nothing lost to the race
        assert_no_dangling_manifest(store)


def assert_recovers_within(backend, acked, submitted, payloads, snapshots):
    """Reopen: recovery lands bit-exact at a step in ``[acked,
    submitted]``, and the next diff appended is replayed by the next open."""
    reopened = CheckpointStore(backend)
    assert_no_dangling_manifest(reopened)
    result, model, optimizer = recover_fresh(reopened)
    assert acked <= result.step <= submitted
    assert_states_equal(model.state_dict(), snapshots[result.step][0])
    assert_optimizers_equal(optimizer.state_dict(), snapshots[result.step][1])
    step = result.step + 1
    reopened.save_diff(step, step, payloads[step])
    result, model, _ = recover_fresh(CheckpointStore(backend))
    assert result.step == step
    assert_states_equal(model.state_dict(), snapshots[step][0])


@pytest.mark.chaos
class TestCrashDrills:
    """Crash at every mutation inside gc()/compact(): fixed rule sequences
    of the crash-contract machine (``tests/test_crash_contract.py``)."""

    def test_crash_inside_gc(self):
        replay("persist 12; sweep gc2", full_every=4)

    def test_crash_inside_rebase_compaction(self):
        replay("persist 12; sweep rebase")

    def test_crash_at_every_mutation_of_a_journaled_run(self):
        replay("sweep persist; persist; " * 6 + "sweep rebase; compact rebase;"
               " sweep gc1")

    def test_torn_journal_tail_at_every_offset(self):
        replay("persist 4; sweep persist every")

    def test_stale_generation_journal_is_never_replayed(self):
        """Journals a crash left beside a newer snapshot — the one it
        superseded, or one of the generation a later snapshot starts —
        never replay onto it; gc sweeps them."""
        payloads, snapshots = reference_run(steps=6)
        backend = InMemoryBackend()
        store, _ = build_chain(steps=4, backend=backend)
        superseded = store._journal
        lines = backend.read(superseded)
        store.save_full(4, *copy.deepcopy(snapshots[4]))
        assert not backend.exists(superseded)
        backend.write(superseded, lines)  # crash before its delete
        ahead = journal_key(store._gen + 1)
        backend.write(ahead, lines)       # left by an earlier life
        reopened = CheckpointStore(backend)
        assert not reopened.manifest_rebuilt
        assert reopened.diffs() == store.diffs()
        assert reopened.fulls() == store.fulls()
        assert_recovers_within(backend, 4, 4, payloads, snapshots)
        reopened = CheckpointStore(backend)
        reopened.save_full(5, *copy.deepcopy(snapshots[5]))  # starts `ahead`
        assert not backend.exists(ahead)
        assert_recovers_within(backend, 5, 5, payloads, snapshots)
        assert backend.exists(superseded)
        CheckpointStore(backend).gc(keep_fulls=2)
        assert not backend.exists(superseded)

    def test_crash_inside_merge_compaction(self):
        replay("persist 12; sweep merge", optimizer="sgd")
