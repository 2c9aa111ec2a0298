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
from repro.optim import SGD, Adam
from repro.storage import (
    ChainCompactor,
    CheckpointStore,
    InMemoryBackend,
    RetentionPolicy,
)
from repro.storage.async_engine import AsyncCheckpointEngine
from repro.storage.backends import StorageBackend
from repro.storage.checkpoint_store import journal_key
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import (
    assert_optimizers_equal,
    assert_states_equal,
    make_mlp_trainer,
)


def model_factory():
    return MLP(6, [12], 3, rng=Rng(0))


def adam_factory(model):
    return Adam(model, lr=1e-2)


def sgd_factory(model):
    return SGD(model, lr=0.05)


def build_chain(steps, full_every=None, optimizer_factory=adam_factory,
                seed=3, rho=0.25, backend=None):
    """Synthetic training chain: full at 0, one single-step diff per step.

    Returns ``(store, snapshots)`` where ``snapshots[s]`` is the exact
    ``(model_state, optimizer_state)`` after ``s`` optimizer steps —
    the ground truth every bit-exact assertion compares against.
    """
    model = model_factory()
    optimizer = optimizer_factory(model)
    store = CheckpointStore(backend or InMemoryBackend())
    compressor = TopKCompressor(rho)
    grad_rng = np.random.default_rng(seed)
    snap = lambda: (copy.deepcopy(model.state_dict()),
                    copy.deepcopy(optimizer.state_dict()))
    store.save_full(0, *snap()[:2])
    snapshots = {0: snap()}
    for step in range(1, steps + 1):
        grads = {name: grad_rng.normal(size=value.shape).astype(np.float32)
                 for name, value in model.state_dict().items()}
        payload = compressor.compress(grads)
        optimizer.step_with(payload.decompress())
        store.save_diff(step, step, payload)
        snapshots[step] = snap()
        if full_every and step % full_every == 0:
            store.save_full(step, *snap()[:2])
    return store, snapshots


def recover_fresh(store, optimizer_factory=adam_factory):
    model = model_factory()
    optimizer = optimizer_factory(model)
    result = serial_recover(store, model, optimizer)
    return result, model, optimizer


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
        assert store.compact(RetentionPolicy(max_chain_len=8)).runs_merged == 0
        report = store.compact(RetentionPolicy(max_chain_len=4))
        assert report.runs_merged > 0 and report.records_after <= 4
        empty = CheckpointStore(InMemoryBackend())
        assert RetentionPolicy(max_chain_len=1).chain_records(empty) == 0
        assert not empty.compact(RetentionPolicy(max_chain_len=1)).triggered

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
        assert report.triggered and report.mode == "merge"
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
        assert report.mode == "noop" and not report.triggered


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
        assert reports and all(r.triggered and r.mode == "rebase"
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


class SimulatedCrash(RuntimeError):
    """Raised by :class:`CrashingBackend` at the injected crash point."""


class CrashingBackend(StorageBackend):
    """Forwarding backend that dies on the Nth mutating operation.

    ``crash_after=k`` lets the first ``k`` mutations (writes, journal
    appends and deletes) through and raises on mutation ``k+1`` — scanning ``k`` over a whole
    operation exercises a crash at *every* point of its mutation
    sequence.  Reads never crash (the dying process isn't the one that
    recovers).
    """

    def __init__(self, inner: StorageBackend, crash_after: int | None = None):
        super().__init__()
        self.inner = inner
        self.crash_after = crash_after
        self.mutations = 0

    def _tick(self) -> None:
        self.mutations += 1
        if self.crash_after is not None and self.mutations > self.crash_after:
            raise SimulatedCrash(f"injected crash at mutation {self.mutations}")

    def _write(self, key, data):
        self._tick()
        self.inner.write(key, data)

    def _append(self, key, data):
        self._tick()
        self.inner.append(key, data)

    def _read(self, key):
        return self.inner.read(key)

    def exists(self, key):
        return self.inner.exists(key)

    def delete(self, key):
        self._tick()
        self.inner.delete(key)

    def list_keys(self, prefix=""):
        return self.inner.list_keys(prefix)

    def purge_debris(self):
        return self.inner.purge_debris()


def clone_backend(src: StorageBackend) -> InMemoryBackend:
    clone = InMemoryBackend()
    for key in src.list_keys(""):
        clone.write(key, src.read(key))
    return clone


def reference_run(steps):
    """``(payloads, snapshots)`` of ``build_chain(steps)``: the diff each
    step persists and the exact state after it."""
    store, snapshots = build_chain(steps=steps)
    return {r.start: store.load_diff(r) for r in store.diffs()}, snapshots


def assert_recovers_within(backend, acked, submitted, payloads, snapshots):
    """Reopen after a crash: recovery lands bit-exact at a step in
    ``[acked, submitted]``, and the next diff appended after reopening
    is replayed by the next open."""
    reopened = CheckpointStore(backend)
    assert_no_dangling_manifest(reopened)
    if reopened.latest_full() is None:
        assert acked < 0  # crashed before the first full landed
        return
    result, model, optimizer = recover_fresh(reopened)
    assert acked <= result.step <= submitted
    assert_states_equal(model.state_dict(), snapshots[result.step][0])
    assert_optimizers_equal(optimizer.state_dict(), snapshots[result.step][1])
    step = result.step + 1
    reopened.save_diff(step, step, payloads[step])
    result, model, _ = recover_fresh(CheckpointStore(backend))
    assert result.step == step
    assert_states_equal(model.state_dict(), snapshots[step][0])


def count_mutations(backend: StorageBackend, op) -> int:
    """Dry-run ``op`` against a clone to learn its total mutation count."""
    probe = CrashingBackend(clone_backend(backend))
    op(CheckpointStore(probe))
    return probe.mutations


@pytest.mark.chaos
class TestCrashDrills:
    """Crash at every mutation inside gc()/compact(): the reopened store
    must verify clean (no manifest entry naming a missing key) and
    recover — bit-exact where the mode guarantees it."""

    def _drill(self, backend, snapshots, op, *, final_step,
               optimizer_factory=adam_factory, exact=True):
        total = count_mutations(backend, op)
        assert total > 0
        for crash_after in range(total):
            inner = clone_backend(backend)
            store = CheckpointStore(CrashingBackend(inner, crash_after))
            with pytest.raises(SimulatedCrash):
                op(store)
            reopened = CheckpointStore(inner)  # "restart after the crash"
            assert_no_dangling_manifest(reopened)
            result, model, optimizer = recover_fresh(reopened,
                                                     optimizer_factory)
            assert result.step == final_step, f"crash_after={crash_after}"
            if exact:
                assert_states_equal(model.state_dict(),
                                    snapshots[final_step][0])
                assert_optimizers_equal(optimizer.state_dict(),
                                        snapshots[final_step][1])
            else:
                assert_states_equal(model.state_dict(),
                                    snapshots[final_step][0],
                                    exact=False, atol=1e-5)

    def test_crash_inside_gc(self):
        backend = InMemoryBackend()
        _, snapshots = build_chain(steps=12, full_every=4, backend=backend)
        self._drill(backend, snapshots,
                    lambda store: store.gc(keep_fulls=2), final_step=12)

    def test_crash_inside_rebase_compaction(self):
        backend = InMemoryBackend()
        _, snapshots = build_chain(steps=12, backend=backend)
        policy = RetentionPolicy(keep_fulls=1, max_chain_len=4)
        self._drill(
            backend, snapshots,
            lambda store: store.compact(policy, model_factory=model_factory,
                                        optimizer_factory=adam_factory),
            final_step=12)

    def test_crash_at_every_mutation_of_a_journaled_run(self):
        """save_full, six journaled diffs, a rebase compaction and a gc:
        a crash at any snapshot write, journal append or delete leaves a
        store that recovers to an acknowledged-or-later step and takes
        the next append."""
        payloads, snapshots = reference_run(steps=7)
        policy = RetentionPolicy(keep_fulls=1, max_chain_len=4)
        ops = [(0, lambda store: store.save_full(
            0, *copy.deepcopy(snapshots[0])))]
        ops += [(step, lambda store, step=step: store.save_diff(
            step, step, payloads[step])) for step in range(1, 7)]
        ops += [(6, lambda store: store.compact(
                    policy, model_factory=model_factory,
                    optimizer_factory=adam_factory)),
                (6, lambda store: store.gc(keep_fulls=1))]
        probe = CrashingBackend(InMemoryBackend())
        for _, op in ops:
            op(CheckpointStore(probe))
        assert probe.inner.list_keys("manifest.") == [
            "manifest.json"]  # the last snapshot superseded every journal
        for crash_after in range(probe.mutations):
            inner = InMemoryBackend()
            backend = CrashingBackend(inner, crash_after)
            acked = -1
            with pytest.raises(SimulatedCrash):
                for submitted, op in ops:
                    op(CheckpointStore(backend))
                    acked = submitted
            assert_recovers_within(inner, acked, submitted, payloads,
                                   snapshots)

    def test_torn_journal_tail_at_every_offset(self):
        """A crash inside the append of diff 5's line leaves any prefix of
        it: the reopened store drops the unterminated line, rewrites the
        snapshot before anything can append after it, and recovers."""
        payloads, snapshots = reference_run(steps=6)
        backend = InMemoryBackend()
        store, _ = build_chain(steps=5, backend=backend)
        journal = store._journal
        data = backend.read(journal)
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last, len(data) + 1):
            inner = clone_backend(backend)
            inner.write(journal, data[:cut])
            reopened = CheckpointStore(inner)
            assert not reopened.manifest_rebuilt
            torn = last < cut < len(data)
            assert inner.exists(journal) is not torn  # superseded at open
            assert len(reopened.diffs()) == (5 if cut == len(data) else 4)
            assert_recovers_within(inner, 4, 5, payloads, snapshots)

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
        backend = InMemoryBackend()
        _, snapshots = build_chain(steps=12, optimizer_factory=sgd_factory,
                                   backend=backend)
        policy = RetentionPolicy(keep_fulls=1, max_chain_len=4, compact_run=4)
        self._drill(backend, snapshots,
                    lambda store: store.compact(policy),
                    final_step=12, optimizer_factory=sgd_factory, exact=False)
