"""Sharded differential checkpointing, elastic restore, and the ZeRO
trainer fixes that make sharding exercisable in a degraded world.

Covers the PR-10 acceptance surface:

* per-shard full/diff chains round-trip bit-exactly and recover (serial
  and parallel) bit-identical to the unsharded store over the same run;
* a checkpoint written at world size 4 restores bit-exactly onto world
  sizes 2 and 8 (elastic restore over the stable global index space);
* per-shard chains stay aligned and bounded under coordinated
  retention/compaction;
* a crash between shard commits leaves the partial record set invisible
  (manifest-intersection crash consistency), including a seeded chaos
  drill;
* the ZeRO trainer routes through the collective gates pre-mutation,
  re-derives shard ownership over the *active* ranks on membership
  changes, and applies owned updates through the fused ``step_with``
  kernels.
"""

import functools
import itertools
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.compression import TopKCompressor
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.core.recovery import parallel_recover, serial_recover
from repro.distributed import ZeroDataParallelTrainer
from repro.optim import Adam
from repro.storage import (
    CheckpointStore,
    InMemoryBackend,
    LocalDiskBackend,
    RetentionPolicy,
    ShardedCheckpointStore,
    ShardLayout,
    elastic_restore,
)
from repro.storage.sharded import ShardedPersistGroup, shard_prefix
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import (
    CHAOS_SEEDS,
    CompactingCheckpointer,
    assert_optimizers_equal,
    assert_states_equal,
    fresh_model_opt,
    make_mlp_trainer,
    populate_store,
)
from tests.test_crash_contract import replay


def populate(store, model, optimizer, steps=7, batch=1, seed=42):
    return populate_store(store, model, optimizer, Rng(seed), steps, batch)


build_zero = functools.partial(make_mlp_trainer,
                               trainer_cls=ZeroDataParallelTrainer)
build_plain = make_mlp_trainer


class RecordingBackend(InMemoryBackend):
    """Records ``(key, thread id)`` of every write, append and delete."""

    def __init__(self):
        super().__init__()
        self.ops = []

    def _write(self, key, parts):
        self.ops.append((key, threading.get_ident()))
        super()._write(key, parts)

    def _append(self, key, data):
        self.ops.append((key, threading.get_ident()))
        super()._append(key, data)

    def delete(self, key):
        self.ops.append((key, threading.get_ident()))
        super().delete(key)


class TestInlineShards:
    def test_inline_sharded_store_starts_no_thread(self):
        """Inline ``save_full``, ``save_diff`` and ``gc`` visit the shards
        in shard order on the calling thread, even over a backend that
        takes concurrent IO: overlapping shard IO is the persist engine's
        job (the threads it starts: ``tests/test_costs.py``'s
        ``persist-inline-2-*`` rows)."""
        backend = RecordingBackend()
        assert backend.thread_safe_reads
        store = ShardedCheckpointStore(backend, shards=3)
        model, optimizer = fresh_model_opt()
        compressor = TopKCompressor(0.5)
        store.save_full(0, model.state_dict(), optimizer.state_dict())
        for step in (1, 2):
            store.save_diff(step, step, compressor.compress(
                {name: np.full(p.shape, float(step))
                 for name, p in model.named_parameters()}))
        store.save_full(2, model.state_dict(), optimizer.state_dict())
        assert store.gc(keep_fulls=1) > 0
        assert {thread for _, thread in backend.ops} == {threading.get_ident()}
        visits = [shard for shard, _ in itertools.groupby(
            key.split("/")[0] for key, _ in backend.ops
            if key.startswith("shard-"))]
        assert visits == [shard_prefix(s)[:-1] for s in range(3)] * 5


# ---------------------------------------------------------------------------
# Sharded store round trip
# ---------------------------------------------------------------------------

class TestShardedStoreRoundTrip:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_full_roundtrip_bit_exact(self, shards):
        model, optimizer = fresh_model_opt()
        store = ShardedCheckpointStore(InMemoryBackend(), shards=shards)
        store.save_full(4, model.state_dict(), optimizer.state_dict())
        model_state, opt_state, step = store.load_full(store.latest_full())
        assert step == 4
        assert_states_equal(model_state, model.state_dict())
        assert_optimizers_equal(opt_state, optimizer.state_dict())

    @pytest.mark.parametrize("shards", [2, 4])
    def test_diff_roundtrip_bit_exact(self, shards):
        model, optimizer = fresh_model_opt()
        store = ShardedCheckpointStore(InMemoryBackend(), shards=shards)
        populate(store, model, optimizer, steps=3)
        reference = ShardedCheckpointStore(InMemoryBackend(), shards=1)
        model, optimizer = fresh_model_opt()
        populate(reference, model, optimizer, steps=3)
        for view, ref_view in zip(store.diffs_after(0),
                                  reference.diffs_after(0)):
            payload = store.load_diff(view)
            ref_payload = reference.load_diff(ref_view)
            for name in payload.shapes:
                np.testing.assert_array_equal(
                    payload.entries[name][0], ref_payload.entries[name][0])
                np.testing.assert_array_equal(
                    payload.entries[name][1], ref_payload.entries[name][1])

    def test_dense_payload_rejected(self):
        store = ShardedCheckpointStore(InMemoryBackend(), shards=2)
        with pytest.raises(TypeError, match="sparse"):
            store.save_diff(1, 1, {"w": np.ones(3)})

    def test_layout_survives_reopen(self, tmp_path):
        backend = LocalDiskBackend(tmp_path)
        model, optimizer = fresh_model_opt()
        store = ShardedCheckpointStore(backend, shards=3)
        populate(store, model, optimizer, steps=2)
        reopened = ShardedCheckpointStore(LocalDiskBackend(tmp_path), shards=3)
        assert reopened.latest_full().step == 0
        assert len(reopened.diffs_after(0)) == 2
        model_state, _, _ = reopened.load_full(reopened.latest_full())
        assert set(model_state) == set(model.state_dict())

    def test_shard_count_mismatch_rejected(self):
        backend = InMemoryBackend()
        model, optimizer = fresh_model_opt()
        store = ShardedCheckpointStore(backend, shards=3)
        populate(store, model, optimizer, steps=1)
        with pytest.raises(ValueError, match="3 shards"):
            ShardedCheckpointStore(backend, shards=4)

    def test_layout_partition_covers_index_space(self):
        shapes = {"a": (4, 5), "b": (3,), "c": (2, 2, 2)}
        layout = ShardLayout(shapes, 3)
        assert layout.total == 31
        assert layout.bounds[0][0] == 0
        assert layout.bounds[-1][1] == layout.total
        for (_, hi), (lo, _) in zip(layout.bounds, layout.bounds[1:]):
            assert hi == lo  # contiguous, gap-free

    def test_obs_metrics_emitted(self):
        model, optimizer = fresh_model_opt()
        with obs.capture() as active:
            store = ShardedCheckpointStore(InMemoryBackend(), shards=3)
            populate(store, model, optimizer, steps=2)
            assert active.registry.counter("ckpt.shard.full_records").value == 3
            assert active.registry.counter("ckpt.shard.diff_records").value == 6
            assert active.registry.counter("ckpt.shard.bytes").value > 0


# ---------------------------------------------------------------------------
# Recovery equivalence with the unsharded path
# ---------------------------------------------------------------------------

class TestShardedRecoveryEquivalence:
    def _reference(self, steps=7, batch=1):
        store = CheckpointStore(InMemoryBackend())
        model, optimizer = fresh_model_opt()
        populate(store, model, optimizer, steps=steps, batch=batch)
        return store

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_matches_unsharded(self, shards):
        ref_store = self._reference()
        ref_model, ref_opt = fresh_model_opt(seed=9)
        serial_recover(ref_store, ref_model, ref_opt)

        store = ShardedCheckpointStore(InMemoryBackend(), shards=shards)
        model, optimizer = fresh_model_opt()
        populate(store, model, optimizer)
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(store, target_model, target_opt)
        assert result.step == 7
        assert_states_equal(target_model.state_dict(), ref_model.state_dict())
        assert_optimizers_equal(target_opt.state_dict(), ref_opt.state_dict())

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_parallel_matches_unsharded(self, shards, batch):
        """Per-shard merge trees have the unsharded tree's shape, so the
        parallel paths agree bit-for-bit — including batched records."""
        store = CheckpointStore(InMemoryBackend())
        model, optimizer = fresh_model_opt()
        populate(store, model, optimizer, batch=batch)
        ref_model, ref_opt = fresh_model_opt(seed=9)
        ref_result = parallel_recover(store, ref_model, ref_opt)

        sharded = ShardedCheckpointStore(InMemoryBackend(), shards=shards)
        model, optimizer = fresh_model_opt()
        populate(sharded, model, optimizer, batch=batch)
        target_model, target_opt = fresh_model_opt(seed=9)
        result = parallel_recover(sharded, target_model, target_opt)
        assert result.step == ref_result.step
        assert result.gradients_replayed == ref_result.gradients_replayed
        assert_states_equal(target_model.state_dict(), ref_model.state_dict())
        assert_optimizers_equal(target_opt.state_dict(), ref_opt.state_dict())

    def test_parallel_merge_fans_out_per_shard(self):
        store = ShardedCheckpointStore(InMemoryBackend(), shards=4)
        model, optimizer = fresh_model_opt()
        populate(store, model, optimizer, steps=8)
        target_model, target_opt = fresh_model_opt(seed=9)
        result = parallel_recover(store, target_model, target_opt)
        # 8 leaves per shard → 7 merges per shard × 4 shards, one apply.
        assert result.merge_ops == 7 * 4
        assert result.apply_ops == 1


# ---------------------------------------------------------------------------
# Elastic restore: written at N, recovered onto M
# ---------------------------------------------------------------------------

class TestElasticRestore:
    def _train_world4(self, shards=4, iterations=12):
        trainer = build_zero(num_workers=4)
        store = CheckpointStore(InMemoryBackend())
        checkpointer = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=6, batch_size=1,
                                    shards=shards))
        checkpointer.attach(trainer)
        trainer.run(iterations)
        checkpointer.finalize()
        return trainer, checkpointer

    @pytest.mark.parametrize("world", [2, 8])
    def test_restore_onto_other_world_size(self, world):
        trainer, checkpointer = self._train_world4()
        reference_model = trainer.model_state()
        reference_opt = trainer.optimizer_state()

        target = build_zero(num_workers=world, seed=1)
        result = elastic_restore(checkpointer.store, target)
        assert result.step == 12
        assert target.iteration == 12
        assert_states_equal(target.model_state(), reference_model)
        assert_optimizers_equal(target.optimizer_state(), reference_opt)
        assert target.replicas_consistent()

    def test_restored_world_sizes_agree(self):
        """The restore is world-size independent: M=2 and M=8 land on the
        identical state, bit for bit."""
        _, checkpointer = self._train_world4()
        small = build_zero(num_workers=2, seed=1)
        large = build_zero(num_workers=8, seed=2)
        elastic_restore(checkpointer.store, small)
        elastic_restore(checkpointer.store, large, parallel=True)
        assert_states_equal(small.model_state(), large.model_state())
        assert_optimizers_equal(small.optimizer_state(),
                                large.optimizer_state())

    def test_restored_training_continues_consistently(self):
        trainer, checkpointer = self._train_world4()
        target = build_zero(num_workers=2, seed=1)
        elastic_restore(checkpointer.store, target)
        target.run(4)
        assert target.iteration == 16
        assert target.replicas_consistent()


# ---------------------------------------------------------------------------
# Per-shard retention/compaction
# ---------------------------------------------------------------------------

class TestPerShardCompaction:
    def test_chains_stay_aligned_and_bounded(self):
        store = ShardedCheckpointStore(InMemoryBackend(), shards=3)
        group = ShardedPersistGroup(store, writer_threads=2)
        policy = RetentionPolicy(keep_fulls=2, max_chain_len=4, compact_run=2)

        model, optimizer = fresh_model_opt()
        compressor = TopKCompressor(0.5)
        rng = Rng(7)
        group.save_full(0, model.state_dict(), optimizer.state_dict())
        for step in range(1, 13):
            grads = {name: rng.child("g", step, name).normal(size=p.shape)
                     for name, p in model.named_parameters()}
            payload = compressor.compress(grads)
            optimizer.step_with(payload.decompress())
            group.save_diff(step, step, payload, count=1)
            # The committed chain only undercounts in-flight writes: peek,
            # then settle every shard before one pass over all of them.
            if policy.chain_records(store) > policy.chain_budget():
                group.drain()
                store.compact(policy)
        group.finalize()
        store.compact(policy)

        lens = [len(sub.diffs()) for sub in store.shard_stores]
        assert len(set(lens)) == 1, f"shard chains diverged: {lens}"
        chain = store.diffs_after(store.latest_full().step)
        assert len(chain) == lens[0]
        assert len(chain) <= policy.max_chain_len
        # The compacted chain still replays to the live state exactly
        # (compaction merges whole runs — same fold recovery performs).
        target_model, target_opt = fresh_model_opt(seed=5)
        result = serial_recover(store, target_model, target_opt)
        assert result.step == 12

    def test_rebase_through_the_sharded_facade_is_bit_exact(self):
        """The one compactor needs nothing shard-specific: rebase replays
        through ``serial_recover`` and saves through the writer protocol."""
        store = ShardedCheckpointStore(InMemoryBackend(), shards=3)
        model, optimizer = fresh_model_opt()
        live_model, _ = populate(store, model, optimizer, steps=9)
        report = store.compact(
            RetentionPolicy(keep_fulls=1, max_chain_len=4),
            model_factory=lambda: fresh_model_opt(seed=5)[0],
            optimizer_factory=lambda m: Adam(m, lr=1e-2))
        assert (report.mode, report.new_full_step) == ("rebase", 9)
        assert report.records_after == 0
        assert [view.step for view in store.fulls()] == [9]
        target_model, target_opt = fresh_model_opt(seed=7)
        assert serial_recover(store, target_model, target_opt).step == 9
        assert_states_equal(target_model.state_dict(), live_model)

    def test_checkpointer_retention_bounds_sharded_chain(self):
        trainer = build_zero(num_workers=2)
        store = CheckpointStore(InMemoryBackend())
        checkpointer = CompactingCheckpointer(
            store,
            CheckpointConfig(full_every_iters=20, batch_size=1, shards=4),
            RetentionPolicy(keep_fulls=2, max_chain_len=6, compact_run=3))
        checkpointer.attach(trainer)
        trainer.run(15)
        checkpointer.finalize()
        chain = checkpointer.store.diffs_after(
            checkpointer.store.latest_full().step)
        assert len(chain) <= 6
        model, optimizer = fresh_model_opt_for_trainer()
        result = checkpointer.recover(model, optimizer)
        assert result.step == 15


def fresh_model_opt_for_trainer(seed=99):
    model = MLP(8, [16, 16], 4, rng=Rng(seed))
    return model, Adam(model, lr=1e-3)


# ---------------------------------------------------------------------------
# Crash consistency: partial shard commits are invisible
# ---------------------------------------------------------------------------

class TestCrashMidShardCommit:
    """Fixed rule sequences of the crash-contract machine
    (``tests/test_crash_contract.py``): a crash inside a sharded commit."""

    def test_partial_full_commit_invisible(self):
        replay("persist 2; arm crash 8; full; reopen", shards=3)

    def test_partial_diff_commit_truncates_chain(self):
        replay("persist 3; arm crash 2; persist; reopen", shards=3)

    def test_gc_sweeps_partial_records(self):
        """The partial tip survives gc too: a retried full completes it."""
        machine = replay("persist 1; arm crash 4; full; gc 1", shards=2)
        assert {r.step for r in machine.store.shard_stores[0].fulls()} \
            == {0, 1}

    @pytest.mark.chaos
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_seeded_crash_drill(self, seed):
        """A seed-chosen S and prefix of shards gets diff 7."""
        rng = Rng(seed)
        shards = 2 + int(rng.child("shards").integers(0, 3))
        landed = int(rng.child("cut").integers(1, shards))
        replay(f"persist 6; arm crash {2 * landed}; persist; reopen",
               shards=shards)


# ---------------------------------------------------------------------------
# ZeRO trainer fixes
# ---------------------------------------------------------------------------

class TestZeroCollectiveGate:
    def test_gate_fires_every_iteration(self):
        trainer = build_zero()
        seen = []
        trainer.register_collective_gate(seen.append)
        trainer.run(5)
        assert seen == [0, 1, 2, 3, 4]

    def test_gate_abort_is_pre_mutation(self):
        """A gate abort (the supervisor fencing a failed collective) must
        leave model and optimizer untouched — the gate runs before any
        rank applies the update."""
        trainer = build_zero()
        trainer.run(3)
        before_model = {k: v.copy() for k, v in trainer.model_state().items()}
        before_opt = trainer.optimizer_state()

        def gate(iteration):
            raise RuntimeError("collective fenced")

        trainer.register_collective_gate(gate)
        with pytest.raises(RuntimeError, match="fenced"):
            trainer.step()
        assert_states_equal(trainer.model_state(), before_model)
        assert_optimizers_equal(trainer.optimizer_state(), before_opt)


class TestZeroDegradedWorld:
    def test_matches_plain_trainer_through_membership_changes(self):
        """The degraded-world trajectory of the ZeRO trainer is
        bit-identical to the plain data-parallel trainer's: ownership
        re-partitions over the active ranks, so every surviving rank's
        update covers exactly the full parameter space."""
        zero = build_zero(num_workers=3)
        plain = build_plain(num_workers=3)
        for trainer in (zero, plain):
            trainer.run(4)
            trainer.deactivate_worker(1)
            trainer.run(4)
            trainer.reactivate_worker(1)
            trainer.run(4)
        assert_states_equal(zero.model_state(), plain.model_state())
        assert zero.replicas_consistent()

    def test_owners_cover_only_active_ranks(self):
        trainer = build_zero(num_workers=3)
        trainer.run(2)
        trainer.deactivate_worker(0)
        owners = set(trainer._owners.values())
        assert owners <= {1, 2}
        covered = set()
        for rank in (1, 2):
            covered |= set(trainer.owned_names(rank))
        assert covered == set(trainer.optimizer.param_names)
        trainer.run(2)
        assert trainer.replicas_consistent()

    def test_shard_handoff_preserves_moments(self):
        """A dropped owner's Adam moments migrate to the new owner, so the
        degraded update continues from the true optimizer state rather
        than stale or zeroed moments."""
        trainer = build_zero(num_workers=2)
        trainer.run(3)
        migrated = {
            name: {k: v.copy() for k, v in
                   trainer.workers[owner].optimizer._slots(name).items()}
            for name, owner in trainer._owners.items()
        }
        dropped = trainer._owners[next(iter(trainer._owners))]
        trainer.deactivate_worker(dropped)
        survivor = trainer.active_ranks[0]
        for name, slots in migrated.items():
            live = trainer.workers[survivor].optimizer._slots(name)
            for key, value in slots.items():
                np.testing.assert_array_equal(live[key], value, err_msg=name)

    def test_optimizer_state_assembles_from_owners(self):
        trainer = build_zero(num_workers=3)
        trainer.run(5)
        assembled = trainer.optimizer_state()
        for name, owner in trainer._owners.items():
            live = trainer.workers[owner].optimizer._slots(name)
            for key, value in live.items():
                np.testing.assert_array_equal(
                    assembled["slots"][name][key], value, err_msg=name)


class TestZeroFusedPath:
    def test_owned_updates_use_fused_kernels(self, monkeypatch):
        """The owned-shard update must route through ``step_with``'s fused
        path, never the per-parameter reference kernel."""
        def boom(self, name, param, grad):
            raise AssertionError("reference kernel used on the ZeRO path")

        monkeypatch.setattr(Adam, "_update_param", boom)
        trainer = build_zero()
        trainer.run(3)  # would raise if any rank fell back to _update_param
        assert trainer.replicas_consistent()

    def test_fused_and_reference_agree_on_zero_path(self):
        fused = build_zero()
        fused.run(8)
        reference = build_zero()
        for worker in reference.workers:
            worker.optimizer.fused = False
        reference.run(8)
        assert_states_equal(fused.model_state(), reference.model_state())
        assert_optimizers_equal(fused.optimizer_state(),
                                reference.optimizer_state())

    def test_subset_step_validates_names(self):
        model, optimizer = fresh_model_opt()
        grads = {name: np.zeros(p.shape)
                 for name, p in model.named_parameters()}
        with pytest.raises(KeyError, match="unknown"):
            optimizer.step_with(grads, names=["nope"])
        some = next(iter(grads))
        with pytest.raises(KeyError, match="missing"):
            optimizer.step_with({}, names=[some])

    def test_subset_step_advances_counter_once(self):
        model, optimizer = fresh_model_opt()
        grads = {name: np.zeros(p.shape)
                 for name, p in model.named_parameters()}
        optimizer.step_with(grads, names=[next(iter(grads))])
        assert optimizer.step_count == 1


# ---------------------------------------------------------------------------
# ZeRO + sharded checkpointing end to end
# ---------------------------------------------------------------------------

class TestZeroShardedEndToEnd:
    def test_sharded_recovery_matches_live_zero_state(self):
        trainer = build_zero(num_workers=4)
        store = CheckpointStore(InMemoryBackend())
        checkpointer = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=5, batch_size=1,
                                    shards=4))
        checkpointer.attach(trainer)
        trainer.run(11)
        checkpointer.finalize()
        assert isinstance(checkpointer.store, ShardedCheckpointStore)
        model, optimizer = fresh_model_opt_for_trainer()
        result = checkpointer.recover(model, optimizer, parallel=True)
        assert result.step == 11
        assert_states_equal(model.state_dict(), trainer.model_state())
        assert_optimizers_equal(optimizer.state_dict(),
                                trainer.optimizer_state())

    def test_sharded_matches_unsharded_checkpointer(self):
        def run(shards):
            trainer = build_zero(num_workers=2)
            checkpointer = LowDiffCheckpointer(
                CheckpointStore(InMemoryBackend()),
                CheckpointConfig(full_every_iters=5, batch_size=1,
                                 shards=shards))
            checkpointer.attach(trainer)
            trainer.run(9)
            checkpointer.finalize()
            model, optimizer = fresh_model_opt_for_trainer()
            checkpointer.recover(model, optimizer)
            return model, optimizer

        sharded_model, sharded_opt = run(3)
        plain_model, plain_opt = run(1)
        assert_states_equal(sharded_model.state_dict(),
                            plain_model.state_dict())
        assert_optimizers_equal(sharded_opt.state_dict(),
                                plain_opt.state_dict())


# ---------------------------------------------------------------------------
# Shards with a payload codec; deep verify of a sharded store
# ---------------------------------------------------------------------------

class TestShardedCodec:
    """``shards > 1`` with a codec: the checkpointer applies it to every
    shard store, and the coded shards restore what the uncoded, unsharded
    series of the same run restores, bit for bit."""

    @pytest.mark.parametrize("async_persist", [False, True],
                             ids=["inline", "thread"])
    def test_lossless_shards_recover_bit_exact(self, async_persist):
        recovered = {}
        for shards, codec in ((1, None), (2, "lossless")):
            trainer = build_plain()
            ckpt = LowDiffCheckpointer(
                CheckpointStore(InMemoryBackend()),
                CheckpointConfig(full_every_iters=8, batch_size=1,
                                 shards=shards, codec=codec,
                                 async_persist=async_persist))
            ckpt.attach(trainer)
            trainer.run(13)
            ckpt.finalize()
            if codec:
                records = [record for sub in ckpt.store.shard_stores
                           for record in sub.fulls() + sub.diffs()]
                assert records and all(r.codec == codec for r in records)
            for parallel in (False, True):
                model, optimizer = fresh_model_opt_for_trainer()
                result = ckpt.recover(model, optimizer, parallel=parallel)
                assert result.step == 13
                recovered[shards, parallel] = (model.state_dict(),
                                               optimizer.state_dict())
            # Serial replay is the bit-exact-versus-live path.
            assert_states_equal(recovered[shards, False][0],
                                trainer.model_state())
        for parallel in (False, True):
            assert_states_equal(recovered[1, parallel][0],
                                recovered[2, parallel][0])
            assert_optimizers_equal(recovered[1, parallel][1],
                                    recovered[2, parallel][1])


class TestShardedVerify:
    def test_deep_verify_repairs_one_corrupt_shard_blob(self):
        """One flipped byte in one shard's diff: deep verify reports it
        under its ``shard-i/`` key, repair quarantines that blob alone, and
        the repaired view ends the chain just before it."""
        store = ShardedCheckpointStore(InMemoryBackend(), shards=3)
        model, optimizer = fresh_model_opt()
        populate(store, model, optimizer, steps=4)
        sub, record = store.parts(store.diffs_after(0)[2])[1]
        raw = bytearray(sub.backend.read(record.key))
        raw[len(raw) // 2] ^= 0xFF
        sub.backend.write(record.key, bytes(raw))
        key = shard_prefix(1) + record.key

        report = store.verify(deep=True, repair=True)
        assert report["corrupt"] == [key]
        assert report["missing"] == report["unknown_codec"] == []
        assert [len(shard["corrupt"]) for shard in report["shards"]] \
            == [0, 1, 0]
        assert report["checked"] == 3 * 5
        assert store.quarantined == [key]
        assert store.verify(deep=True)["corrupt"] == []
        assert serial_recover(store, *fresh_model_opt(seed=5)).step == 2
