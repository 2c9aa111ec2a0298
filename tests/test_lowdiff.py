"""End-to-end tests for the LowDiff checkpointer (Algorithm 1)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.optim import Adam
from repro.storage import (
    CheckpointStore,
    FlakyBackend,
    InMemoryBackend,
    LocalDiskBackend,
)
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import (
    STRATEGIES,
    assert_optimizers_equal,
    assert_states_equal,
    make_mlp_trainer,
)


def run_lowdiff(iterations=25, full_every=10, batch_size=1, num_workers=2,
                rho=0.1, backend=None, seed=7, async_persist=False,
                **ckpt_kwargs):
    trainer = make_mlp_trainer(num_workers=num_workers, rho=rho, seed=seed)
    store = CheckpointStore(backend or InMemoryBackend())
    checkpointer = LowDiffCheckpointer(
        store,
        CheckpointConfig(full_every_iters=full_every, batch_size=batch_size,
                         async_persist=async_persist, writer_threads=2,
                         queue_depth=4),
        **ckpt_kwargs,
    )
    checkpointer.attach(trainer)
    trainer.run(iterations)
    checkpointer.finalize()
    return trainer, checkpointer


def recover_fresh(checkpointer, parallel=False, seed=99):
    model = MLP(8, [16, 16], 4, rng=Rng(seed))
    optimizer = Adam(model, lr=1e-3)
    result = checkpointer.recover(model, optimizer, parallel=parallel)
    return model, optimizer, result


class TestBitExactRecovery:
    def test_recovery_matches_live_state(self):
        trainer, checkpointer = run_lowdiff()
        model, optimizer, result = recover_fresh(checkpointer)
        assert_states_equal(model.state_dict(), trainer.model_state())
        assert_optimizers_equal(optimizer.state_dict(),
                                trainer.optimizer_state())
        assert result.step == 25

    def test_recovery_at_full_checkpoint_boundary(self):
        trainer, checkpointer = run_lowdiff(iterations=20, full_every=10)
        model, optimizer, result = recover_fresh(checkpointer)
        assert result.full_step == 20
        assert result.diffs_loaded == 0
        assert_states_equal(model.state_dict(), trainer.model_state())

    @pytest.mark.parametrize("iterations", [1, 7, 10, 11, 19, 30])
    def test_crash_at_arbitrary_iteration(self, iterations):
        trainer, checkpointer = run_lowdiff(iterations=iterations)
        model, _, result = recover_fresh(checkpointer)
        assert result.step == iterations
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_recovered_training_continues_identically(self):
        """Recover, keep training: trajectory == uninterrupted run."""
        straight = make_mlp_trainer(seed=21)
        straight.run(30)

        trainer, checkpointer = run_lowdiff(iterations=20, seed=21)
        model, optimizer, _ = recover_fresh(checkpointer)
        resumed = make_mlp_trainer(seed=21)
        resumed.load_state(model.state_dict(), optimizer.state_dict(),
                           iteration=20)
        resumed.run(10)
        assert_states_equal(resumed.model_state(), straight.model_state())

    def test_four_workers(self):
        trainer, checkpointer = run_lowdiff(num_workers=4)
        model, _, _ = recover_fresh(checkpointer)
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_local_disk_backend(self, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        trainer, checkpointer = run_lowdiff(backend=backend)
        # Recovery through a brand-new store over the same directory
        # (simulating a restarted process).
        from repro.core.recovery import serial_recover
        fresh_store = CheckpointStore(LocalDiskBackend(str(tmp_path)))
        model = MLP(8, [16, 16], 4, rng=Rng(99))
        optimizer = Adam(model, lr=1e-3)
        serial_recover(fresh_store, model, optimizer)
        assert_states_equal(model.state_dict(), trainer.model_state())


class TestBatchedSemantics:
    def test_batch_one_is_bit_exact(self):
        trainer, checkpointer = run_lowdiff(batch_size=1)
        model, _, _ = recover_fresh(checkpointer)
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_batch_gt_one_is_close_with_adam(self):
        """BS>1 recovery has gradient-accumulation semantics: one Adam
        step per batch instead of per gradient — approximate by design
        (the b/2 term of Eq. (3) prices exactly this)."""
        trainer, checkpointer = run_lowdiff(iterations=20, full_every=10,
                                            batch_size=2)
        model, _, result = recover_fresh(checkpointer)
        # Recovery reaches full@20 exactly, so still bit-exact here; crash
        # mid-interval exercises the approximation:
        trainer2, ck2 = run_lowdiff(iterations=25, full_every=10, batch_size=2)
        model2, _, result2 = recover_fresh(ck2)
        assert result2.gradients_replayed == 5  # steps 21..25 (batches of 2 + flush)
        live = trainer2.model_state()
        recovered = model2.state_dict()
        for name in live:
            assert np.abs(recovered[name] - live[name]).max() < 0.05

    def test_diff_write_count_reflects_batching(self):
        _, ck1 = run_lowdiff(iterations=20, batch_size=1)
        _, ck4 = run_lowdiff(iterations=20, batch_size=4)
        assert ck1.stats()["diff_writes"] == 20
        # Batches flush at full-checkpoint boundaries too.
        assert ck4.stats()["diff_writes"] <= 20 // 4 + 2

    def test_batched_storage_smaller(self):
        _, ck1 = run_lowdiff(iterations=20, batch_size=1)
        _, ck4 = run_lowdiff(iterations=20, batch_size=4)
        assert (ck4.stats()["storage_bytes"]["diff"]
                < ck1.stats()["storage_bytes"]["diff"])


class TestParallelRecoveryIntegration:
    def test_parallel_recovery_log_depth(self):
        trainer, checkpointer = run_lowdiff(iterations=19, full_every=50,
                                            batch_size=1)
        _, _, result = recover_fresh(checkpointer, parallel=True)
        assert result.diffs_loaded == 19
        assert result.merge_ops == 18
        assert result.merge_depth == 5  # ceil(log2(19))

    def test_parallel_recovery_close_to_serial(self):
        trainer, checkpointer = run_lowdiff(iterations=12, full_every=50)
        serial_model, _, _ = recover_fresh(checkpointer, parallel=False)
        parallel_model, _, _ = recover_fresh(checkpointer, parallel=True)
        for name, value in serial_model.state_dict().items():
            assert np.abs(parallel_model.state_dict()[name] - value).max() < 0.05


class TestCheckpointCadence:
    def test_full_checkpoint_count(self):
        _, checkpointer = run_lowdiff(iterations=30, full_every=10)
        # Initial full at step 0 plus fulls at 10, 20, 30.
        assert checkpointer.stats()["full_checkpoints"] == 4

    def test_every_iteration_has_a_diff(self):
        _, checkpointer = run_lowdiff(iterations=30)
        assert checkpointer.stats()["gradients_submitted"] == 30

    def test_gc_after_training(self):
        trainer, checkpointer = run_lowdiff(iterations=30, full_every=10)
        deleted = checkpointer.store.gc(keep_fulls=1)
        assert deleted > 0
        # Still recoverable to the final state.
        model, _, _ = recover_fresh(checkpointer)
        assert_states_equal(model.state_dict(), trainer.model_state())


class TestZeroCopyAblation:
    def test_zero_copy_moves_no_bytes(self):
        _, checkpointer = run_lowdiff(zero_copy=True)
        assert checkpointer.stats()["queue_copied_bytes"] == 0

    def test_copy_mode_counts_payload_bytes(self):
        _, checkpointer = run_lowdiff(zero_copy=False)
        assert checkpointer.stats()["queue_copied_bytes"] > 0

    def test_copy_mode_still_recovers_exactly(self):
        trainer, checkpointer = run_lowdiff(zero_copy=False)
        model, _, _ = recover_fresh(checkpointer)
        assert_states_equal(model.state_dict(), trainer.model_state())


class TestAsyncMode:
    """Persistence leaves the training thread one way: the persist engine
    of ``CheckpointConfig(async_persist=True)`` (the queue always drains
    inline).  The ids predate that; ``FLOOR_DROPPABLE.md`` lists their new
    names."""

    def test_async_checkpointing_recovers_exactly(self):
        trainer, checkpointer = run_lowdiff(async_persist=True,
                                            iterations=40)
        assert checkpointer.stats()["engine"]["committed"] == 5 + 40
        model, _, result = recover_fresh(checkpointer)
        assert result.step == 40
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_async_with_batching(self):
        """Batches of 3 flush at every full, so each engine record covers
        the steps its batch merged and the chain stays contiguous."""
        trainer, checkpointer = run_lowdiff(async_persist=True, batch_size=3,
                                            iterations=30, full_every=10)
        chain = checkpointer.store.diffs_after(20)
        assert [(r.start, r.end) for r in chain] \
            == [(21, 23), (24, 26), (27, 29), (30, 30)]
        model, _, _ = recover_fresh(checkpointer)
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_async_worker_error_surfaces(self):
        """A backend failure on a writer thread fail-stops the engine and
        surfaces on the training thread, not later and not silently."""
        backend = FlakyBackend(InMemoryBackend(), fail_on_write=5)
        with pytest.raises(RuntimeError, match="persistence engine failed"):
            run_lowdiff(backend=backend, async_persist=True, iterations=40)


class TestFailureDuringCheckpointing:
    def test_flaky_write_leaves_consistent_series(self):
        """A failed diff write must not corrupt the recovery chain: the
        chain simply truncates at the gap."""
        backend = FlakyBackend(InMemoryBackend(), fail_on_write=8)
        with pytest.raises(IOError):
            run_lowdiff(backend=backend, iterations=40)
        # Whatever was persisted before the fault recovers cleanly.
        store = CheckpointStore(backend.inner)
        from repro.core.recovery import serial_recover
        model = MLP(8, [16, 16], 4, rng=Rng(99))
        optimizer = Adam(model, lr=1e-3)
        result = serial_recover(store, model, optimizer)
        assert result.step >= 0  # no torn data, loadable state


class TestFinishedJobIsNotCyclicGarbage:
    """A finished trainer and checkpointer hold the whole training state
    (models, gradients, optimizer scratch, engines, stores).  Neither may
    sit in a reference cycle: a restore allocates too little to trigger
    the generation-2 collection that would free them."""

    @staticmethod
    def dies_without_gc(build):
        """``build()`` returns objects; once it returned and they were
        dropped, nothing but the cycle collector could still hold them."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            refs = [weakref.ref(obj) for obj in build()]
            return [ref() is None for ref in refs]
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("persist, ending", [
        ("inline", "finalize"),
        ("thread", "finalize"),
        pytest.param("process", "finalize", marks=pytest.mark.shm),
        ("thread", "crash"),
        ("thread", "abort"),
        ("thread", "quiesce"),
    ])
    def test_trainer_and_checkpointer_die_with_their_last_name(
            self, persist, ending, tmp_path):
        def build():
            trainer = make_mlp_trainer()
            config = CheckpointConfig(
                full_every_iters=3, batch_size=1,
                async_persist=persist != "inline",
                persist_mode="thread" if persist == "inline" else persist,
                writer_threads=1, ring_mb=4.0)
            checkpointer = LowDiffCheckpointer(
                CheckpointStore(LocalDiskBackend(str(tmp_path))), config)
            checkpointer.attach(trainer)
            trainer.run(5)
            getattr(checkpointer, ending)()
            return trainer, checkpointer

        assert self.dies_without_gc(build) == [True, True]

    @pytest.mark.parametrize("ending", ["finalize", "crash"])
    @pytest.mark.parametrize("name", STRATEGIES)
    def test_every_strategy_lets_the_trainer_go(self, name, ending):
        """The cycle is cut once, in ``Checkpointer._stop_intake``: all six
        strategies release the trainer on every way to end."""
        rho, factory, _, _ = STRATEGIES[name]

        def build():
            trainer = make_mlp_trainer(rho=rho)
            checkpointer = factory(CheckpointStore(InMemoryBackend()))
            checkpointer.attach(trainer)
            trainer.run(5)
            getattr(checkpointer, ending)()
            return trainer, checkpointer

        assert self.dies_without_gc(build) == [True, True]

    def test_trainer_without_a_checkpointer_dies_too(self):
        def build():
            trainer = make_mlp_trainer()
            trainer.run(3)
            return (trainer,)

        assert self.dies_without_gc(build) == [True]
