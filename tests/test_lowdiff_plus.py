"""End-to-end tests for LowDiff+ (Algorithm 2)."""

import pytest

from repro.core import LowDiffPlusCheckpointer
from repro.optim import Adam
from repro.storage import CheckpointStore, InMemoryBackend
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import (
    BoundLowDiffPlus,
    assert_optimizers_equal,
    assert_states_equal,
    make_mlp_trainer,
)

MODEL_FACTORY = staticmethod(lambda: MLP(8, [16, 16], 4, rng=Rng(0)))


def run_lowdiff_plus(iterations=20, persist_every=5, num_workers=2, seed=7,
                     **ckpt_kwargs):
    trainer = make_mlp_trainer(num_workers=num_workers, rho=None, seed=seed)
    store = CheckpointStore(InMemoryBackend())
    checkpointer = BoundLowDiffPlus(store, persist_every=persist_every,
                                    **ckpt_kwargs)
    checkpointer.attach(trainer)
    trainer.run(iterations)
    checkpointer.finalize()
    return trainer, checkpointer


class TestCpuReplica:
    def test_replica_tracks_gpu_bit_exact(self):
        trainer, checkpointer = run_lowdiff_plus()
        assert checkpointer.replica.matches(trainer.model_state())
        assert_optimizers_equal(checkpointer.replica.optimizer.state_dict(),
                                trainer.optimizer_state())

    def test_replica_tracks_every_iteration(self):
        """The in-memory checkpoint frequency is one iteration."""
        trainer = make_mlp_trainer(rho=None)
        store = CheckpointStore(InMemoryBackend())
        checkpointer = BoundLowDiffPlus(store, persist_every=100)
        checkpointer.attach(trainer)
        for _ in range(7):
            trainer.step()
            assert checkpointer.replica.matches(trainer.model_state())
        assert checkpointer.stats()["in_memory_checkpoints"] == 7

    def test_snapshot_bytes_counted(self):
        trainer, checkpointer = run_lowdiff_plus(iterations=5)
        psi_bytes = sum(p.nbytes for p in trainer.model.parameters())
        assert checkpointer.stats()["snapshot_bytes"] == 5 * psi_bytes

    def test_four_workers(self):
        trainer, checkpointer = run_lowdiff_plus(num_workers=4)
        assert checkpointer.replica.matches(trainer.model_state())


class TestSoftwareRecovery:
    def test_recovers_without_storage_reads(self):
        trainer, checkpointer = run_lowdiff_plus(iterations=17)
        # Simulate a software failure: trash the training replicas.
        for worker in trainer.workers:
            for param in worker.model.parameters():
                param.data[...] = 0.0
        reads_before = checkpointer.store.backend.bytes_read
        live_before_crash = checkpointer.replica.model.state_dict()
        result = checkpointer.recover_software(trainer)
        assert checkpointer.store.backend.bytes_read == reads_before
        assert result.step == 17
        assert_states_equal(trainer.model_state(), live_before_crash)
        assert trainer.replicas_consistent()

    def test_training_resumes_identically_after_software_recovery(self):
        straight = make_mlp_trainer(rho=None, seed=31)
        straight.run(25)

        trainer, checkpointer = run_lowdiff_plus(iterations=15, seed=31)
        checkpointer.recover_software(trainer)
        trainer.run(10)
        assert_states_equal(trainer.model_state(), straight.model_state())


class TestHardwareRecovery:
    def test_recovers_from_latest_persisted_full(self):
        trainer, checkpointer = run_lowdiff_plus(iterations=17, persist_every=5)
        model = MLP(8, [16, 16], 4, rng=Rng(99))
        optimizer = Adam(model, lr=1e-3)
        result = checkpointer.recover_hardware(model, optimizer)
        # Last persist was at step 15; steps 16-17 are lost (no diffs on
        # storage — LowDiff+ persists full states only).
        assert result.step == 15
        assert result.full_step == 15

    def test_persist_cadence(self):
        _, checkpointer = run_lowdiff_plus(iterations=20, persist_every=5)
        # Initial full at attach + persists at 5, 10, 15, 20.
        assert checkpointer.stats()["persisted_checkpoints"] == 5


class TestAsyncPersistence:
    def test_async_persist_completes(self):
        trainer, checkpointer = run_lowdiff_plus(iterations=20, persist_every=5,
                                                 async_persist=True)
        stats = checkpointer.stats()
        # Some persists may be skipped while one is in flight, but at
        # least the initial and one periodic persist must land.
        assert stats["persisted_checkpoints"] >= 2
        # Whatever persisted is loadable.
        model = MLP(8, [16, 16], 4, rng=Rng(99))
        optimizer = Adam(model, lr=1e-3)
        result = checkpointer.recover_hardware(model, optimizer)
        assert result.step >= 0

    def test_replica_unaffected_by_async_persist(self):
        trainer, checkpointer = run_lowdiff_plus(iterations=20,
                                                 persist_every=3,
                                                 async_persist=True)
        assert checkpointer.replica.matches(trainer.model_state())


class TestLayerStreamContract:
    """The layer stream fires after the collective gates, so an aborted
    step leaves the checkpointer untouched and a degraded world streams
    the same mean the update consumes."""

    @staticmethod
    def _attach(trainer):
        checkpointer = BoundLowDiffPlus(
            CheckpointStore(InMemoryBackend()), persist_every=4)
        checkpointer.attach(trainer)
        return checkpointer

    def test_gate_abort_then_rerun_matches_uninterrupted(self):
        straight = make_mlp_trainer(rho=None)
        straight.run(10)

        trainer = make_mlp_trainer(rho=None)
        checkpointer = self._attach(trainer)
        fired = []

        def gate(iteration):
            if iteration == 3 and not fired:
                fired.append(iteration)
                raise ConnectionError("peer lost in the allreduce")

        trainer.register_collective_gate(gate)
        while trainer.iteration < 10:
            try:
                trainer.step()
            except ConnectionError:
                pass
        checkpointer.finalize()
        assert fired == [3]
        assert_states_equal(trainer.model_state(), straight.model_state())
        assert_optimizers_equal(trainer.optimizer_state(),
                                straight.optimizer_state())
        assert checkpointer.replica.matches(straight.model_state())
        assert_optimizers_equal(checkpointer.replica.optimizer.state_dict(),
                                straight.optimizer_state())

    def test_degraded_mode_keeps_replica_bit_exact(self):
        trainer = make_mlp_trainer(num_workers=3, rho=None)
        checkpointer = self._attach(trainer)
        trainer.run(3)
        assert checkpointer.replica.matches(trainer.model_state())
        trainer.deactivate_worker(1)
        trainer.run(4)
        assert checkpointer.replica.matches(trainer.model_state())
        trainer.reactivate_worker(1)
        trainer.run(3)
        checkpointer.finalize()
        assert checkpointer.replica.matches(trainer.model_state())
        assert trainer.replicas_consistent()
        assert checkpointer.stats()["in_memory_checkpoints"] == 10


class TestValidation:
    def test_rejects_compressed_trainer(self):
        trainer = make_mlp_trainer(rho=0.1)  # compression on
        checkpointer = BoundLowDiffPlus(
            CheckpointStore(InMemoryBackend()))
        with pytest.raises(ValueError):
            checkpointer.attach(trainer)

    def test_rejects_bad_persist_interval(self):
        with pytest.raises(ValueError):
            LowDiffPlusCheckpointer(CheckpointStore(InMemoryBackend()),
                                    persist_every=0)

    def test_software_recovery_requires_attach(self):
        checkpointer = LowDiffPlusCheckpointer(
            CheckpointStore(InMemoryBackend()))
        with pytest.raises(RuntimeError):
            checkpointer.recover_software(None)
