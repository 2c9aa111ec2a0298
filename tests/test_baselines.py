"""Tests for the baseline checkpointers and cross-method storage facts."""

import numpy as np
import pytest

from repro.baselines import (
    CheckFreqCheckpointer,
    FullCheckpointer,
    GeminiCheckpointer,
    NaiveDCCheckpointer,
)
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.optim import Adam
from repro.storage import CheckpointStore, InMemoryBackend
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import assert_states_equal, make_mlp_trainer


def fresh_target(seed=99):
    model = MLP(8, [16, 16], 4, rng=Rng(seed))
    return model, Adam(model, lr=1e-3)


class TestFullCheckpointer:
    def test_cadence_and_recovery(self):
        trainer = make_mlp_trainer()
        store = CheckpointStore(InMemoryBackend())
        ckpt = FullCheckpointer(store, every=10)
        ckpt.attach(trainer)
        trainer.run(25)
        assert ckpt.stats()["full_checkpoints"] == 3  # steps 0, 10, 20
        model, optimizer = fresh_target()
        result = ckpt.recover(model, optimizer)
        assert result.step == 20  # iterations 21-25 lost

    def test_recovery_exact_at_checkpoint(self):
        trainer = make_mlp_trainer()
        store = CheckpointStore(InMemoryBackend())
        ckpt = FullCheckpointer(store, every=10)
        ckpt.attach(trainer)
        trainer.run(10)
        at_ten = trainer.model_state()
        trainer.run(5)
        model, optimizer = fresh_target()
        ckpt.recover(model, optimizer)
        assert_states_equal(model.state_dict(), at_ten)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            FullCheckpointer(CheckpointStore(InMemoryBackend()), every=0)


class TestCheckFreq:
    def test_sync_mode_cadence(self):
        trainer = make_mlp_trainer()
        store = CheckpointStore(InMemoryBackend())
        ckpt = CheckFreqCheckpointer(store, every=5)
        ckpt.attach(trainer)
        trainer.run(20)
        ckpt.finalize()
        assert ckpt.stats()["snapshots"] == 4
        assert ckpt.stats()["persisted"] == 5  # + initial

    def test_async_persist_skips_when_busy(self):
        trainer = make_mlp_trainer()
        store = CheckpointStore(InMemoryBackend())
        ckpt = CheckFreqCheckpointer(store, every=1, async_persist=True)
        ckpt.attach(trainer)
        trainer.run(30)
        ckpt.finalize()
        stats = ckpt.stats()
        assert stats["snapshots"] + stats["skipped"] == 30
        # Whatever persisted recovers cleanly.
        model, optimizer = fresh_target()
        result = ckpt.recover(model, optimizer)
        assert result.step >= 0

    def test_recovery_state_matches_snapshot(self):
        trainer = make_mlp_trainer()
        store = CheckpointStore(InMemoryBackend())
        ckpt = CheckFreqCheckpointer(store, every=10)
        ckpt.attach(trainer)
        trainer.run(10)
        at_ten = trainer.model_state()
        trainer.run(3)
        ckpt.finalize()
        model, optimizer = fresh_target()
        ckpt.recover(model, optimizer)
        assert_states_equal(model.state_dict(), at_ten)


class TestGemini:
    def test_two_tier_recovery(self):
        trainer = make_mlp_trainer()
        store = CheckpointStore(InMemoryBackend())
        ckpt = GeminiCheckpointer(store, memory_every=1, storage_every=10)
        ckpt.attach(trainer)
        trainer.run(13)
        live = trainer.model_state()
        # Memory tier: per-iteration freshness.
        model, optimizer = fresh_target()
        result = ckpt.recover_memory(model, optimizer)
        assert result.step == 13
        assert_states_equal(model.state_dict(), live)
        # Storage tier: coarser.
        model2, optimizer2 = fresh_target(seed=98)
        result2 = ckpt.recover_storage(model2, optimizer2)
        assert result2.step == 10

    def test_recover_ladder_prefers_memory_tier(self):
        trainer = make_mlp_trainer()
        ckpt = GeminiCheckpointer(CheckpointStore(InMemoryBackend()),
                                  memory_every=1, storage_every=10)
        ckpt.attach(trainer)
        trainer.run(13)
        model, optimizer = fresh_target()
        result = ckpt.recover(model, optimizer)
        assert result.step == 13
        assert ckpt.stats()["last_recovery_tier"] == "memory"
        assert ckpt.stats()["recoveries_by_tier"] == {"memory": 1, "storage": 0}
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_recover_falls_back_when_memory_tier_lost(self):
        """Correlated peer loss wipes the memory tier; ``recover`` must
        degrade to durable storage instead of failing outright."""
        trainer = make_mlp_trainer()
        ckpt = GeminiCheckpointer(CheckpointStore(InMemoryBackend()),
                                  memory_every=1, storage_every=10)
        ckpt.attach(trainer)
        trainer.run(13)
        ckpt.lose_memory_tier()
        assert ckpt.stats()["memory_tier_losses"] == 1
        model, optimizer = fresh_target()
        result = ckpt.recover(model, optimizer)
        assert result.step == 10  # storage tier's coarser cadence
        assert ckpt.stats()["last_recovery_tier"] == "storage"
        assert ckpt.stats()["recoveries_by_tier"]["storage"] == 1

    def test_resumed_attach_restarts_both_tiers(self):
        trainer = make_mlp_trainer()
        ckpt = GeminiCheckpointer(CheckpointStore(InMemoryBackend()),
                                  memory_every=1, storage_every=10)
        ckpt.attach(trainer, resume_from=7)
        assert ckpt.memory_tier.latest_full().step == 7
        assert ckpt.store.latest_full().step == 7

    def test_memory_tier_garbage_collected(self):
        trainer = make_mlp_trainer()
        ckpt = GeminiCheckpointer(CheckpointStore(InMemoryBackend()),
                                  memory_every=1, storage_every=50)
        ckpt.attach(trainer)
        trainer.run(20)
        # GC keeps the memory tier bounded.
        assert len(ckpt.memory_tier.fulls()) <= 2

    def test_memory_retention_is_configurable(self):
        """The ring depth is ``MEMORY_FULLS``, read at every snapshot: a
        deeper ring retains more snapshots, recovery stays exact."""
        trainer = make_mlp_trainer()
        ckpt = GeminiCheckpointer(
            CheckpointStore(InMemoryBackend()), memory_every=1,
            storage_every=50)
        ckpt.MEMORY_FULLS = 5
        ckpt.attach(trainer)
        trainer.run(20)
        assert len(ckpt.memory_tier.fulls()) == 5
        model, optimizer = fresh_target()
        result = ckpt.recover_memory(model, optimizer)
        assert result.step == 20
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_counts(self):
        trainer = make_mlp_trainer()
        ckpt = GeminiCheckpointer(CheckpointStore(InMemoryBackend()),
                                  memory_every=2, storage_every=10)
        ckpt.attach(trainer)
        trainer.run(20)
        stats = ckpt.stats()
        assert stats["memory_checkpoints"] == 11  # initial + every 2
        assert stats["storage_checkpoints"] == 3  # initial + 10 + 20


class TestNaiveDC:
    def test_recovery_approximates_live_state(self):
        """Naïve DC with rho<1 is lossy on parameters (the paper's point)
        but exact on optimizer state; recovery lands near the live state."""
        trainer = make_mlp_trainer(rho=None)
        store = CheckpointStore(InMemoryBackend())
        ckpt = NaiveDCCheckpointer(store, full_every=20, diff_every=1, rho=0.5)
        ckpt.attach(trainer)
        trainer.run(10)
        live = trainer.model_state()
        model, optimizer = fresh_target()
        result = ckpt.recover(model, optimizer)
        assert result.step == 10
        for name, value in live.items():
            drift = np.abs(model.state_dict()[name] - value).max()
            assert drift < 0.01, name

    def test_high_rho_recovery_nearly_exact(self):
        trainer = make_mlp_trainer(rho=None)
        store = CheckpointStore(InMemoryBackend())
        ckpt = NaiveDCCheckpointer(store, full_every=50, diff_every=1,
                                   rho=0.999999)
        ckpt.attach(trainer)
        trainer.run(8)
        model, optimizer = fresh_target()
        ckpt.recover(model, optimizer)
        assert_states_equal(model.state_dict(), trainer.model_state(),
                            exact=False, atol=1e-5)

    def test_parallel_recovery_supported(self):
        trainer = make_mlp_trainer(rho=None)
        store = CheckpointStore(InMemoryBackend())
        ckpt = NaiveDCCheckpointer(store, full_every=50, diff_every=1,
                                   rho=0.999999)
        ckpt.attach(trainer)
        trainer.run(8)
        serial_model, serial_opt = fresh_target()
        ckpt.recover(serial_model, serial_opt, parallel=False)
        par_model, par_opt = fresh_target(seed=98)
        result = ckpt.recover(par_model, par_opt, parallel=True)
        assert_states_equal(serial_model.state_dict(), par_model.state_dict(),
                            exact=False, atol=1e-5)
        assert result.merge_depth == 3  # ceil(log2(8))

    def test_diff_cadence(self):
        trainer = make_mlp_trainer(rho=None)
        ckpt = NaiveDCCheckpointer(CheckpointStore(InMemoryBackend()),
                                   full_every=10, diff_every=2)
        ckpt.attach(trainer)
        trainer.run(10)
        assert ckpt.stats()["diff_checkpoints"] == 5
        assert ckpt.stats()["full_checkpoints"] == 2


class TestStorageComparison:
    def test_exp7_ordering_functional(self):
        """The Exp. 7 fact, measured on real serialized files:
        LowDiff diffs << Naive DC diffs < full checkpoints."""
        def run_with(ckpt_factory, rho):
            trainer = make_mlp_trainer(rho=rho)
            store = CheckpointStore(InMemoryBackend())
            ckpt = ckpt_factory(store)
            if isinstance(ckpt, LowDiffCheckpointer):
                ckpt.attach(trainer)
            else:
                ckpt.attach(trainer)
            trainer.run(10)
            if hasattr(ckpt, "finalize"):
                ckpt.finalize()
            return store

        full_store = run_with(lambda s: FullCheckpointer(s, every=1), None)
        naive_store = run_with(
            lambda s: NaiveDCCheckpointer(s, full_every=100, diff_every=1,
                                          rho=0.01),
            None,
        )
        lowdiff_store = run_with(
            lambda s: LowDiffCheckpointer(
                s, CheckpointConfig(full_every_iters=100, batch_size=1)),
            0.01,
        )
        # Per-object sizes: average bytes of one checkpoint "unit".
        full_unit = full_store.storage_bytes()["full"] / max(1, len(full_store.fulls()))
        naive_unit = naive_store.storage_bytes()["diff"] / max(1, len(naive_store.diffs()))
        lowdiff_unit = lowdiff_store.storage_bytes()["diff"] / max(1, len(lowdiff_store.diffs()))
        assert lowdiff_unit < naive_unit < full_unit
        # Naive DC keeps dense optimizer deltas: > 2/3 of a full state.
        assert naive_unit > 0.5 * full_unit
        # LowDiff diffs are roughly rho-sized.
        assert lowdiff_unit < 0.2 * full_unit
