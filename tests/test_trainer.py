"""Tests for the data-parallel trainer and its reuse hook points."""

import numpy as np
import pytest

from tests.helpers import assert_states_equal, make_mlp_trainer
from tests.test_costs import check
from repro.compression import DenseGradient
from repro.distributed import DataParallelTrainer, SyntheticClassification
from repro.optim import Adam, SGD
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.models import MLP, MiniGPT2
from repro.distributed.data import SyntheticTokens
from repro.utils.rng import Rng


class TestBasicsAndConsistency:
    def test_replicas_stay_identical(self):
        trainer = make_mlp_trainer(num_workers=3)
        trainer.run(10)
        assert trainer.replicas_consistent()

    def test_replicas_identical_without_compression(self):
        trainer = make_mlp_trainer(num_workers=3, rho=None)
        trainer.run(10)
        assert trainer.replicas_consistent()

    def test_loss_decreases(self):
        trainer = make_mlp_trainer(rho=None)
        records = trainer.run(40)
        losses = [r.loss for r in records]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_mismatched_replicas_rejected(self):
        with pytest.raises(ValueError):
            DataParallelTrainer(
                model_builder=lambda rank: MLP(4, [4], 2, rng=Rng(rank)),
                optimizer_builder=lambda m: Adam(m, lr=1e-3),
                loss_fn=CrossEntropyLoss(),
                dataset=SyntheticClassification(4, 2, batch_size=2, seed=0),
                num_workers=2,
            )

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            make_mlp_trainer(num_workers=0)

    def test_iteration_counter_advances(self):
        trainer = make_mlp_trainer()
        records = trainer.run(3)
        assert [r.iteration for r in records] == [0, 1, 2]
        assert trainer.iteration == 3


class TestSyncedGradientHook:
    def test_payload_is_exact_update_gradient(self):
        """The Finding-1 precondition: the hook payload decompresses to the
        gradient every replica used for its update."""
        trainer = make_mlp_trainer(rho=0.2)
        payloads = []
        trainer.register_synced_gradient_hook(
            lambda it, payload: payloads.append(payload))
        before = trainer.model_state()
        opt_state_before = trainer.optimizer_state()
        trainer.step()
        after = trainer.model_state()
        # Replay the payload through a fresh optimizer on the before-state.
        model = MLP(8, [16, 16], 4, rng=Rng(0))
        model.load_state_dict(before)
        optimizer = Adam(model, lr=1e-3)
        optimizer.load_state_dict(opt_state_before)
        optimizer.step_with(payloads[0].decompress())
        assert_states_equal(model.state_dict(), after, exact=True)

    def test_dense_payload_without_compressor(self):
        trainer = make_mlp_trainer(rho=None)
        record = trainer.step()
        assert isinstance(record.payload, DenseGradient)

    def test_hook_called_once_per_iteration(self):
        trainer = make_mlp_trainer()
        calls = []
        trainer.register_synced_gradient_hook(lambda it, p: calls.append(it))
        trainer.run(5)
        assert calls == [0, 1, 2, 3, 4]


class TestLayerGradientHook:
    def test_layer_hooks_reassemble_full_gradient(self):
        trainer = make_mlp_trainer(rho=None)
        assembled = {}
        trainer.register_layer_gradient_hook(
            lambda it, layer, grads: assembled.update(grads))
        record = trainer.step()
        full = record.payload.decompress()
        assert set(assembled) == set(full)
        for name in full:
            np.testing.assert_array_equal(assembled[name], full[name])

    def test_layer_hooks_fire_in_reverse_order(self):
        trainer = DataParallelTrainer(
            model_builder=lambda rank: MiniGPT2(num_layers=2, rng=Rng(3)),
            optimizer_builder=lambda m: Adam(m, lr=1e-3),
            loss_fn=CrossEntropyLoss(),
            dataset=SyntheticTokens(vocab_size=64, seq_len=8, batch_size=2, seed=1),
            num_workers=2,
        )
        order = []
        trainer.register_layer_gradient_hook(
            lambda it, layer, grads: order.append(layer))
        trainer.step()
        assert order[-1] == "token_emb"
        h1 = [i for i, n in enumerate(order) if n.startswith("h1.")]
        h0 = [i for i, n in enumerate(order) if n.startswith("h0.")]
        assert max(h1) < min(h0)

    def test_layer_means_are_cross_worker(self):
        trainer = make_mlp_trainer(num_workers=3, rho=None)
        captured = {}
        trainer.register_layer_gradient_hook(
            lambda it, layer, grads: captured.update(grads))
        # Compute the expected mean manually from per-worker grads.
        local = [w.local_gradients(0) for w in trainer.workers]
        expected = {
            name: np.mean([g[name] for g in local], axis=0)
            for name in local[0]
        }
        # Reset and step for real.
        trainer2 = make_mlp_trainer(num_workers=3, rho=None)
        trainer2.register_layer_gradient_hook(
            lambda it, layer, grads: captured.update(grads))
        trainer2.step()
        for name in expected:
            np.testing.assert_allclose(captured[name], expected[name], atol=1e-12)


    def test_layer_hooks_get_the_arrays_the_update_consumes(self):
        """No copy between the mean and the layer stream: every array a
        hook receives is the one in the synced payload."""
        trainer = make_mlp_trainer(rho=None)
        received = []
        trainer.register_layer_gradient_hook(
            lambda it, layer, grads: received.extend(grads.items()))
        record = trainer.step()
        assert len(received) == len(record.payload.tensors)
        for name, grad in received:
            assert grad is record.payload.tensors[name]

    def test_layer_hooks_fire_after_the_collective_gates(self):
        trainer = make_mlp_trainer(rho=None)
        events = []
        trainer.register_collective_gate(lambda it: events.append("gate"))
        trainer.register_layer_gradient_hook(
            lambda it, layer, grads: events.append("layer"))
        trainer.step()
        assert events == ["gate"] + ["layer"] * 3  # one per Linear

    def test_compressed_trainer_rejects_layer_hooks(self):
        trainer = make_mlp_trainer(rho=0.1)
        with pytest.raises(ValueError, match="dense trainer"):
            trainer.register_layer_gradient_hook(lambda it, layer, grads: None)


class TestStepCopies:
    def test_dense_step_copies_no_gradient(self):
        check(("step", "dense"))

    def test_compressed_step_copies(self):
        check(("step", "compressed"))

    def test_lowdiff_plus_step_computes_one_mean(self):
        check(("step", "lowdiff_plus"))


class TestStateManagement:
    def test_load_state_restores_all_replicas(self):
        trainer = make_mlp_trainer(num_workers=3)
        trainer.run(5)
        saved_model = trainer.model_state()
        saved_opt = trainer.optimizer_state()
        trainer.run(5)
        trainer.load_state(saved_model, saved_opt, iteration=5)
        assert trainer.iteration == 5
        assert trainer.replicas_consistent()
        assert_states_equal(trainer.model_state(), saved_model)

    def test_resumed_run_matches_uninterrupted(self):
        # Train 10 straight vs train 5, save, restore, train 5 more.
        straight = make_mlp_trainer(seed=11)
        straight.run(10)
        resumed = make_mlp_trainer(seed=11)
        resumed.run(5)
        saved_model = resumed.model_state()
        saved_opt = resumed.optimizer_state()
        fresh = make_mlp_trainer(seed=11)
        fresh.load_state(saved_model, saved_opt, iteration=5)
        fresh.run(5)
        assert_states_equal(straight.model_state(), fresh.model_state())

    def test_comm_bytes_recorded(self):
        trainer = make_mlp_trainer()
        record = trainer.step()
        assert record.comm_bytes > 0

    def test_sgd_trainer_works(self):
        trainer = make_mlp_trainer(
            optimizer_builder=lambda m: SGD(m, lr=0.01, momentum=0.9))
        trainer.run(5)
        assert trainer.replicas_consistent()
