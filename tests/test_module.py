"""Tests for Parameter and the Module tree."""

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.distributed import DataParallelTrainer, SyntheticClassification
from repro.optim import SGD
from repro.tensor import Linear, ReLU, Sequential
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.module import Module
from repro.tensor.parameter import Parameter
from repro.utils.rng import Rng


class TestParameter:
    def test_data_is_contiguous_float64(self):
        p = Parameter(np.arange(6, dtype=np.float32).reshape(2, 3)[:, ::-1])
        assert p.data.dtype == np.float64
        assert p.data.flags["C_CONTIGUOUS"]

    def test_zero_grad_allocates_then_resets(self):
        p = Parameter(np.ones((2, 2)))
        p.zero_grad()
        assert np.all(p.grad == 0)
        p.grad += 5
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_accumulate_grad(self):
        p = Parameter(np.ones(3))
        p.accumulate_grad(np.ones(3))
        p.accumulate_grad(2 * np.ones(3))
        np.testing.assert_array_equal(p.grad, 3 * np.ones(3))

    def test_frozen_parameter_skips_gradients(self):
        p = Parameter(np.ones(3), requires_grad=False)
        p.accumulate_grad(np.ones(3))
        assert p.grad is None

    def test_flat_views_share_memory(self):
        p = Parameter(np.ones((2, 3)))
        view = p.flat_view()
        view[0] = 99.0
        assert p.data[0, 0] == 99.0

    def test_copy_is_independent(self):
        p = Parameter(np.ones(3), name="w")
        q = p.copy()
        q.data[0] = 7
        assert p.data[0] == 1.0
        assert q.name == "w"


class TestModuleTree:
    def test_named_parameters_have_dotted_paths(self):
        model = Sequential(Linear(4, 3, rng=Rng(0)), ReLU(), Linear(3, 2, rng=Rng(1)))
        names = [name for name, _ in model.named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_num_parameters(self):
        model = Sequential(Linear(4, 3, rng=Rng(0)))
        assert model.num_parameters() == 4 * 3 + 3

    def test_state_dict_roundtrip(self):
        a = Sequential(Linear(4, 3, rng=Rng(0)))
        b = Sequential(Linear(4, 3, rng=Rng(99)))
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_returns_copies(self):
        model = Sequential(Linear(2, 2, rng=Rng(0)))
        state = model.state_dict()
        state["0.weight"][0, 0] = 1e9
        assert model.state_dict()["0.weight"][0, 0] != 1e9

    def test_load_state_dict_rejects_missing_keys(self):
        model = Sequential(Linear(2, 2, rng=Rng(0)))
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_load_state_dict_rejects_unexpected_keys(self):
        model = Sequential(Linear(2, 2, rng=Rng(0)))
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_shape_mismatch(self):
        model = Sequential(Linear(2, 2, rng=Rng(0)))
        state = model.state_dict()
        state["0.weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2, rng=Rng(0)), ReLU())
        model.eval()
        assert all(not m.training for _, m in model.named_modules())
        model.train()
        assert all(m.training for _, m in model.named_modules())

    def test_zero_grad_all(self):
        model = Sequential(Linear(2, 2, rng=Rng(0)))
        model.zero_grad()
        assert all(np.all(p.grad == 0) for p in model.parameters())


def dense_trainer(model_builder, in_features, classes, compressor=None):
    return DataParallelTrainer(
        model_builder=model_builder,
        optimizer_builder=lambda m: SGD(m, lr=0.1),
        loss_fn=CrossEntropyLoss(),
        dataset=SyntheticClassification(in_features, classes, batch_size=2,
                                        seed=1),
        num_workers=2, compressor_builder=compressor)


class TestBackwardHooks:
    """Layer-wise gradient reuse: the trainer's layer hooks."""

    def test_hooks_fire_in_reverse_layer_order(self):
        trainer = dense_trainer(lambda rank: Sequential(
            Linear(4, 4, rng=Rng(0)), ReLU(),
            Linear(4, 4, rng=Rng(1)), ReLU(),
            Linear(4, 2, rng=Rng(2)),
        ), 4, 2)
        order = []
        trainer.register_layer_gradient_hook(
            lambda it, name, grads: order.append(name))
        trainer.step()
        assert order == ["4", "2", "0"]

    def test_hook_receives_complete_grads(self):
        trainer = dense_trainer(
            lambda rank: Sequential(Linear(3, 2, rng=Rng(0))), 3, 2)
        captured = {}
        trainer.register_layer_gradient_hook(
            lambda it, name, grads: captured.update(grads))
        record = trainer.step()
        assert set(captured) == {"0.weight", "0.bias"}
        for name, grad in record.payload.decompress().items():
            np.testing.assert_array_equal(captured[name], grad)

    def test_clear_grad_hooks(self):
        """A compressed trainer consumes no dense mean: it refuses."""
        trainer = dense_trainer(
            lambda rank: Sequential(Linear(3, 2, rng=Rng(0))), 3, 2,
            compressor=lambda: TopKCompressor(0.5))
        with pytest.raises(ValueError, match="dense trainer"):
            trainer.register_layer_gradient_hook(lambda it, name, grads: None)

class TestSequential:
    def test_len_and_getitem(self):
        layers = [Linear(2, 2, rng=Rng(0)), ReLU()]
        model = Sequential(*layers)
        assert len(model) == 2
        assert model[1] is layers[1]

    def test_append(self):
        model = Sequential(Linear(2, 2, rng=Rng(0)))
        model.append(ReLU())
        assert len(model) == 2
        # Appended module participates in traversal.
        assert any(isinstance(m, ReLU) for _, m in model.named_modules())

    def test_forward_backward_chain(self):
        model = Sequential(Linear(2, 3, rng=Rng(0)), ReLU(), Linear(3, 1, rng=Rng(1)))
        x = np.ones((4, 2))
        out = model.forward(x)
        assert out.shape == (4, 1)
        model.zero_grad()
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_base_module_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module().forward(np.zeros(1))
