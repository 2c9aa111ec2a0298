"""Tests for the miniature model zoo and the profile registry."""

import numpy as np
import pytest

from repro.distributed import DataParallelTrainer
from repro.distributed.data import SyntheticTokens
from repro.optim import Adam
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.models import (
    MLP,
    MiniBERT,
    MiniGPT2,
    MiniResNet,
    MiniVGG,
    MODEL_PROFILES,
    build_mini_model,
    get_profile,
)
from repro.utils.rng import Rng

LOSS = CrossEntropyLoss()


def build_all(rng):
    return [
        (MLP(8, [16], 4, rng=rng.child("mlp")), rng.normal(size=(2, 8)), (2, 4)),
        (MiniResNet(rng=rng.child("rn")), rng.normal(size=(2, 3, 8, 8)), (2, 10)),
        (MiniVGG(rng=rng.child("vgg")), rng.normal(size=(2, 3, 8, 8)), (2, 10)),
        (MiniGPT2(rng=rng.child("gpt")), rng.integers(0, 64, (2, 8)), (2, 8, 64)),
        (MiniBERT(rng=rng.child("bert")), rng.integers(0, 64, (2, 8)), (2, 2)),
    ]


class TestForwardBackward:
    def test_output_shapes(self, rng):
        for model, inputs, expected in build_all(rng):
            assert model.forward(inputs).shape == expected, type(model).__name__

    def test_all_parameters_receive_gradients(self, rng):
        for model, inputs, _ in build_all(rng):
            out = model.forward(inputs)
            targets = np.zeros(out.shape[:-1], dtype=np.int64)
            model.zero_grad()
            _, grad = LOSS(out, targets)
            model.backward(grad)
            for name, param in model.named_parameters():
                assert param.grad is not None, f"{type(model).__name__}:{name}"
                assert np.isfinite(param.grad).all(), name

    def test_deterministic_construction(self):
        a = MiniGPT2(rng=Rng(5))
        b = MiniGPT2(rng=Rng(5))
        for (na, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)

    def test_different_seeds_differ(self):
        a = MiniGPT2(rng=Rng(5))
        b = MiniGPT2(rng=Rng(6))
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )


class TestTraining:
    @pytest.mark.parametrize("name", ["mlp", "gpt2_small", "bert_base",
                                      "resnet50", "vgg16"])
    def test_loss_decreases(self, name, rng):
        from repro.distributed.data import (
            SyntheticClassification, SyntheticImages, SyntheticTokens,
        )
        model = build_mini_model(name, rng=Rng(3))
        optimizer = Adam(model, lr=5e-3)
        if name == "mlp":
            data = SyntheticClassification(8, 4, batch_size=8, seed=1)
        elif name.startswith(("resnet", "vgg")):
            data = SyntheticImages(batch_size=8, seed=1)
        elif name.startswith("gpt2"):
            data = SyntheticTokens(batch_size=8, seed=1, lm_targets=True)
        else:
            data = SyntheticTokens(batch_size=8, seed=1, lm_targets=False)
        losses = []
        for iteration in range(30):
            inputs, targets = data.batch(0, iteration)
            model.zero_grad()
            loss, grad = LOSS(model.forward(inputs), targets)
            model.backward(grad)
            optimizer.step()
            losses.append(loss)
        assert np.mean(losses[-5:]) < np.mean(losses[:5]), losses


class TestLayerHookOrder:
    def test_gpt2_hooks_fire_reverse(self):
        """The trainer's layer hooks walk a GPT-2 in reverse layer order."""
        trainer = DataParallelTrainer(
            model_builder=lambda rank: MiniGPT2(num_layers=2, rng=Rng(0)),
            optimizer_builder=lambda m: Adam(m, lr=1e-3),
            loss_fn=LOSS,
            dataset=SyntheticTokens(vocab_size=64, seq_len=4, batch_size=1,
                                    seed=1),
            num_workers=2)
        order = []
        trainer.register_layer_gradient_hook(
            lambda it, name, grads: order.append(name))
        trainer.step()
        # Head fires first, token embedding last (reverse layer order).
        assert order[0] in ("lm_head", "ln_f")
        assert order[-1] == "token_emb"
        # Block 1 strictly before block 0.
        h1_positions = [i for i, n in enumerate(order) if n.startswith("h1.")]
        h0_positions = [i for i, n in enumerate(order) if n.startswith("h0.")]
        assert max(h1_positions) < min(h0_positions)


class TestRegistry:
    def test_all_profiles_present(self):
        assert set(MODEL_PROFILES) == {
            "resnet50", "resnet101", "vgg16", "vgg19",
            "bert_base", "bert_large", "gpt2_small", "gpt2_large",
        }

    def test_param_counts_match_paper(self):
        assert get_profile("gpt2-l").params == 762_000_000
        assert get_profile("ResNet-50").params == 25_600_000
        assert get_profile("bert_large").params == 334_000_000

    def test_full_state_is_three_psi(self):
        profile = get_profile("gpt2_small")
        assert profile.full_state_bytes == 3 * profile.params * 4

    def test_layer_fractions_sum_to_one(self):
        for profile in MODEL_PROFILES.values():
            counts = profile.layer_param_counts()
            assert counts.sum() == profile.params
            assert len(counts) == profile.num_layers
            assert (counts > 0).all()

    def test_aliases(self):
        assert get_profile("GPT2-S") is get_profile("gpt2_small")

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_profile("alexnet")
        with pytest.raises(KeyError):
            build_mini_model("alexnet")

    def test_build_mini_model_returns_fresh_instances(self):
        a = build_mini_model("gpt2_small")
        b = build_mini_model("gpt2_small")
        assert a is not b
