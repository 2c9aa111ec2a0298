"""Cross-cutting end-to-end integration tests.

The recovery matrix: every miniature model family x optimizer x
compressor trains under LowDiff, crashes, and recovers bit-exactly.  Plus
the awkward real-world combinations: error feedback (rank-local residual
state that checkpoints do NOT capture), quantized payloads, LR schedules
across recovery, and GC racing training.
"""

import numpy as np
import pytest

from repro.compression import (
    QSGDCompressor,
    RandomKCompressor,
    ThresholdCompressor,
    TopKCompressor,
    ErrorFeedbackCompressor,
)
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.distributed import (
    DataParallelTrainer,
    SyntheticClassification,
    SyntheticImages,
    SyntheticTokens,
)
from repro.optim import Adam, SGD
from repro.storage import CheckpointStore, InMemoryBackend
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.models import build_mini_model
from repro.utils.rng import Rng
from tests.helpers import assert_states_equal


def dataset_for(name, seed):
    if name.startswith(("resnet", "vgg")):
        return SyntheticImages(image_size=8, batch_size=4, seed=seed)
    if name.startswith("gpt2"):
        return SyntheticTokens(vocab_size=64, seq_len=8, batch_size=4,
                               seed=seed, lm_targets=True)
    if name.startswith("bert"):
        return SyntheticTokens(vocab_size=64, seq_len=8, batch_size=4,
                               seed=seed, lm_targets=False)
    return SyntheticClassification(8, 4, batch_size=4, seed=seed)


def trainer_for(model_name, compressor_builder, optimizer_builder=None,
                seed=17, num_workers=2):
    return DataParallelTrainer(
        model_builder=lambda rank: build_mini_model(model_name, rng=Rng(seed)),
        optimizer_builder=optimizer_builder or (lambda m: Adam(m, lr=1e-3)),
        loss_fn=CrossEntropyLoss(),
        dataset=dataset_for(model_name, seed + 1),
        num_workers=num_workers,
        compressor_builder=compressor_builder,
    )


def lowdiff_cycle(trainer, iterations=13, full_every=5,
                  optimizer_builder=None, model_name="mlp", seed=17):
    store = CheckpointStore(InMemoryBackend())
    checkpointer = LowDiffCheckpointer(
        store, CheckpointConfig(full_every_iters=full_every, batch_size=1))
    checkpointer.attach(trainer)
    trainer.run(iterations)
    checkpointer.finalize()
    model = build_mini_model(model_name, rng=Rng(seed + 1000))
    optimizer = (optimizer_builder or (lambda m: Adam(m, lr=1e-3)))(model)
    result = checkpointer.recover(model, optimizer)
    return model, result


class TestRecoveryMatrix:
    @pytest.mark.parametrize("model_name",
                             ["mlp", "resnet50", "vgg16", "gpt2_small",
                              "bert_base"])
    def test_every_model_family_recovers_bit_exact(self, model_name):
        trainer = trainer_for(model_name, lambda: TopKCompressor(0.1))
        model, result = lowdiff_cycle(trainer, model_name=model_name)
        assert result.step == 13
        assert_states_equal(model.state_dict(), trainer.model_state())

    @pytest.mark.parametrize("compressor_builder", [
        lambda: TopKCompressor(0.05),
        lambda: RandomKCompressor(0.1, rng=Rng(5)),
        lambda: ThresholdCompressor(relative=0.5),
        lambda: QSGDCompressor(num_levels=255, rng=Rng(6)),
    ], ids=["topk", "randomk", "threshold", "qsgd"])
    def test_every_compressor_recovers_bit_exact(self, compressor_builder):
        trainer = trainer_for("mlp", compressor_builder)
        model, _ = lowdiff_cycle(trainer)
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_sgd_with_momentum_recovers_bit_exact(self):
        opt_builder = lambda m: SGD(m, lr=0.01, momentum=0.9)
        trainer = trainer_for("mlp", lambda: TopKCompressor(0.1),
                              optimizer_builder=opt_builder)
        model, _ = lowdiff_cycle(trainer, optimizer_builder=opt_builder)
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_dense_payloads_recover_bit_exact(self):
        """LowDiff degenerates gracefully with no compressor: the dense
        synchronized gradient is reused (larger, but still exact)."""
        trainer = trainer_for("mlp", None)
        model, _ = lowdiff_cycle(trainer)
        assert_states_equal(model.state_dict(), trainer.model_state())


class TestErrorFeedback:
    def test_training_recovers_bit_exact_from_payloads(self):
        """Error feedback keeps a *rank-local* residual that is never
        checkpointed — but the synchronized payload is still exactly what
        the update consumed, so recovery of model+optimizer state stays
        bit-exact."""
        trainer = trainer_for(
            "mlp", lambda: ErrorFeedbackCompressor(TopKCompressor(0.05)))
        model, _ = lowdiff_cycle(trainer)
        assert_states_equal(model.state_dict(), trainer.model_state())

    def test_resumed_run_diverges_only_through_residuals(self):
        """Documented caveat: resuming resets the EF residual memory, so a
        resumed run is a *valid* training continuation but not bitwise the
        trajectory the failed run would have taken.  The state at the
        recovery point itself is exact (previous test); divergence appears
        only after new compressed steps."""
        make = lambda: trainer_for(
            "mlp", lambda: ErrorFeedbackCompressor(TopKCompressor(0.05)),
            seed=23)
        straight = make()
        straight.run(20)

        trainer = make()
        store = CheckpointStore(InMemoryBackend())
        checkpointer = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=5, batch_size=1))
        checkpointer.attach(trainer)
        trainer.run(14)
        checkpointer.finalize()
        model = build_mini_model("mlp", rng=Rng(1))
        optimizer = Adam(model, lr=1e-3)
        checkpointer.recover(model, optimizer)
        resumed = make()  # fresh EF residuals
        resumed.load_state(model.state_dict(), optimizer.state_dict(), 14)
        resumed.run(6)
        drift = max(
            np.abs(resumed.model_state()[k] - straight.model_state()[k]).max()
            for k in straight.model_state()
        )
        assert drift < 0.05  # still a sane continuation
        # And training still converges after recovery.
        losses = [resumed.step().loss for _ in range(10)]
        assert np.isfinite(losses).all()


class TestSchedulesAcrossRecovery:
    def test_lr_schedule_resumes_at_correct_step(self):
        """An lr halved every five steps by the caller (on every replica)
        resumes exactly: the recovered optimizer holds the live lr and
        ``step_count``, and its state matches the uninterrupted run."""
        opt_builder = lambda m: Adam(m, lr=1e-2)
        trainer = trainer_for("mlp", lambda: TopKCompressor(0.1),
                              optimizer_builder=opt_builder)
        for worker in trainer.workers:
            def halve(it, opt=worker.optimizer):
                if (it + 1) % 5 == 0:
                    opt.lr *= 0.5
            trainer.register_post_update_hook(halve)
        store = CheckpointStore(InMemoryBackend())
        checkpointer = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=5, batch_size=1))
        checkpointer.attach(trainer)
        trainer.run(12)
        checkpointer.finalize()
        assert trainer.optimizer.lr == pytest.approx(2.5e-3)

        model = build_mini_model("mlp", rng=Rng(55))
        optimizer = Adam(model, lr=1e-2)
        checkpointer.recover(model, optimizer)
        assert optimizer.lr == trainer.optimizer.lr
        assert optimizer.step_count == trainer.optimizer.step_count
        assert_states_equal(model.state_dict(), trainer.model_state())


class TestGcDuringTraining:
    def test_periodic_gc_preserves_recoverability(self):
        trainer = trainer_for("mlp", lambda: TopKCompressor(0.1))
        store = CheckpointStore(InMemoryBackend())
        checkpointer = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=5, batch_size=1))
        checkpointer.attach(trainer)
        trainer.register_post_update_hook(
            lambda it: store.gc(keep_fulls=2) if (it + 1) % 7 == 0 else None)
        trainer.run(26)
        checkpointer.finalize()
        # Storage stays bounded...
        assert len(store.fulls()) <= 3
        # ...and recovery to the exact live state still works.
        model = build_mini_model("mlp", rng=Rng(77))
        optimizer = Adam(model, lr=1e-3)
        result = checkpointer.recover(model, optimizer)
        assert result.step == 26
        assert_states_equal(model.state_dict(), trainer.model_state())


class TestThroughputAccounting:
    def test_throttled_backend_reports_write_time(self):
        from repro.storage import ThrottledBackend
        inner = InMemoryBackend()
        throttled = ThrottledBackend(inner, bandwidth=1e6, latency=0.001)
        trainer = trainer_for("mlp", lambda: TopKCompressor(0.1))
        store = CheckpointStore(throttled)
        checkpointer = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=5, batch_size=2))
        checkpointer.attach(trainer)
        trainer.run(10)
        checkpointer.finalize()
        # Virtual write time reflects bytes written at 1 MB/s + latency.
        expected_min = throttled.bytes_written / 1e6
        assert throttled.virtual_time_s >= expected_min
