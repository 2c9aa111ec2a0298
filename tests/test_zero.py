"""Tests for ZeRO-1 optimizer-state sharding + LowDiff on top of it."""

from repro.compression import TopKCompressor
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.distributed import (
    DataParallelTrainer,
    ZeroDataParallelTrainer,
    shard_owner,
)
from repro.optim import Adam
from repro.storage import CheckpointStore, InMemoryBackend
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import (
    assert_optimizers_equal,
    assert_states_equal,
    make_mlp_trainer,
)


def build(cls, **kwargs):
    return make_mlp_trainer(trainer_cls=cls, **kwargs)


class TestShardOwnership:
    def test_assignment_stable(self):
        assert shard_owner("layer.weight", 4) == shard_owner("layer.weight", 4)

    def test_assignment_in_range(self):
        for name in ("a", "b.c", "net.0.weight", "h7.attn.w_qkv.bias"):
            assert 0 <= shard_owner(name, 3) < 3

    def test_owned_names_partition(self):
        trainer = build(ZeroDataParallelTrainer, num_workers=3)
        all_names = set(trainer.optimizer.param_names)
        seen = set()
        for rank in range(3):
            owned = set(trainer.owned_names(rank))
            assert not (owned & seen)
            seen |= owned
        assert seen == all_names


class TestZeroEquivalence:
    def test_matches_unsharded_trajectory(self):
        zero = build(ZeroDataParallelTrainer)
        plain = build(DataParallelTrainer)
        zero.run(12)
        plain.run(12)
        assert_states_equal(zero.model_state(), plain.model_state())
        assert zero.replicas_consistent()

    def test_assembled_optimizer_equals_full(self):
        zero = build(ZeroDataParallelTrainer)
        plain = build(DataParallelTrainer)
        zero.run(8)
        plain.run(8)
        assert_optimizers_equal(zero.optimizer_state(), plain.optimizer_state())

    def test_without_compression(self):
        zero = build(ZeroDataParallelTrainer, rho=None)
        plain = build(DataParallelTrainer, rho=None)
        zero.run(8)
        plain.run(8)
        assert_states_equal(zero.model_state(), plain.model_state())

    def test_three_workers(self):
        zero = build(ZeroDataParallelTrainer, num_workers=3)
        plain = build(DataParallelTrainer, num_workers=3)
        zero.run(6)
        plain.run(6)
        assert_states_equal(zero.model_state(), plain.model_state())

    def test_shard_bytes_sum_to_full_state(self):
        zero = build(ZeroDataParallelTrainer, num_workers=2)
        zero.run(2)
        psi_bytes = sum(p.nbytes for p in zero.model.parameters())
        total = sum(zero.shard_state_bytes(r) for r in range(2))
        assert total == 2 * psi_bytes  # Adam: two moments

    def test_param_broadcast_traffic_recorded(self):
        zero = build(ZeroDataParallelTrainer)
        zero.step()
        assert zero.comm_stats.bytes_by_op.get("zero_param_allgather", 0) > 0


class TestLowDiffOnZero:
    def test_bit_exact_recovery_under_sharding(self):
        """LowDiff's reuse is orthogonal to ZeRO sharding: the assembled
        checkpoint recovers the sharded run bit-exactly into a plain
        (unsharded) optimizer."""
        trainer = build(ZeroDataParallelTrainer)
        store = CheckpointStore(InMemoryBackend())
        checkpointer = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=10, batch_size=1))
        checkpointer.attach(trainer)
        trainer.run(23)
        checkpointer.finalize()

        model = MLP(8, [16, 16], 4, rng=Rng(99))
        optimizer = Adam(model, lr=1e-3)
        result = checkpointer.recover(model, optimizer)
        assert result.step == 23
        assert_states_equal(model.state_dict(), trainer.model_state())
        assert_optimizers_equal(optimizer.state_dict(),
                                trainer.optimizer_state())

    def test_recovered_state_loads_back_into_zero_trainer(self):
        trainer = build(ZeroDataParallelTrainer, seed=13)
        store = CheckpointStore(InMemoryBackend())
        checkpointer = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=10, batch_size=1))
        checkpointer.attach(trainer)
        trainer.run(15)
        checkpointer.finalize()
        straight = build(ZeroDataParallelTrainer, seed=13)
        straight.run(25)

        model = MLP(8, [16, 16], 4, rng=Rng(98))
        optimizer = Adam(model, lr=1e-3)
        checkpointer.recover(model, optimizer)
        resumed = build(ZeroDataParallelTrainer, seed=13)
        resumed.load_state(model.state_dict(), optimizer.state_dict(),
                           iteration=15)
        resumed.run(10)
        assert_states_equal(resumed.model_state(), straight.model_state())


class TestLowDiffOnPipeline:
    def test_checkpointer_attaches_to_pipeline_trainer(self):
        """The paper's future-work combination: LowDiffCheckpointer drives
        a pipeline-parallel trainer through the same hook contract."""
        from repro.distributed import PipelineParallelTrainer, SyntheticImages
        from repro.tensor.models import MiniVGG

        def make_vgg():
            return MiniVGG(num_classes=10, base_channels=4, stages=(1, 1),
                           image_size=8, rng=Rng(5))

        model = make_vgg()
        pipeline = PipelineParallelTrainer(
            model=model,
            optimizer=Adam(model, lr=1e-3),
            loss_fn=CrossEntropyLoss(),
            dataset=SyntheticImages(image_size=8, batch_size=4, seed=6),
            num_stages=2,
            num_microbatches=2,
            compressor=TopKCompressor(0.1),
        )
        store = CheckpointStore(InMemoryBackend())
        checkpointer = LowDiffCheckpointer(
            store, CheckpointConfig(full_every_iters=5, batch_size=1))
        checkpointer.attach(pipeline)
        pipeline.run(13)
        checkpointer.finalize()

        fresh = make_vgg()
        optimizer = Adam(fresh, lr=1e-3)
        result = checkpointer.recover(fresh, optimizer)
        assert result.step == 13
        assert_states_equal(fresh.state_dict(), pipeline.model_state())
