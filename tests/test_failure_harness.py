"""Tests for the functional failure-injection drill."""

import pytest

from repro.core import CheckpointConfig, FailureDrill, default_lowdiff_factory
from repro.optim import Adam
from repro.storage import CheckpointStore, InMemoryBackend
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import STRATEGIES, make_drill, make_mlp_trainer
from tests.helpers import reference_state


class TestFailureDrill:
    def test_no_failures(self):
        report = make_drill().run(20, crash_at=[],
                                  reference_state=reference_state(iterations=20))
        assert report.failures_injected == 0
        assert report.total_iterations_executed == 20
        assert report.final_matches_reference

    def test_per_iteration_diffs_lose_nothing(self):
        """BS=1 + inline checkpointing: every iteration is durable before
        the crash, so no work is re-processed and the final state matches
        the never-failed run bit-for-bit."""
        report = make_drill().run(30, crash_at=[7, 18],
                                  reference_state=reference_state())
        assert report.failures_injected == 2
        assert report.reprocessed_iterations == 0
        assert report.total_iterations_executed == 30
        assert report.final_matches_reference

    def test_batched_writes_lose_in_flight_work(self):
        """BS=4: the unwritten partial batch dies with the process, so up
        to BS-1 iterations re-process per failure — the paper's b/2 cost,
        observed functionally."""
        config = CheckpointConfig(full_every_iters=12, batch_size=4)
        report = make_drill(config=config).run(30, crash_at=[7, 18])
        assert report.reprocessed_iterations > 0
        assert report.reprocessed_iterations <= 2 * 3  # <= (BS-1) per crash
        assert report.total_iterations_executed == \
            30 + report.reprocessed_iterations

    def test_back_to_back_crashes(self):
        report = make_drill().run(15, crash_at=[3, 4, 5],
                                  reference_state=reference_state(iterations=15))
        assert report.failures_injected == 3
        assert report.final_matches_reference

    def test_crash_right_after_full_checkpoint(self):
        report = make_drill().run(25, crash_at=[10],
                                  reference_state=reference_state(iterations=25))
        assert report.final_matches_reference
        # Recovery landed exactly on the full checkpoint.
        assert report.recovery_results[0].step == 10

    def test_parallel_recovery_mode_with_sgd_linearity(self):
        """Parallel recovery in the drill: exact when the batch size is 1
        per record and diffs merge linearly (SGD)."""
        from repro.optim import SGD

        drill = FailureDrill(
            trainer_factory=lambda: make_mlp_trainer(
                seed=5, optimizer_builder=lambda m: SGD(m, lr=0.02)),
            checkpointer_factory=default_lowdiff_factory(
                CheckpointConfig(full_every_iters=10, batch_size=1)),
            model_factory=lambda: MLP(8, [16, 16], 4, rng=Rng(0)),
            optimizer_factory=lambda m: SGD(m, lr=0.02),
            store=CheckpointStore(InMemoryBackend()),
        )
        report = drill.run(20, crash_at=[13], parallel_recovery=True)
        assert report.recovery_results[0].merge_depth >= 1
        assert report.total_iterations_executed >= 20

    def test_validation(self):
        with pytest.raises(ValueError):
            make_drill().run(10, crash_at=[5, 3])
        with pytest.raises(ValueError):
            make_drill().run(10, crash_at=[10])


class TestEveryStrategyRunsTheDrill:
    """The lifecycle contract (``repro.core.checkpointer``) end to end:
    attach → run → crash → recover → re-attach at ``resume_from`` → run →
    finalize, for all six strategies through the one harness."""

    @staticmethod
    def newest_persisted(store):
        fulls = store.fulls()
        if not fulls:
            return None
        chain = store.diffs_after(fulls[-1].step)
        return chain[-1].end if chain else fulls[-1].step

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_crash_and_resume(self, name):
        rho, factory, expected_step, exact = STRATEGIES[name]
        reference = make_mlp_trainer(rho=rho, seed=5)
        reference.run(20)
        store = CheckpointStore(InMemoryBackend())
        persisted_at_open = []

        def checkpointer_factory(store):
            persisted_at_open.append(self.newest_persisted(store))
            return factory(store)

        report = FailureDrill(
            trainer_factory=lambda: make_mlp_trainer(rho=rho, seed=5),
            checkpointer_factory=checkpointer_factory,
            model_factory=lambda: MLP(8, [16, 16], 4, rng=Rng(0)),
            optimizer_factory=lambda m: Adam(m, lr=1e-3),
            store=store,
        ).run(20, crash_at=[13], reference_state=reference.model_state())

        # Opened for the fresh job, then for the restarted one — which
        # recovers to whatever had persisted when it opened.
        recovered = report.recovery_results[0].step
        assert persisted_at_open[:2] == [None, recovered]
        if expected_step is not None:
            assert recovered == expected_step
        assert report.total_iterations_executed == 20 + 13 - recovered
        # The restarted job's base full sits at the resumed step, and its
        # own cadence ran on to the end.
        assert recovered in [full.step for full in store.fulls()]
        assert self.newest_persisted(store) >= 16
        if exact:
            assert report.final_matches_reference
