"""Functional failure-injection harness.

The simulator (repro.sim) prices failures analytically; this harness
*executes* them: it drives a real trainer+checkpointer through a schedule
of injected crashes, performs the actual recovery after each one, resumes
training, and accounts the real quantities the paper's wasted-time metric
is made of — re-processed iterations, checkpoint loads, and the final
state's equivalence to a never-failed run.

Used by the integration tests and the failure-drill example; it is the
functional twin of ``repro.sim.metrics.run_with_failures``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import CheckpointConfig
from repro.core.lowdiff import LowDiffCheckpointer
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.resilience import collect_resilience_stats


@dataclass
class FailureDrillReport:
    """Outcome of a run-with-injected-failures drill."""

    target_iterations: int
    failures_injected: int
    total_iterations_executed: int   # includes re-processed work
    reprocessed_iterations: int
    recovery_results: list = field(default_factory=list)
    final_matches_reference: bool | None = None
    #: Retry/breaker/fallback counters and injected-fault totals collected
    #: from the backend stack (empty for plain backends).
    storage_stats: dict = field(default_factory=dict)
    #: Keys the store quarantined after failed integrity checks.
    quarantined_keys: list = field(default_factory=list)

    @property
    def overhead_iterations(self) -> int:
        return self.total_iterations_executed - self.target_iterations

    @property
    def corrupt_blobs_detected(self) -> int:
        return len(self.quarantined_keys)


class FailureDrill:
    """Run a training job to ``target_iterations`` with injected crashes.

    Parameters
    ----------
    trainer_factory:
        ``() -> trainer``; called for the initial run and after every
        crash (a crash destroys the process, so all live state is lost —
        only the checkpointer's storage survives).
    checkpointer_factory:
        ``(store) -> checkpointer`` building a fresh
        :class:`~repro.core.checkpointer.Checkpointer` bound to the
        surviving store.
    model_factory / optimizer_factory:
        Build the blank model/optimizer that recovery fills.
    """

    def __init__(self, trainer_factory: Callable, checkpointer_factory: Callable,
                 model_factory: Callable, optimizer_factory: Callable,
                 store: CheckpointStore):
        self.trainer_factory = trainer_factory
        self.checkpointer_factory = checkpointer_factory
        self.model_factory = model_factory
        self.optimizer_factory = optimizer_factory
        self.store = store

    def run(self, target_iterations: int, crash_at: list[int],
            parallel_recovery: bool = False,
            reference_state: dict | None = None) -> FailureDrillReport:
        """Execute the drill.

        ``crash_at`` lists global iteration indices at which the training
        process dies (strictly increasing; each must be < target).
        """
        if sorted(crash_at) != list(crash_at):
            raise ValueError("crash_at must be strictly increasing")
        if crash_at and crash_at[-1] >= target_iterations:
            raise ValueError("crashes must precede the target iteration")

        report = FailureDrillReport(
            target_iterations=target_iterations,
            failures_injected=len(crash_at),
            total_iterations_executed=0,
            reprocessed_iterations=0,
        )
        completed = 0  # durable global progress (post-recovery position)
        pending_crashes = list(crash_at)

        trainer = self.trainer_factory()
        checkpointer = self.checkpointer_factory(self.store)
        checkpointer.attach(trainer)

        while completed < target_iterations:
            next_crash = pending_crashes[0] if pending_crashes else None
            run_until = next_crash if next_crash is not None else target_iterations
            steps = run_until - trainer.iteration
            if steps > 0:
                trainer.run(steps)
                report.total_iterations_executed += steps
            if next_crash is None:
                checkpointer.finalize()
                completed = trainer.iteration
                break
            # CRASH: the training process dies.  Nothing is flushed —
            # whatever sat in the queue or the writer's in-flight batch is
            # lost (the b/2 expectation the wasted-time model prices), and
            # the live replicas are gone with the process.  The separate
            # checkpointing side (async engine threads, if any) outlives
            # it just long enough to commit work already handed off.
            pending_crashes.pop(0)
            checkpointer.crash()
            del trainer, checkpointer

            # A new process starts, recovers from storage and resumes.
            model = self.model_factory()
            optimizer = self.optimizer_factory(model)
            checkpointer = self.checkpointer_factory(self.store)
            result = checkpointer.recover(model, optimizer,
                                          parallel=parallel_recovery)
            report.recovery_results.append(result)
            recovered_step = result.step
            report.reprocessed_iterations += next_crash - recovered_step

            trainer = self.trainer_factory()
            trainer.load_state(model.state_dict(), optimizer.state_dict(),
                               iteration=recovered_step)
            checkpointer.attach(trainer, resume_from=recovered_step)

        if reference_state is not None:
            final = trainer.model_state()
            report.final_matches_reference = all(
                np.array_equal(final[name], reference_state[name])
                for name in reference_state
            )
        # Price the storage-layer faults the run absorbed: retries, backoff
        # time, breaker trips, tier fallbacks, injected chaos, quarantines.
        report.storage_stats = collect_resilience_stats(self.store.backend)
        report.quarantined_keys = list(self.store.quarantined)
        return report


def default_lowdiff_factory(config: CheckpointConfig | None = None):
    """Convenience checkpointer factory for drills."""
    config = config or CheckpointConfig(full_every_iters=10, batch_size=1)

    def factory(store: CheckpointStore) -> LowDiffCheckpointer:
        return LowDiffCheckpointer(store, config)

    return factory
