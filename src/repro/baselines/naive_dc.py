"""Naïve differential checkpointing — the Check-N-Run strategy applied to
general DNNs (paper §II-B, the "Naïve DC" arm of Exps. 1/3/4/5/7).

Every iteration it *computes* the state differential: subtract the
previous model state, top-k-compress the parameter deltas, and keep the
optimizer-state deltas dense (Check-N-Run does not compress optimizer
parameters).  The subtraction + compression is exactly the computation
cost of Challenge 1, and the previous state must be retained until the
diff is taken — the extra memory and data dependency of §III-D that
LowDiff's gradient reuse removes.
"""

from __future__ import annotations

from repro.core.checkpointer import Checkpointer
from repro.core.differential import state_delta
from repro.storage.checkpoint_store import CheckpointStore


class NaiveDCCheckpointer(Checkpointer):
    """State-delta differential checkpoints + periodic fulls."""

    def __init__(self, store: CheckpointStore, full_every: int = 20,
                 diff_every: int = 1, rho: float = 0.01):
        if full_every < 1 or diff_every < 1:
            raise ValueError("checkpoint intervals must be >= 1")
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        self.store = store
        self.full_every = int(full_every)
        self.diff_every = int(diff_every)
        self.rho = float(rho)
        self.full_checkpoints = 0
        self.diff_checkpoints = 0
        # The retained previous state (the §III-D memory overhead).
        self._prev_model: dict | None = None
        self._prev_optimizer: dict | None = None
        self._prev_step: int = 0

    def _save_base(self, step, model_state, optimizer_state) -> None:
        super()._save_base(step, model_state, optimizer_state)
        self.full_checkpoints += 1
        self._prev_model = model_state
        self._prev_optimizer = optimizer_state
        self._prev_step = step

    def _on_post_update(self, iteration: int) -> None:
        step = iteration + 1
        if step % self.diff_every == 0:
            current_model = self._trainer.model_state()
            current_optimizer = self._trainer.optimizer_state()
            # The differential computation LowDiff avoids: full-state
            # subtraction + top-k compression, on the critical path.
            delta = state_delta(
                self._prev_model, self._prev_optimizer,
                current_model, current_optimizer, rho=self.rho,
            )
            self.store.save_diff(self._prev_step + 1, step, delta,
                                 count=step - self._prev_step)
            self.diff_checkpoints += 1
            self._prev_model = current_model
            self._prev_optimizer = current_optimizer
            self._prev_step = step
        if step % self.full_every == 0:
            self.store.save_full(
                step, self._trainer.model_state(), self._trainer.optimizer_state()
            )
            self.full_checkpoints += 1

    def stats(self) -> dict:
        return {
            "full_checkpoints": self.full_checkpoints,
            "diff_checkpoints": self.diff_checkpoints,
            "storage_bytes": self.store.storage_bytes(),
        }
