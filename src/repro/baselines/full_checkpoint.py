"""Periodic full checkpointing — the ``torch.save`` baseline.

Blocks training for the full duration of serialize+write (no snapshot
decoupling, no differentials); the strategy Exp. 5's "Baseline" and the
effective-ratio experiments compare against.
"""

from __future__ import annotations

from repro.core.checkpointer import Checkpointer
from repro.storage.checkpoint_store import CheckpointStore


class FullCheckpointer(Checkpointer):
    """Save the complete model+optimizer state every ``every`` iterations."""

    def __init__(self, store: CheckpointStore, every: int = 10):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.store = store
        self.every = int(every)
        self.full_checkpoints = 0

    def _save_full(self, step, model_state, optimizer_state) -> None:
        self.store.save_full(step, model_state, optimizer_state)
        self.full_checkpoints += 1

    _save_base = _save_full     # the base full is one more checkpoint

    def _on_post_update(self, iteration: int) -> None:
        step = iteration + 1
        if step % self.every == 0:
            # Synchronous: the training loop waits for the write — the
            # stall CheckFreq was designed to remove.
            self._save_full(step, self._trainer.model_state(),
                            self._trainer.optimizer_state())

    def stats(self) -> dict:
        return {
            "full_checkpoints": self.full_checkpoints,
            "storage_bytes": self.store.storage_bytes(),
        }
