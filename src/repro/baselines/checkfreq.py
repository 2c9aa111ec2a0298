"""CheckFreq (Mohan et al., FAST'21): snapshot/persist decoupling.

Checkpointing splits into a *snapshot* (copy the state out of the
"GPU" — fast, blocks training briefly) and a *persist* (write the
snapshot to storage — slow, runs pipelined with subsequent iterations).
A new snapshot is skipped while the previous persist is still in flight,
bounding concurrency at one like the original system; this is why
CheckFreq's achievable frequency settles around every 10+ iterations for
large models (Exp. 4).
"""

from __future__ import annotations

from repro.core.checkpointer import Checkpointer
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.sharded import open_persist_engine


class CheckFreqCheckpointer(Checkpointer):
    """Snapshot every ``every`` iterations; persist asynchronously.

    ``async_persist=True`` persists through the thread engine LowDiff+
    uses (one writer, ``queue_depth=1``): at most one persist is in
    flight, and a cadence tick that would block on it is skipped and
    counted in ``skipped``.
    """

    def __init__(self, store: CheckpointStore, every: int = 10,
                 async_persist: bool = False):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.store = store
        self.every = int(every)
        self.engine = open_persist_engine(
            store, "thread", writer_threads=1, queue_depth=1) \
            if async_persist else None
        self._persist = store if self.engine is None else self.engine
        self.snapshots_taken = 0
        self.persisted = 0
        self.skipped = 0

    def _save_full(self, step, model_state, optimizer_state) -> None:
        self._persist.save_full(step, model_state, optimizer_state)
        self.persisted += 1

    _save_base = _save_full     # the base full is one more persist

    def _on_post_update(self, iteration: int) -> None:
        step = iteration + 1
        if step % self.every:
            return
        if self.engine is not None:
            self.engine.raise_if_failed()
            if self.engine.would_block():
                self.skipped += 1
                return
        # Snapshot: state_dict() copies — the GPU→CPU copy of the paper.
        # The persist runs pipelined with the following iterations.
        self.snapshots_taken += 1
        self._save_full(step, self._trainer.model_state(),
                        self._trainer.optimizer_state())

    def stats(self) -> dict:
        return {
            "snapshots": self.snapshots_taken,
            "persisted": self.persisted,
            "skipped": self.skipped,
            "storage_bytes": self.store.storage_bytes(),
        }
