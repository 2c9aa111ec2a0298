"""LowDiff+ — gradient reuse without compression (paper §V, Algorithm 2).

Without a compressor, differentials are full-size gradients.  LowDiff+
therefore:

1. **Layer-wise reuse & snapshot** — once the collective has run, each
   layer's synchronized gradient (the very array the GPU update consumes)
   is handed over in reverse layer order and kept as is; ``snapshot_bytes``
   counts it as the GPU→CPU traffic a real system would move;
2. **CPU-resident model replica** — snapshotted gradients are applied to a
   CPU copy of the model state through an identical optimizer, so CPU
   memory always holds an up-to-date *in-memory checkpoint* (per-iteration
   frequency), bit-identical to the GPU state;
3. **Asynchronous persistence** — the replica's state (not raw gradients)
   persists to storage every ``persist_every`` iterations, decoupled from
   training; redundant differential writes disappear entirely;
4. **Two-tier recovery** — software failures restore from the CPU replica
   with zero storage reads; hardware failures reload the latest persisted
   full checkpoint.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.checkpointer import Checkpointer
from repro.core.lowdiff import FullSnapshot
from repro.core.recovery import RecoveryResult
from repro.obs import OBS, span as obs_span
from repro.optim.optimizer import Optimizer
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.sharded import open_persist_engine
from repro.tensor.module import Module


class CpuReplica:
    """CPU-side mirror of the training state, advanced by reused gradients.

    Initialized from a deep copy of the GPU state (the paper's
    ``copy.deepcopy()`` at spawn time); afterwards it only ever consumes
    the synchronized gradients the GPU consumed, so it stays bit-identical
    without further transfers of the model itself.
    """

    def __init__(self, model: Module, optimizer: Optimizer):
        self.model = model
        self.optimizer = optimizer
        self.updates_applied = 0

    @classmethod
    def from_trainer(cls, trainer, model_factory: Callable[[], Module],
                     optimizer_factory: Callable[[Module], Optimizer]) -> "CpuReplica":
        model = model_factory()
        model.load_state_dict(trainer.model_state())
        optimizer = optimizer_factory(model)
        optimizer.load_state_dict(trainer.optimizer_state())
        return cls(model, optimizer)

    def apply_gradients(self, named_grads: dict[str, np.ndarray]) -> None:
        """One optimizer step on the CPU state (Algorithm 2 line 12)."""
        self.optimizer.step_with(named_grads)
        self.updates_applied += 1

    def snapshot(self) -> FullSnapshot:
        return FullSnapshot(
            step=self.optimizer.step_count,
            model_state=self.model.state_dict(),
            optimizer_state=self.optimizer.state_dict(),
        )

    def matches(self, model_state: dict, atol: float = 0.0) -> bool:
        """Replica-vs-GPU consistency check (test hook)."""
        mine = self.model.state_dict()
        for name, value in model_state.items():
            if atol == 0.0:
                if not np.array_equal(mine[name], value):
                    return False
            elif not np.allclose(mine[name], value, atol=atol):
                return False
        return True


class LowDiffPlusCheckpointer(Checkpointer):
    """Layer-wise gradient reuse + CPU replica + async persistence.

    Parameters
    ----------
    store:
        Persistent target for hardware-failure recovery.
    persist_every:
        Iterations between asynchronous full persists (CheckFreq-style
        cadence; in-memory checkpoints still happen every iteration).
    async_persist:
        ``True`` persists through the thread engine
        (:func:`~repro.storage.sharded.open_persist_engine`) with one
        writer and ``queue_depth=1``: at most one persist is in flight, and a
        cadence tick that would block on it is skipped and counted in
        ``persist_skips`` (the paper's non-blocking behaviour).  ``False``
        persists inline.
    retention:
        Optional :class:`~repro.storage.compaction.RetentionPolicy`
        applied to the durable store after each persisted full (and at
        finalize): LowDiff+ writes only fulls, so retention here is the
        keep-N-fulls bound.  ``None`` (default) never prunes — bit-stable
        with earlier revisions.
    """

    def __init__(self, store: CheckpointStore, persist_every: int = 10,
                 async_persist: bool = False, retention=None):
        if persist_every < 1:
            raise ValueError(f"persist_every must be >= 1, got {persist_every}")
        self.store = store
        self.persist_every = int(persist_every)
        self.engine = open_persist_engine(
            store, "thread", writer_threads=1, queue_depth=1) \
            if async_persist else None
        self.retention = retention
        self.replica: CpuReplica | None = None
        # Per-iteration gradient assembly ("snapshot to CPU"): the arrays
        # the trainer hands over, kept as is and never mutated.
        self._assembling: dict[str, np.ndarray] = {}
        # Telemetry ----------------------------------------------------------
        self.snapshot_bytes = 0
        self.in_memory_checkpoints = 0
        self.persisted_checkpoints = 0
        self.persist_skips = 0

    # Wiring -----------------------------------------------------------------
    def attach(self, trainer, model_factory: Callable[[], Module],
               optimizer_factory: Callable[[Module], Optimizer],
               resume_from: int | None = None) -> None:
        if getattr(trainer, "compressors", None) is not None:
            raise ValueError(
                "LowDiff+ is the non-compression path (paper §V); with a "
                "compressor configured the GPU update consumes decompressed "
                "payloads and the raw layer-wise gradients would diverge "
                "from it — use LowDiffCheckpointer instead"
            )
        self.replica = CpuReplica.from_trainer(trainer, model_factory,
                                               optimizer_factory)
        super().attach(trainer, resume_from)

    def _save_base(self, step, model_state, optimizer_state) -> None:
        super()._save_base(step, model_state, optimizer_state)
        self.persisted_checkpoints += 1

    def _register_hooks(self, trainer) -> None:
        trainer.register_layer_gradient_hook(self._on_layer_gradient)
        trainer.register_post_update_hook(self._on_post_update)

    # Layer-wise snapshotting (Algorithm 2 lines 9-11, 19) -----------------------
    def _on_layer_gradient(self, iteration: int, layer_name: str,
                           grads: dict[str, np.ndarray]) -> None:
        for param_name, grad in grads.items():
            if param_name in self._assembling:
                raise RuntimeError(
                    f"duplicate layer gradient for {param_name} in iteration "
                    f"{iteration}; assembler out of sync"
                )
            self.snapshot_bytes += grad.nbytes
            self._assembling[param_name] = grad
            if OBS.enabled:
                OBS.registry.counter("ckpt.plus.layer_snapshots").inc()
                OBS.registry.counter("ckpt.plus.layer_snapshot_bytes").inc(
                    grad.nbytes)

    # CPU update + persistence (Algorithm 2 lines 12-13) ---------------------------
    def _on_post_update(self, iteration: int) -> None:
        if self.replica is None:
            raise RuntimeError("checkpointer not attached")
        expected = set(self.replica.optimizer.param_names)
        missing = expected - set(self._assembling)
        if missing:
            raise RuntimeError(
                f"iteration {iteration} ended with unsnapshotted layers: "
                f"{sorted(missing)[:3]}..."
            )
        with obs_span("replica_update", "ckpt", {"iteration": iteration}):
            self.replica.apply_gradients(self._assembling)
        self._assembling = {}
        self.in_memory_checkpoints += 1
        if OBS.enabled:
            OBS.registry.counter("ckpt.plus.in_memory").inc()
        step = iteration + 1
        if step % self.persist_every == 0:
            with obs_span("persist", "ckpt", {"step": step}):
                self._persist(self.replica.snapshot())
        if self.engine is not None:
            self.engine.raise_if_failed()

    def _persist(self, snapshot: FullSnapshot) -> None:
        if self.engine is not None and self.engine.would_block():
            self.persist_skips += 1  # previous persist still in flight
            if OBS.enabled:
                OBS.registry.counter("ckpt.plus.persist_skips").inc()
                OBS.tracer.instant("persist-skip", "ckpt",
                                   {"step": snapshot.step})
            return
        # The snapshot dicts are fresh copies (state_dict copies), safe to
        # hand to the engine's writer while training continues.
        target = self.store if self.engine is None else self.engine
        target.save_full(snapshot.step, snapshot.model_state,
                         snapshot.optimizer_state)
        self.persisted_checkpoints += 1
        # With the engine this prunes among already-committed fulls only
        # (the submitted one becomes visible at its in-order commit) — safe
        # to run while the writer is in flight thanks to the store's
        # mutation lock.
        self._apply_retention()
        if OBS.enabled:
            OBS.registry.counter("ckpt.plus.persisted").inc()

    def _apply_retention(self) -> None:
        if self.retention is not None:
            self.retention.apply_gc(self.store)

    def finalize(self) -> None:
        super().finalize()
        # The last submitted full is committed now; enforce the bound
        # over the final series too.
        self._apply_retention()

    # Recovery (paper §V: software vs hardware failures) ---------------------------
    def recover_software(self, trainer) -> RecoveryResult:
        """Software failure: training process died, CPU memory survived.

        Restores GPU replicas from the in-memory CPU state — zero storage
        reads, the key fast path of LowDiff+.
        """
        if self.replica is None:
            raise RuntimeError("no CPU replica available")
        reads_before = self.store.backend.bytes_read
        trainer.load_state(
            self.replica.model.state_dict(),
            self.replica.optimizer.state_dict(),
            iteration=self.replica.optimizer.step_count,
        )
        assert self.store.backend.bytes_read == reads_before
        return RecoveryResult(
            step=self.replica.optimizer.step_count,
            full_step=self.replica.optimizer.step_count,
            diffs_loaded=0, gradients_replayed=0,
            merge_ops=0, merge_depth=0, apply_ops=0,
        )

    def recover_hardware(self, model: Module, optimizer: Optimizer) -> RecoveryResult:
        """Hardware failure: machine lost — reload from persistent storage."""
        return self.recover(model, optimizer)

    # Telemetry ---------------------------------------------------------------------
    def stats(self) -> dict:
        out = {
            "in_memory_checkpoints": self.in_memory_checkpoints,
            "persisted_checkpoints": self.persisted_checkpoints,
            "persist_skips": self.persist_skips,
            "snapshot_bytes": self.snapshot_bytes,
            "replica_updates": self.replica.updates_applied if self.replica else 0,
        }
        if self.engine is not None:
            out["engine"] = self.engine.stats()
        return out
