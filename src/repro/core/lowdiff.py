"""The LowDiff checkpointer (paper Algorithm 1 + §IV).

Wires together the reusing queue, the batched gradient writer, and the
checkpoint store:

* the **training side** (trainer hooks) enqueues each iteration's
  synchronized compressed gradient — zero-copy, no data dependency on the
  model update (§III-D) — and, every ``full_every_iters`` iterations,
  enqueues a full-state snapshot;
* the **checkpointing side** (inline drain or a background thread, the
  stand-in for the paper's spawned checkpointing process) dequeues in FIFO
  order, batches gradients in CPU memory, and persists batched
  differentials and full checkpoints;
* **recovery** restores the latest full checkpoint and replays the
  differential chain, serially or with the parallel merge tree.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.batched_writer import BatchedGradientWriter
from repro.core.checkpointer import Checkpointer
from repro.core.config import CheckpointConfig
from repro.core.reusing_queue import QueueClosed, ReusingQueue
from repro.obs import OBS, span as obs_span
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.compaction import ChainCompactor
from repro.storage.sharded import ShardedCheckpointStore, open_persist_engine


@dataclass
class FullSnapshot:
    """A full-state snapshot travelling through the reusing queue.

    The snapshot is taken on the training side (states are copied, like
    CheckFreq's GPU→CPU snapshot) so the checkpointing side can persist it
    without racing further updates.
    """

    step: int
    model_state: dict
    optimizer_state: dict

    def copy(self) -> "FullSnapshot":
        return FullSnapshot(
            step=self.step,
            model_state={k: np.copy(v) for k, v in self.model_state.items()},
            optimizer_state=_copy_tree(self.optimizer_state),
        )

    @property
    def nbytes(self) -> int:
        total = sum(np.asarray(v).nbytes for v in self.model_state.values())
        for slots in self.optimizer_state.get("slots", {}).values():
            total += sum(np.asarray(v).nbytes for v in slots.values())
        return total


def _copy_tree(tree):
    if isinstance(tree, dict):
        return {k: _copy_tree(v) for k, v in tree.items()}
    if isinstance(tree, np.ndarray):
        return tree.copy()
    return tree


class LowDiffCheckpointer(Checkpointer):
    """Frequent differential checkpointing by compressed-gradient reuse.

    Parameters
    ----------
    store:
        Destination :class:`CheckpointStore`.
    config:
        ``(full_every_iters, batch_size)`` — typically from
        :func:`repro.core.config.optimal_configuration`.
    zero_copy:
        ``False`` switches the reusing queue to copy mode (ablation).
    offload_to_cpu:
        Passed to the batched writer (Exp. 6(b) ablation).
    async_mode:
        ``True`` drains the queue from a background thread — the paper's
        separate checkpointing process.  ``False`` drains inline after
        each iteration (deterministic; used by most tests).
    retention:
        Optional :class:`~repro.storage.compaction.RetentionPolicy`; when
        set, a :class:`~repro.storage.compaction.ChainCompactor` enforces
        it (compaction + gc) after every persisted full checkpoint and at
        finalize.  ``None`` (default) leaves the series untouched —
        bit-stable with earlier revisions.
    """

    def __init__(self, store: CheckpointStore, config: CheckpointConfig,
                 zero_copy: bool = True, offload_to_cpu: bool = True,
                 async_mode: bool = False, queue_maxsize: int = 0,
                 retention=None, model_factory=None, optimizer_factory=None):
        # shards > 1 swaps the store for the sharded facade over the same
        # backend: per-shard diff chains under one intersection-committed
        # manifest set, elastic restore across world sizes.  An
        # already-sharded store passes through (its shard count wins).
        if config.shards > 1 and isinstance(store, CheckpointStore):
            store = ShardedCheckpointStore(
                store.backend, shards=config.shards, codec=store.codec,
                shard_concurrency=config.shard_concurrency,
            )
        self.store = store
        self.config = config
        # Config-selected payload codec: applied store-wide before the
        # engine is built, so sync and async persist paths both encode.
        if config.codec:
            store.set_codec(config.codec)
        self.queue = ReusingQueue(maxsize=queue_maxsize, copy_mode=not zero_copy)
        # With async_persist the engine becomes the persistence target for
        # both full snapshots and the batched writer's diff records; every
        # record still flows through one FIFO commit order, so the
        # diff-never-before-its-full invariant holds unchanged.  Which
        # executor (writer threads, or spawned workers outside the
        # training GIL) and whether it fans out per shard is the storage
        # layer's choice from (persist_mode, store).
        if config.async_persist:
            self.engine = open_persist_engine(
                store,
                persist_mode=config.persist_mode,
                writer_threads=config.writer_threads,
                queue_depth=config.queue_depth,
                ring_mb=config.ring_mb,
            )
        self._persist = store if self.engine is None else self.engine
        self.retention = retention
        self.compactor = None
        if retention is not None:
            self.compactor = ChainCompactor(
                store, retention, engine=self.engine,
                model_factory=model_factory,
                optimizer_factory=optimizer_factory,
            )
        self.writer = BatchedGradientWriter(
            self._persist, batch_size=config.batch_size,
            offload_to_cpu=offload_to_cpu
        )
        self.async_mode = bool(async_mode)
        self.full_checkpoints = 0
        self.diff_checkpoints_enqueued = 0
        self._worker: threading.Thread | None = None
        self._worker_error: BaseException | None = None
        if self.async_mode:
            self._worker = threading.Thread(
                target=self._drain_loop, name="lowdiff-ckpt", daemon=True
            )
            self._worker.start()

    # Training-side wiring ---------------------------------------------------
    def _save_base(self, step, model_state, optimizer_state) -> None:
        self._persist.save_full(step, model_state, optimizer_state)
        self.full_checkpoints += 1
        # Queue ordering (re)starts from the base step.
        self.queue._last_put_iteration = step

    def _register_hooks(self, trainer) -> None:
        trainer.register_synced_gradient_hook(self._on_synced_gradient)
        trainer.register_post_update_hook(self._on_post_update)

    def _on_synced_gradient(self, iteration: int, payload) -> None:
        # Optimizer step s = iteration + 1: replaying this payload on the
        # state after s-1 steps yields the state after s steps.
        self.queue.put(iteration + 1, payload)
        self.diff_checkpoints_enqueued += 1
        if OBS.enabled:
            OBS.registry.counter("ckpt.diff.enqueued").inc()

    def _on_post_update(self, iteration: int) -> None:
        step = iteration + 1
        if step % self.config.full_every_iters == 0:
            with obs_span("full_snapshot", "ckpt", {"step": step}):
                snapshot = FullSnapshot(
                    step=step,
                    model_state=self._trainer.model_state(),
                    optimizer_state=self._trainer.optimizer_state(),
                )
                # Travels through the same FIFO queue, so every differential
                # of an earlier step persists before (or with) this full.
                self.queue.put(step + 0.5, snapshot)  # between step and step+1
            if OBS.enabled:
                OBS.registry.counter("ckpt.full.snapshots").inc()
        if not self.async_mode:
            self._drain_available()
        self._check_worker()

    # Checkpointing side -------------------------------------------------------
    def _process_item(self, step, item) -> None:
        if isinstance(item, FullSnapshot):
            with obs_span("persist_full", "ckpt", {"step": item.step}):
                self.writer.flush()
                self._persist.save_full(item.step, item.model_state,
                                        item.optimizer_state)
            self.full_checkpoints += 1
            if OBS.enabled:
                OBS.registry.counter("ckpt.full.persisted").inc()
            if self.compactor is not None:
                # Policy-driven auto-trigger: a fresh full is the natural
                # compaction point (the chain behind it just became aged).
                self.compactor.enforce()
        else:
            self.writer.submit(int(step), item)
            if self.compactor is not None:
                # Chains grow *between* fulls; when a full is delayed the
                # policy budget must still hold, so the diff path checks
                # too (cheap peek — only drains once visibly exceeded).
                self.compactor.maybe_enforce()

    def _drain_available(self) -> None:
        for step, item in self.queue.drain():
            self._process_item(step, item)

    def _drain_loop(self) -> None:
        try:
            while True:
                try:
                    step, item = self.queue.get(timeout=None)
                except QueueClosed:
                    return
                self._process_item(step, item)
        except BaseException as error:  # surfaced on the training thread
            self._worker_error = error

    def _check_worker(self) -> None:
        if self.engine is not None:
            self.engine.raise_if_failed()
        if self._worker_error is not None:
            error, self._worker_error = self._worker_error, None
            raise RuntimeError("checkpointing process failed") from error

    # Lifecycle -------------------------------------------------------------------
    def _stop_intake(self) -> None:
        self.queue.close()
        super()._stop_intake()

    def _flush_pending(self) -> None:
        if self._worker is not None:
            self._worker.join(timeout=30.0)
            if self._worker.is_alive():  # pragma: no cover - defensive
                raise RuntimeError("checkpointing thread failed to stop")
            self._check_worker()
        self._drain_available()
        self.writer.flush()
        if self.compactor is not None:
            self.compactor.enforce()  # drains the engine first if present

    def _discard_pending(self) -> None:
        """The reusing queue's contents and the batched writer's partial
        batch die with the training process."""
        if self._worker is not None:
            self._worker.join(timeout=30.0)
        self.writer.discard_pending()

    # Telemetry -----------------------------------------------------------------------
    def stats(self) -> dict:
        out = {
            "full_checkpoints": self.full_checkpoints,
            "diff_writes": self.writer.writes,
            "gradients_submitted": self.writer.gradients_submitted,
            "queue_max_depth": self.queue.max_depth,
            "queue_copied_bytes": self.queue.copied_bytes,
            "peak_gpu_held_bytes": self.writer.peak_gpu_held_bytes,
            "peak_cpu_buffer_bytes": self.writer.peak_cpu_buffer_bytes,
            "storage_bytes": self.store.storage_bytes(),
        }
        if self.engine is not None:
            out["engine"] = self.engine.stats()
        if self.store.codec is not None:
            out["codec"] = self.store.codec.stats()
        return out
