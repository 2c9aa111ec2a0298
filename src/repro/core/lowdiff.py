"""The LowDiff checkpointer (paper Algorithm 1 + §IV).

Wires together the reusing queue, the batched gradient writer, and the
checkpoint store:

* the **training side** (trainer hooks) enqueues each iteration's
  synchronized compressed gradient — zero-copy, no data dependency on the
  model update (§III-D) — and, every ``full_every_iters`` iterations,
  enqueues a full-state snapshot;
* the **checkpointing side** drains the queue inline after each
  iteration, in FIFO order, batches gradients in CPU memory, and hands
  batched differentials and full checkpoints to the persist target: the
  store, or — with ``CheckpointConfig(async_persist=True)``, the stand-in
  for the paper's separate checkpointing process — a persist engine that
  takes ownership of each record and writes it off the training thread;
* **recovery** restores the latest full checkpoint and replays the
  differential chain, serially or with the parallel merge tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.batched_writer import BatchedGradientWriter
from repro.core.checkpointer import Checkpointer
from repro.core.config import CheckpointConfig
from repro.core.reusing_queue import ReusingQueue
from repro.obs import OBS, span as obs_span
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.sharded import ShardedCheckpointStore, open_persist_engine


@dataclass
class FullSnapshot:
    """A full-state snapshot travelling through the reusing queue.

    The snapshot is taken on the training side (``state_dict()`` copies,
    like CheckFreq's GPU→CPU snapshot) and is the full's only copy: the
    persist target takes ownership of its arrays, so the checkpointing
    side persists it without racing further updates.
    """

    step: int
    model_state: dict
    optimizer_state: dict


class LowDiffCheckpointer(Checkpointer):
    """Frequent differential checkpointing by compressed-gradient reuse.

    The reusing queue drains inline after every iteration, so the queue
    and the batched writer live on the training thread; persistence leaves
    it only through the engine that ``config.async_persist`` selects.

    Parameters
    ----------
    store:
        Destination :class:`CheckpointStore`.
    config:
        ``(full_every_iters, batch_size)`` — typically from
        :func:`repro.core.config.optimal_configuration` — and the persist
        engine (``async_persist``, ``persist_mode``, ``writer_threads``,
        ``queue_depth``).

    The chain behind each full is bounded by ``full_every_iters``; an
    operator compacts a store whose fulls were delayed with
    ``store.compact(policy)`` (:mod:`repro.storage.compaction`).
    """

    def __init__(self, store: CheckpointStore, config: CheckpointConfig):
        # shards > 1 swaps the store for the sharded facade over the same
        # backend: per-shard diff chains under one intersection-committed
        # manifest set, elastic restore across world sizes.  An
        # already-sharded store passes through (its shard count wins).
        if config.shards > 1 and isinstance(store, CheckpointStore):
            store = ShardedCheckpointStore(
                store.backend, shards=config.shards, codec=store.codec)
        self.store = store
        self.config = config
        # Config-selected payload codec: applied store-wide before the
        # engine is built, so sync and async persist paths both encode.
        if config.codec:
            store.set_codec(config.codec)
        self.queue = ReusingQueue()
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
        self.writer = BatchedGradientWriter(
            self._persist, batch_size=config.batch_size)
        self.full_checkpoints = 0
        self.diff_checkpoints_enqueued = 0

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
        self._drain_available()
        if self.engine is not None:
            self.engine.raise_if_failed()

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
        else:
            self.writer.submit(int(step), item)

    def _drain_available(self) -> None:
        for step, item in self.queue.drain():
            self._process_item(step, item)

    # Lifecycle -------------------------------------------------------------------
    def _stop_intake(self) -> None:
        self.queue.close()
        super()._stop_intake()

    def _flush_pending(self) -> None:
        self._drain_available()
        self.writer.flush()

    def _discard_pending(self) -> None:
        """The reusing queue's contents and the batched writer's partial
        batch die with the training process."""
        self.writer.discard_pending()

    # Telemetry -----------------------------------------------------------------------
    def stats(self) -> dict:
        out = {
            "full_checkpoints": self.full_checkpoints,
            "diff_writes": self.writer.writes,
            "gradients_submitted": self.writer.gradients_submitted,
            "queue_max_depth": self.queue.max_depth,
            # The queue passes payloads by reference; the key stays for
            # the bench's ``core.reusing_queue.copied_bytes`` row.
            "queue_copied_bytes": 0,
            "peak_cpu_buffer_bytes": self.writer.peak_cpu_buffer_bytes,
            "storage_bytes": self.store.storage_bytes(),
        }
        if self.engine is not None:
            out["engine"] = self.engine.stats()
        if self.store.codec is not None:
            out["codec"] = self.store.codec.stats()
        return out
