"""Thread executor of the persist-engine core (ARCHITECTURE.md §2, §7).

The functional layer's realization of the paper's "spawned checkpointing
process" (§IV) in the shape FastPersist/CheckFreq demonstrated: persistence
runs on a pool of background writer threads so the training loop only pays
for a bounded snapshot handoff, not for serialization or storage I/O.
Admission, backpressure, the in-order commit turnstile, drain/finalize/
abort and fail-stop are :class:`~repro.storage.persist_engine.PersistEngine`;
this module keeps what only the thread executor has:

* **Double-buffered snapshot handoff** — full-state snapshots are copied
  into one of two preallocated staging slots (:class:`SnapshotStager`);
  with both slots in flight the producer stalls (counted), bounding
  snapshot memory at ``2 × state_size``.
* **Reusable buffer pool** — writers serialize concurrently, packing with
  :func:`~repro.storage.serializer.pack_tree_into` straight into pooled
  ``bytearray``\\ s; steady state allocates nothing per checkpoint.
* **A local task queue** — writers dequeue in submission order, so on a
  drain deadline (or ``abort``) the queued, unstarted tail can be taken
  back and resolved with :class:`WriteAborted`, while records a writer
  already picked up still commit.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from functools import partial
from typing import Any

import numpy as np

from repro.obs import OBS, span as obs_span
from repro.storage.checkpoint_store import CheckpointStore, encode_record_tree
from repro.storage.persist_engine import (  # noqa: F401 (re-exported)
    DrainTimeout,
    PendingWrite,
    PersistEngine,
    PersistTask,
    WriteAborted,
)
from repro.storage.serializer import pack_tree_into


class BufferPool:
    """Reusable ``bytearray`` pool for serialized checkpoint containers.

    Buffers only ever grow (``pack_tree_into`` extends in place), so after
    warm-up each buffer fits the largest record it has carried and the
    serialize stage performs no per-checkpoint allocation.
    """

    def __init__(self) -> None:
        self._free: list[bytearray] = []
        self._lock = threading.Lock()
        self.created = 0
        self.reused = 0
        self.outstanding = 0
        self.peak_outstanding = 0

    def acquire(self) -> bytearray:
        with self._lock:
            if self._free:
                self.reused += 1
                hit = True
                buffer = self._free.pop()
            else:
                self.created += 1
                hit = False
                buffer = bytearray()
            self.outstanding += 1
            self.peak_outstanding = max(self.peak_outstanding, self.outstanding)
        if OBS.enabled:
            OBS.registry.counter(
                "ckpt.async.buffer_pool.reused" if hit
                else "ckpt.async.buffer_pool.created").inc()
        return buffer

    def release(self, buffer: bytearray) -> None:
        with self._lock:
            self.outstanding -= 1
            self._free.append(buffer)

    def stats(self) -> dict:
        with self._lock:
            return {
                "buffers_created": self.created,
                "buffers_reused": self.reused,
                "buffers_peak_outstanding": self.peak_outstanding,
                "pooled_bytes": sum(len(b) for b in self._free),
            }


class SnapshotStager:
    """Double-buffered staging area for full-state snapshots.

    ``stage`` copies every array leaf of a checkpoint tree into one of
    ``slots`` preallocated per-path array sets (``np.copyto`` — a memcpy,
    no allocation once warm) and returns a tree referencing the staged
    arrays, which a writer thread can serialize while training mutates
    the originals.  With every slot leased to an in-flight checkpoint the
    caller blocks until one frees up; those stalls are counted — they are
    exactly the residual checkpoint stall the async engine cannot hide.
    """

    def __init__(self, slots: int = 2) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = int(slots)
        self._caches: list[dict[tuple, np.ndarray]] = [{} for _ in range(slots)]
        self._free = list(range(slots))
        self._cond = threading.Condition()
        self.stalls = 0
        self.stall_time_s = 0.0
        self.staged_bytes = 0
        self.stages = 0

    def stage(self, tree) -> tuple[int, Any]:
        """Copy ``tree``'s arrays into a free slot; returns ``(slot, staged)``."""
        with self._cond:
            if not self._free:
                self.stalls += 1
                started = time.perf_counter()
                while not self._free:
                    self._cond.wait()
                waited = time.perf_counter() - started
                self.stall_time_s += waited
                if OBS.enabled:
                    OBS.registry.counter("ckpt.async.snapshot_stalls").inc()
                    OBS.registry.observe("ckpt.async.snapshot_stall_wait.s",
                                         waited)
            slot = self._free.pop()
        staged = self._copy_into(tree, self._caches[slot], ())
        self.stages += 1
        return slot, staged

    def release(self, slot: int) -> None:
        with self._cond:
            self._free.append(slot)
            self._cond.notify()

    def _copy_into(self, node, cache: dict, path: tuple):
        if isinstance(node, np.ndarray):
            staged = cache.get(path)
            if staged is None or staged.shape != node.shape \
                    or staged.dtype != node.dtype:
                staged = np.empty(node.shape, dtype=node.dtype)
                cache[path] = staged
            np.copyto(staged, node)
            self.staged_bytes += staged.nbytes
            return staged
        if isinstance(node, dict):
            return {key: self._copy_into(value, cache, path + (key,))
                    for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            items = [self._copy_into(value, cache, path + (index,))
                     for index, value in enumerate(node)]
            return items if isinstance(node, list) else tuple(items)
        return node  # scalars/None/str are immutable — safe by reference

    def stats(self) -> dict:
        return {
            "snapshot_slots": self.slots,
            "snapshot_stalls": self.stalls,
            "snapshot_stall_time_s": self.stall_time_s,
            "snapshot_staged_bytes": self.staged_bytes,
            "snapshots_staged": self.stages,
        }




class AsyncCheckpointEngine(PersistEngine):
    """Background writer pool in front of a :class:`CheckpointStore`.

    Exposes the store's ``save_full``/``save_diff`` signatures (returning
    :class:`PendingWrite` instead of records) so the checkpointer and the
    batched gradient writer use it as a drop-in persistence target.

    Parameters
    ----------
    store:
        The destination store.  Only this engine touches its save path
    num_writers:
        Writer threads.  Serialization parallelizes across them; commits
        are serialized by the ordering turnstile regardless.
    queue_depth:
        Maximum outstanding (uncommitted) records before submission
        blocks — the backpressure bound.
    """

    family = "ckpt.async"
    label = "async"

    def __init__(self, store: CheckpointStore, num_writers: int = 2,
                 queue_depth: int = 8):
        if num_writers < 1:
            raise ValueError(f"num_writers must be >= 1, got {num_writers}")
        super().__init__(store, queue_depth)
        self.num_writers = int(num_writers)
        self.pool = BufferPool()
        self.stager = SnapshotStager()  # 2 slots: classic double buffering
        self._queue: deque[PersistTask] = deque()
        self._task_ready = threading.Condition(self._lock)
        self.commit_wait_s = 0.0     # writer time spent awaiting its turn
        self.serialize_time_s = 0.0
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"ckpt-writer-{index}", daemon=True)
            for index in range(self.num_writers)
        ]
        for worker in self._workers:
            worker.start()

    # Submission (training thread) ------------------------------------------
    def _submit(self, task: PersistTask) -> PendingWrite:
        """Fulls are staged first — returns after the bounded staging copy
        unless both snapshot slots are in flight or the queue is at depth.
        Diffs need no copy: ownership of the payload passed to the engine,
        and its record tree is built on the writer thread."""
        if task.kind == "full":
            task.slot, task.item = self.stager.stage(task.item)
        try:
            return self._admit(task)
        except BaseException:
            if task.slot is not None:
                self.stager.release(task.slot)
            raise

    def _enqueue_locked(self, task: PersistTask) -> None:
        self._queue.append(task)
        self._task_ready.notify()

    # Writer pool -------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue:
                    if self._closed:
                        return
                    self._task_ready.wait()
                task = self._queue.popleft()
                skip = self._failure is not None
            self._execute(task, skip=skip)

    def _execute(self, task: PersistTask, skip: bool) -> None:
        buffer = None
        view = None
        try:
            if skip:
                raise WriteAborted(f"{task.kind} write seq {task.seq} "
                                   "dropped after engine failure")
            with obs_span("serialize", "ckpt",
                          {"kind": task.kind, "seq": task.seq}):
                started = time.perf_counter()
                # Codec CPU (byte shuffles, zlib) runs here on the
                # writer thread, off the training hot path.
                tree, codec_id, raw_nbytes = encode_record_tree(
                    self.store.codec, task.record_tree())
                buffer = self.pool.acquire()
                view, crc = pack_tree_into(tree, buffer)
                elapsed = time.perf_counter() - started
                self.serialize_time_s += elapsed
            if OBS.enabled:
                OBS.registry.observe("ckpt.async.serialize.s", elapsed)
            outcome = partial(self._commit, task, view, crc, codec_id,
                              raw_nbytes)
        except BaseException as exc:
            outcome = exc
        # Complete even on failure, so the turnstile advances and later
        # sequence numbers are never blocked behind this one.
        self._complete(task.seq, outcome)
        # The commit may run on whichever writer reaches the turn first;
        # this one holds its buffer and slot until its own record resolves,
        # which keeps live buffers at one per writer.
        with obs_span("commit_wait", "ckpt", {"seq": task.seq}):
            started = time.perf_counter()
            task.pending._event.wait()
            waited = time.perf_counter() - started
        with self._lock:
            self.commit_wait_s += waited
        if OBS.enabled:
            OBS.registry.observe("ckpt.async.commit_wait.s", waited)
        if view is not None:
            view.release()
        if buffer is not None:
            self.pool.release(buffer)
        if task.slot is not None:
            self.stager.release(task.slot)

    def _commit(self, task: PersistTask, view, crc: int, codec_id: str,
                raw_nbytes: int):
        meta = task.meta
        if task.kind == "full":
            return self.store.save_full_bytes(
                meta["step"], view, crc, codec=codec_id,
                raw_nbytes=raw_nbytes)
        return self.store.save_diff_bytes(
            meta["start"], meta["end"], meta["count"], view, crc,
            codec=codec_id, raw_nbytes=raw_nbytes)

    # Lifecycle ---------------------------------------------------------------
    def _drop_unstarted_locked(self) -> int:
        """Drop queued-but-unstarted tasks (caller holds the lock).

        In-flight tasks (already picked up by a writer) are untouched —
        they cannot be interrupted and will resolve whenever the backend
        returns.  Dropped seqs are a contiguous tail of the sequence
        space, so in-flight (lower-seq) commits never wait on them; the
        turnstile passes over them once those have landed.
        """
        dropped = list(self._queue)
        self._queue.clear()
        for task in dropped:
            if task.slot is not None:
                self.stager.release(task.slot)
            error = WriteAborted(
                f"{task.kind} write seq {task.seq} dropped by deadline/abort")
            self._ready[task.seq] = error
            self._settle_locked(task, error=error)
        return len(dropped)

    def _on_close_locked(self) -> None:
        self._task_ready.notify_all()

    def _shutdown(self, force: bool) -> None:
        """Join the writers — unless a record is still in flight (a drain
        deadline expired on a stuck backend): those writers cannot be
        interrupted; they are daemons and die with the process."""
        if self.outstanding:
            return
        for worker in self._workers:
            worker.join(timeout=30.0)
            if worker.is_alive():  # pragma: no cover - defensive
                raise RuntimeError("checkpoint writer thread failed to stop")

    # Telemetry -----------------------------------------------------------------
    def stats(self) -> dict:
        out = super().stats()
        with self._lock:
            out.update(num_writers=self.num_writers,
                       commit_wait_s=self.commit_wait_s,
                       serialize_time_s=self.serialize_time_s)
        out.update(self.pool.stats())
        out.update(self.stager.stats())
        return out
