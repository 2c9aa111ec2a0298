"""Process executor of the persist-engine core, over a shared-memory ring.

The paper's two-process design (§VI) decouples checkpointing from
training with ``torch.multiprocessing``.  :class:`AsyncCheckpointEngine`
reproduces the *pipeline* with threads, but threads share the GIL: the
codec's byte-plane transforms, zlib, and CRC sweeps timeshare the
interpreter with the training loop, so "overlapped" persistence still
steals hot-path cycles whenever a kernel holds the GIL.

:class:`MultiprocessCheckpointEngine` is the faithful reproduction: N
*persist workers* are **spawned** processes (never forked — the parent
runs writer threads and holds locks fork would duplicate mid-flight), fed
through a ``multiprocessing.shared_memory`` ring:

1. **Submit (training process)** — the record tree is walked *once*
   (:func:`~repro.storage.serializer.prepare_transit`) and memcpy'd
   straight into a ring region with
   :func:`~repro.storage.serializer.pack_tree_into_view`; the pack *is*
   the snapshot copy, and it carries no checksums — ring bytes are read
   once, unverified, by a process we spawned.  Only a tiny ``(seq, kind,
   offset, length, meta)`` descriptor crosses the queue — no pickle of
   array data, ever.
2. **Persist (worker process)** — the worker unpacks the region (copying
   arrays out), immediately releases the ring region, then runs the codec
   CPU, re-packs (this pack makes every CRC the stored blob carries), and
   writes the blob **atomically** (tmp + rename) under its final key via
   its own backend handle.
3. **Commit (parent collector thread)** — completions go through the
   core's in-order turnstile and are recorded in the store manifest via
   ``register_*_blob``.  The blob-before-manifest crash-ordering
   invariant holds across the process boundary.

The result queue is the workers' only channel to the parent, and a
worker never enables ``OBS``: it reports its stage times in the ``done``
message, and the collector records the ``ckpt.mp.worker.*`` metrics,
one trace track per worker and the worker-tagged flight entries.

Everything else is :class:`~repro.storage.persist_engine.PersistEngine`
(ARCHITECTURE.md §2).  A persist worker dying (SIGKILL, OOM) is detected
by an ``is_alive()`` watchdog and surfaces as a typed
:class:`WorkerCrashed` on the training thread — never a silent hang, and
never a torn blob (the atomic rename means a killed worker leaves only
``.tmp`` debris that ``gc`` sweeps).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from collections import deque
from functools import partial

from repro.obs import OBS, span as obs_span
from repro.obs.flight import FLIGHT
from repro.storage.backends import backend_from_spec
from repro.storage.checkpoint_store import (
    CheckpointStore,
    diff_key,
    encode_record_tree,
    full_key,
)
from repro.storage.payload_codec import make_codec
from repro.storage.persist_engine import (
    PendingWrite,
    PersistEngine,
    PersistTask,
    WriteAborted,
)
from repro.storage.serializer import (
    pack_tree_into,
    pack_tree_into_view,
    prepare_transit,
    unpack_tree,
)

#: ``os.nice`` increment applied inside each worker so persist CPU yields
#: to the training process on saturated hosts.
WORKER_NICE = 10
#: Seconds the constructor waits for every spawned worker to check in.
READY_TIMEOUT_S = 120.0


class WorkerCrashed(RuntimeError):
    """A persist-worker process died (killed/OOM) with work outstanding."""


class ShmRing:
    """Circular region allocator over one shared-memory segment.

    The parent allocates contiguous regions for packed records; workers
    signal consumption (``freed`` messages) and the tail advances through
    FIFO-released regions.  Out-of-order frees are buffered — space is
    reclaimed in allocation order, which matches the engine's in-order
    commit turnstile anyway.  ``alloc`` blocks (bounded waits) when the
    ring is full: the ring *is* the engine's memory backpressure.
    """

    def __init__(self, nbytes: int):
        from multiprocessing import shared_memory
        if nbytes < 1:
            raise ValueError(f"ring size must be >= 1 byte, got {nbytes}")
        self.shm = shared_memory.SharedMemory(create=True, size=int(nbytes))
        self.capacity = self.shm.size
        self._cond = threading.Condition(threading.Lock())
        self._order: deque[int] = deque()      # live tokens, allocation order
        self._regions: dict[int, tuple[int, int]] = {}  # token -> (off, len)
        self._released: set[int] = set()       # freed out of order
        self._next_token = 0
        self.stalls = 0
        self.stall_time_s = 0.0
        self.allocs = 0
        self.peak_used = 0
        self._destroyed = False
        if OBS.enabled:
            # A run with no stall reads 0, not no-data, against its SLO.
            OBS.registry.counter("ckpt.mp.ring_stalls")

    @property
    def name(self) -> str:
        return self.shm.name

    def _used_locked(self) -> int:
        return sum(length for _, length in self._regions.values())

    def _place_locked(self, nbytes: int) -> int | None:
        """Offset for a new region, or ``None`` if it does not fit now."""
        if not self._order:
            return 0
        first_off = self._regions[self._order[0]][0]
        last_off, last_len = self._regions[self._order[-1]]
        head = last_off + last_len
        if head > first_off:          # unwrapped: [tail ... head)
            if self.capacity - head >= nbytes:
                return head
            if first_off >= nbytes:   # wrap to the front
                return 0
            return None
        if first_off - head >= nbytes:  # wrapped: free gap is [head, tail)
            return head
        return None

    def alloc(self, nbytes: int, abort_check=None) -> tuple[int, int]:
        """Block until ``nbytes`` contiguous bytes are free; return
        ``(token, offset)``.  ``abort_check()`` may raise instead of
        waiting forever (engine failure, close)."""
        if nbytes > self.capacity:
            raise ValueError(
                f"record of {nbytes} bytes exceeds ring capacity "
                f"{self.capacity}; raise ring_mb")
        nbytes = max(1, int(nbytes))
        with self._cond:
            offset = self._place_locked(nbytes)
            if offset is None:
                self.stalls += 1
                started = time.perf_counter()
                while offset is None:
                    if abort_check is not None:
                        # Outside the ring lock: the check takes the engine
                        # lock, which fail-over holds while it releases the
                        # ring (``release_all``).
                        self._cond.release()
                        try:
                            abort_check()
                        finally:
                            self._cond.acquire()
                    self._cond.wait(timeout=0.25)
                    offset = self._place_locked(nbytes)
                waited = time.perf_counter() - started
                self.stall_time_s += waited
                if OBS.enabled:
                    OBS.registry.counter("ckpt.mp.ring_stalls").inc()
                    OBS.registry.observe("ckpt.mp.ring_stall_wait.s", waited)
            token = self._next_token
            self._next_token += 1
            self._order.append(token)
            self._regions[token] = (offset, nbytes)
            self.allocs += 1
            self.peak_used = max(self.peak_used, self._used_locked())
            return token, offset

    def view(self, offset: int, nbytes: int) -> memoryview:
        return self.shm.buf[offset:offset + nbytes]

    def free(self, token: int) -> None:
        """Release a region; unknown/duplicate tokens are ignored (late
        ``freed`` messages after a fail-over release)."""
        with self._cond:
            if token not in self._regions:
                return
            self._released.add(token)
            while self._order and self._order[0] in self._released:
                done = self._order.popleft()
                self._released.discard(done)
                del self._regions[done]
            self._cond.notify_all()

    def release_all(self) -> None:
        """Drop every live region (engine fail-over path)."""
        with self._cond:
            self._order.clear()
            self._regions.clear()
            self._released.clear()
            self._cond.notify_all()

    def destroy(self) -> None:
        """Close and unlink the segment (parent side, once)."""
        if self._destroyed:
            return
        self._destroyed = True
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - exported view still alive
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def stats(self) -> dict:
        with self._cond:
            return {
                "ring_capacity": self.capacity,
                "ring_used": self._used_locked(),
                "ring_peak_used": self.peak_used,
                "ring_allocs": self.allocs,
                "ring_stalls": self.stalls,
                "ring_stall_time_s": self.stall_time_s,
            }


def _persist_worker(index: int, shm_name: str, backend_spec: tuple,
                    codec_id: str, task_queue, result_queue) -> None:
    """Persist-worker main (runs in a spawned child process).

    Protocol (child -> parent on ``result_queue``, the only channel):

    * ``("ready", index)`` — imports done, codec warmed, priority set;
    * ``("freed", seq, index)`` — ring region consumed (arrays copied out);
    * ``("done", seq, info)`` — blob written atomically under its final
      key; ``info`` carries nbytes/crc/codec/raw_nbytes, ``busy_s``, the
      ``worker`` index and ``stamps``: ``time.perf_counter()`` at encode
      start, encoded, packed and written;
    * ``("error", seq, index, message)`` — one task failed (engine
      fail-stops);
    * ``("fatal", index, message)`` — the worker itself is broken.

    The worker never enables ``OBS`` and records no flight entries; the
    parent's collector turns these messages into both.
    """
    shm = None
    try:
        try:
            os.nice(WORKER_NICE)
        except OSError:  # pragma: no cover - priority change refused
            pass
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(name=shm_name)
        backend = backend_from_spec(backend_spec)
        codec = make_codec(codec_id)
        # Warm the codec/serializer code paths so first-task latency is
        # not an import/JIT stall inside the training loop's window.
        import numpy as _np
        warm_tree = {"w": _np.zeros(16, dtype=_np.float32)}
        if codec is not None:
            codec.encode_tree(dict(warm_tree))
        buffer = bytearray()
        pack_tree_into(warm_tree, buffer)[0].release()
        result_queue.put(("ready", index))
        while True:
            task = task_queue.get()
            if task is None:
                break
            _, seq, kind, offset, length, meta = task
            started = time.perf_counter()
            try:
                region = shm.buf[offset:offset + length]
                try:
                    tree = unpack_tree(region, verify=False)
                finally:
                    region.release()
                result_queue.put(("freed", seq, index))
                encode_started = time.perf_counter()
                tree, codec_id_used, raw_nbytes = encode_record_tree(
                    codec, tree)
                encoded = time.perf_counter()
                view, crc = pack_tree_into(tree, buffer)
                packed = time.perf_counter()
                try:
                    key = full_key(meta["step"]) if kind == "full" \
                        else diff_key(meta["start"], meta["end"])
                    backend.write(key, view)
                    written = time.perf_counter()
                    nbytes = len(view)
                finally:
                    view.release()
                result_queue.put(("done", seq, {
                    "nbytes": nbytes,
                    "crc": crc & 0xFFFFFFFF,
                    "codec": codec_id_used,
                    "raw_nbytes": raw_nbytes,
                    "busy_s": time.perf_counter() - started,
                    "worker": index,
                    "stamps": (encode_started, encoded, packed, written),
                }))
            except BaseException as err:
                detail = traceback.format_exc(limit=4)
                result_queue.put(("error", seq, index,
                                  f"{type(err).__name__}: {err}\n{detail}"))
    except BaseException as err:  # pragma: no cover - worker-level crash
        try:
            result_queue.put(("fatal", index, repr(err)))
        except Exception:
            pass
    finally:
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - exported view alive
                pass


def _record_worker_task(seq: int, info: dict) -> None:
    """Record one ``done`` message's stage times (parent, ``OBS`` on).

    The stamps are the worker's ``time.perf_counter()`` readings, the
    host's monotonic clock, so its spans land on the parent's timeline on
    one track per worker.
    """
    stamps = info["stamps"]
    registry, tracer = OBS.registry, OBS.tracer
    track = f"persist-worker-{info['worker']}"
    for index, stage in enumerate(("encode", "pack", "write")):
        start, end = stamps[index], stamps[index + 1]
        registry.observe(f"ckpt.mp.worker.{stage}.s", end - start)
        tracer.complete_between(f"worker_{stage}", start, end, track,
                                "ckpt", {"seq": seq})
    registry.observe("ckpt.mp.worker.busy.s", info["busy_s"])
    registry.inc("ckpt.mp.worker.tasks")
    registry.inc("ckpt.mp.worker.bytes", info["nbytes"])


class MultiprocessCheckpointEngine(PersistEngine):
    """Persist-worker process pool in front of a :class:`CheckpointStore`.

    The :class:`~repro.storage.persist_engine.PersistEngine` contract with
    serialization, codec CPU, and backend writes in spawned worker
    processes, outside the training interpreter's GIL.  Every submitted
    record is already in the workers' queue, so a drain deadline has
    nothing to take back (``DrainTimeout.dropped == 0``); ``finalize`` on
    an expired deadline and ``abort`` tear the pool down *forcibly*
    (workers terminated, stuck records resolved as aborted, shared memory
    unlinked) — a stuck backend never leaks a shared-memory segment.

    Parameters
    ----------
    store:
        Destination store.  Its backend must be re-openable from a child
        process (:meth:`StorageBackend.process_safe_spec`); in-memory and
        fault-injecting backends are not, and raise ``ValueError`` here —
        use the thread engine for those.
    num_workers:
        Spawned persist-worker processes.
    ring_bytes:
        Shared-memory ring capacity.  Must hold at least one packed
        record; sizes it bounds form the second (memory) backpressure.
    start_method:
        ``"spawn"`` (default, the only fork-safe choice when the parent
        has threads) or ``"forkserver"``.  ``"fork"`` is rejected.
    """

    family = "ckpt.mp"
    label = "multi-process"
    commit_span = "mp_commit"
    failure_event = "mp-commit-failed"
    drain_timeout_event = "mp-drain-timeout"
    typed_failures = (WorkerCrashed,)

    def __init__(self, store: CheckpointStore, num_workers: int = 2,
                 queue_depth: int = 8, ring_bytes: int = 64 << 20,
                 start_method: str = "spawn"):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if start_method == "fork":
            raise ValueError(
                "fork start method is unsafe here: the parent runs collector "
                "threads and holds locks a fork would duplicate mid-flight; "
                "use spawn (default) or forkserver")
        backend_spec = store.backend.process_safe_spec()
        if backend_spec is None:
            raise ValueError(
                f"{type(store.backend).__name__} cannot be re-opened from a "
                "worker process; use AsyncCheckpointEngine for this backend")
        super().__init__(store, queue_depth)
        self.num_workers = int(num_workers)
        self.start_method = start_method
        self.ring = ShmRing(int(ring_bytes))

        codec_id = "" if store.codec is None else store.codec.codec_id

        ctx = multiprocessing.get_context(start_method)
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        self._tokens: dict[int, int] = {}      # seq -> ring token
        self._stopping = False          # stop sentinels posted to workers
        self._shutdown_started = False
        self._ready_workers = 0
        self.pack_time_s = 0.0
        self.worker_busy_s = 0.0
        self._failure_dump: str | None = None

        self._workers = [
            ctx.Process(target=_persist_worker,
                        args=(index, self.ring.name, backend_spec, codec_id,
                              self._task_queue, self._result_queue),
                        name=f"ckpt-persist-{index}", daemon=True)
            for index in range(self.num_workers)
        ]
        self._collector = threading.Thread(target=self._collect_loop,
                                           name="ckpt-mp-collector",
                                           daemon=True)
        try:
            for worker in self._workers:
                worker.start()
            self._collector.start()
            self._await_ready()
        except BaseException:
            self._shutdown(force=True)
            raise

    def _await_ready(self) -> None:
        """Block until every worker has checked in (imports + warm done);
        a start-up death is the watchdog's usual typed fail-stop.

        Pre-warming keeps the interpreter-boot and numpy-import cost of a
        spawned child out of the training loop — without it, the first
        submissions contend with worker start-up for CPU and the process
        engine *loses* to the thread engine on short windows.
        """
        with self._lock:
            ready = self._drained.wait_for(
                lambda: self._ready_workers == self.num_workers
                or self._failure is not None, READY_TIMEOUT_S)
            self._raise_if_failed_locked()
            if not ready:
                raise RuntimeError(
                    f"persist workers not ready after {READY_TIMEOUT_S}s "
                    f"({self._ready_workers}/{self.num_workers})")

    # Submission (training thread) ------------------------------------------
    def _abort_check(self) -> None:
        with self._lock:
            self._raise_if_failed_locked()
            if self._stopping:
                raise WriteAborted("engine shut down during ring wait")

    def _submit(self, task: PersistTask) -> PendingWrite:
        """Pack the record into the shared ring and queue its descriptor.

        The pack *is* the snapshot copy — arrays are memcpy'd once into
        shared memory, so no stager slot and no pickle round-trip.
        """
        tree = task.record_tree()
        task.item = None  # the ring holds the only copy the engine needs
        pending = self._admit(task)
        seq, kind = task.seq, task.kind
        FLIGHT.record("ckpt", "submit", seq=seq, record_kind=kind)
        try:
            # One walk, no checksums: the worker reads the region
            # unverified and makes the durable CRCs in its own pack.
            prepared = prepare_transit(tree)
            nbytes = prepared.total_len
            started = time.perf_counter()
            with obs_span("mp_pack", "ckpt",
                          {"seq": seq, "kind": kind, "nbytes": nbytes}):
                token, offset = self.ring.alloc(nbytes,
                                                abort_check=self._abort_check)
                try:
                    region = self.ring.view(offset, nbytes)
                    try:
                        pack_tree_into_view(prepared, region)
                    finally:
                        region.release()
                    elapsed = time.perf_counter() - started
                    with self._lock:
                        # Under the lock that posts the stop sentinels: the
                        # task lands ahead of them or not at all.
                        if self._stopping:
                            raise WriteAborted(
                                "engine shut down during submit")
                        self.pack_time_s += elapsed
                        self._tokens[seq] = token
                        self._task_queue.put(("task", seq, kind, offset,
                                              nbytes, dict(task.meta)))
                except BaseException:
                    self.ring.free(token)
                    raise
            if OBS.enabled:
                OBS.registry.observe("ckpt.mp.pack.s", elapsed)
        except BaseException as error:
            # Failed on this thread before any worker saw it: the record
            # takes its turn as an abort (no fail-stop — the engine is not
            # poisoned) and the caller gets the original error.
            self._complete(seq, WriteAborted(
                f"{kind} write seq {seq} failed at submit: {error!r}"))
            raise
        return pending

    # Collector (parent thread) ---------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            try:
                # The timeout is the watchdog tick; shutdown does not wait
                # for it — it posts a "stop" message.
                message = self._result_queue.get(timeout=0.2)
            except (queue_module.Empty, OSError, EOFError):
                if self._shutdown_started:
                    return
                self._check_worker_health()
                continue
            tag = message[0]
            if tag == "stop":
                return
            # Worker-tagged flight entries, always on: a SIGKILLed
            # worker's last seq is in the parent's post-mortem.
            if tag == "ready":
                FLIGHT.record("worker", "ready", worker=message[1])
                with self._lock:
                    self._ready_workers += 1
                    self._drained.notify_all()
            elif tag == "freed":
                seq = message[1]
                FLIGHT.record("worker", "start", worker=message[2], seq=seq)
                with self._lock:
                    token = self._tokens.pop(seq, None)
                if token is not None:
                    self.ring.free(token)
            elif tag == "done":
                seq, info = message[1], message[2]
                FLIGHT.record("worker", "done", worker=info["worker"],
                              seq=seq, nbytes=info["nbytes"])
                if OBS.enabled:
                    _record_worker_task(seq, info)
                with self._lock:
                    task = self._tasks.get(seq)
                if task is not None:
                    self.worker_busy_s += info["busy_s"]
                    self._complete(seq, partial(self._register, task, info))
            elif tag == "error":
                seq = message[1]
                FLIGHT.record("worker", "error", worker=message[2], seq=seq)
                self._complete(seq, RuntimeError(
                    f"persist worker failed on seq {seq}: {message[3]}"))
            elif tag == "fatal":
                with self._lock:
                    self._fail_all_locked(WorkerCrashed(
                        f"persist worker {message[1]} broke: {message[2]}"))

    def _check_worker_health(self) -> None:
        """The ``is_alive()`` watchdog: a dead worker with work in flight
        becomes a typed :class:`WorkerCrashed` instead of a silent hang."""
        with self._lock:
            if self._shutdown_started or self._failure is not None:
                return
            # Once the stop sentinels are out, a clean exit is a worker
            # doing as told, not a casualty.
            dead = [(index, worker.exitcode)
                    for index, worker in enumerate(self._workers)
                    if not worker.is_alive()
                    and not (self._stopping and worker.exitcode == 0)]
            if not dead:
                return
            detail = ", ".join(f"worker {i} exitcode {code}"
                               for i, code in dead)
            self._fail_all_locked(WorkerCrashed(
                f"persist worker process(es) died: {detail}; outstanding "
                f"records cannot complete"))

    def _on_failure_locked(self, error: BaseException) -> None:
        """Write the flight-recorder post-mortem for a latched failure.

        One dump per engine failure (the latch is sticky, so so is the
        dump).  The parent's ring goes to JSON, and the path is appended to
        the fail-stop exception.  The ring holds the worker-tagged entries
        the collector recorded, so a SIGKILLed worker's last seq is there.
        """
        FLIGHT.record("ckpt", "fail-stop", error=repr(error))
        try:
            self._failure_dump = FLIGHT.dump(
                reason=f"mp-engine fail-stop: {error}",
                extra={"outstanding": self._outstanding,
                       "submitted": self.submitted,
                       "committed": self.committed})
        except OSError:  # pragma: no cover - dump dir unwritable
            return
        self._failure_note = \
            f" [flight recorder post-mortem: {self._failure_dump}]"

    def _fail_all_locked(self, error: BaseException) -> None:
        """Fail-stop after a worker crash: every unresolved record resolves
        with the typed error, the ring is released, waiters wake."""
        self._latch_locked(error, kind="worker", event="mp-worker-crash")
        self._release_all_locked(error)

    def _release_all_locked(self, error: BaseException) -> None:
        self._resolve_all_locked(error)
        self._tokens.clear()
        self.ring.release_all()

    def _register(self, task: PersistTask, info: dict):
        meta = task.meta
        if task.kind == "full":
            return self.store.register_full_blob(
                meta["step"], info["nbytes"], info["crc"],
                codec=info["codec"], raw_nbytes=info["raw_nbytes"])
        return self.store.register_diff_blob(
            meta["start"], meta["end"], meta["count"], info["nbytes"],
            info["crc"], codec=info["codec"], raw_nbytes=info["raw_nbytes"])

    # Lifecycle ---------------------------------------------------------------
    def _on_close_locked(self) -> None:
        """No record can follow, so the stop sentinels go out now: workers
        finish what is queued ahead of them and exit while the parent is
        still draining (and, in a shard group, while its siblings are)."""
        if not self._stopping:
            self._stopping = True
            for _ in self._workers:
                self._task_queue.put(None)

    def _abandon_locked(self) -> None:
        self._release_all_locked(WriteAborted("persistence engine aborted"))

    def _shutdown(self, force: bool) -> None:
        with self._lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        # A constructor that failed part-way shuts down what did start.
        workers = [w for w in self._workers if w._popen is not None]
        if not force:
            for worker in workers:
                worker.join(timeout=10.0)
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=5.0)
        with self._lock:
            # Anything still unresolved after a forced stop can never
            # complete; resolve it so waiters do not hang.
            self._release_all_locked(
                WriteAborted("engine shut down with work in flight"))
        if self._collector.is_alive():
            # Wake the collector now, not at its next watchdog tick.
            self._result_queue.put(("stop",))
            self._collector.join(timeout=10.0)
        for q in (self._task_queue, self._result_queue):
            q.cancel_join_thread()
            q.close()
        self.ring.destroy()

    def workers_alive(self) -> int:
        return sum(1 for worker in self._workers if worker.is_alive())

    # Telemetry -----------------------------------------------------------------
    def stats(self) -> dict:
        out = super().stats()
        with self._lock:
            out.update(num_workers=self.num_workers,
                       pack_time_s=self.pack_time_s,
                       worker_busy_s=self.worker_busy_s,
                       workers_alive=self.workers_alive(),
                       flight_dump=self._failure_dump)
        out.update(self.ring.stats())
        return out
