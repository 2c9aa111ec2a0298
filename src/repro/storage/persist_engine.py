"""The persist-engine core: the checkpointing side's pipeline, written once.

LowDiff persists through reuse queue → batched write → a separate
persister that commits in FIFO order (PAPER.md §IV/§VI; the
decoupled-writer shape is FastPersist's).  :class:`PersistEngine` owns the
*semantics* of that persister — record building, admission and
backpressure, the one in-submission-order commit turnstile,
``drain``/``finalize``/``abort`` and sticky fail-stop.  What runs between
admission and the turnstile is an *executor's* business (writer threads in
:mod:`~repro.storage.async_engine`, a shared-memory ring and spawned
workers in :mod:`~repro.storage.mp_engine`); shard fan-out composes one
engine per part of the store's writer protocol
(:class:`~repro.storage.sharded.ShardedPersistGroup`).  ``save_full`` and
``save_diff`` both take ownership of what they are handed, so the engine
is the only stage between the training thread and storage and admission
backpressure its only wait there.  ARCHITECTURE.md §2 is the narrative.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs import OBS, span as obs_span
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.payload_codec import payload_to_tree


class WriteAborted(RuntimeError):
    """A submitted write was dropped before committing (abort/fail-stop)."""


class DrainTimeout(RuntimeError):
    """``drain``/``finalize`` deadline expired with records still in flight.

    ``dropped`` counts writes the executor took back (they resolve with
    :class:`WriteAborted`); writes a worker already picked up may still
    commit later.  Raised so a supervisor-orchestrated recovery is never
    hostage to a stuck backend.
    """

    def __init__(self, message: str, outstanding: int = 0, dropped: int = 0):
        super().__init__(message)
        self.outstanding = outstanding
        self.dropped = dropped


class PendingWrite:
    """Handle to a submitted-but-not-yet-committed checkpoint record."""

    __slots__ = ("kind", "seq", "record", "error", "_event")

    def __init__(self, kind: str, seq: int):
        self.kind = kind
        self.seq = seq
        self.record = None
        self.error: BaseException | None = None
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None):
        """Block until committed; returns the store record (raises on failure)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"checkpoint write (seq {self.seq}) still in flight")
        if self.error is not None:
            raise self.error
        return self.record

    def _resolve(self, record=None, error: BaseException | None = None) -> None:
        self.record = record
        self.error = error
        self._event.set()


@dataclass
class PersistTask:
    kind: str               # "full" | "diff"
    item: Any               # full: the record tree; diff: the payload
    meta: dict = field(default_factory=dict)
    seq: int = -1
    pending: PendingWrite | None = None
    submitted_at: float = 0.0   # perf_counter at admission

    def record_tree(self) -> dict:
        """The serializable record tree (built wherever the executor packs)."""
        if self.kind == "full":
            return self.item
        return CheckpointStore.diff_tree(
            self.meta["start"], self.meta["end"], self.meta["count"],
            payload_to_tree(self.item))


def deadline_clock(timeout: float | None):
    """``remaining()`` for one shared deadline: seconds left (never below
    0), or ``None`` when the wait is unbounded."""
    if timeout is None:
        return lambda: None
    deadline = time.monotonic() + max(0.0, float(timeout))
    return lambda: max(0.0, deadline - time.monotonic())


class PersistEngine:
    """Persist semantics over a :class:`CheckpointStore`.  Subclasses are
    executors: they supply ``_shutdown``, may override ``_submit`` and the
    ``*_locked`` hooks, and name their metric family and trace events (the
    observable contract predates the shared core)."""

    family = "ckpt.engine"        # metric prefix: "ckpt.async" | "ckpt.mp"
    label = ""                    # "async" | "multi-process" in fail-stop text
    commit_span = "commit"
    failure_event = "engine-failure"
    drain_timeout_event = "drain-timeout"
    #: Failure types re-raised as themselves (not wrapped in RuntimeError).
    typed_failures: tuple = ()

    def __init__(self, store: CheckpointStore, queue_depth: int):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.store = store
        self.queue_depth = int(queue_depth)
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._commit_mutex = threading.Lock()
        self._tasks: dict[int, PersistTask] = {}  # unresolved, by seq
        self._ready: dict[int, Any] = {}          # seq -> commit fn | error
        self._next_seq = 0
        self._next_commit = 0
        self._outstanding = 0
        self._closed = False
        self._failure: BaseException | None = None
        self._failure_seq: int | None = None   # seq of the record that failed
        self._failure_kind: str | None = None  # "full" | "diff" | "worker"
        self._failure_note = ""                # appended to fail-stop text
        # Telemetry ----------------------------------------------------------
        self.submitted = 0
        self.committed = 0
        self.aborted_writes = 0
        self.backpressure_stalls = 0
        self.backpressure_time_s = 0.0
        self.high_watermark = 0
        self.commit_time_s = 0.0
        if OBS.enabled:
            # Created up front so a run with no stall reads 0, not no-data,
            # against the SLO stall budget.
            OBS.registry.histogram(f"{self.family}.backpressure_wait.s")

    # Executor hooks --------------------------------------------------------------
    def _submit(self, task: PersistTask) -> PendingWrite:
        """Hand ``task`` to the workers.  Admission alone, since the
        workers own what they are handed; an executor that copies at
        submit (the process executor's ring pack) overrides it."""
        return self._admit(task)

    def _shutdown(self, force: bool) -> None:
        """Stop the workers; ``force`` when records are being abandoned."""
        raise NotImplementedError

    def _enqueue_locked(self, task: PersistTask) -> None:
        """Runs inside admission, so a local queue sees seq order."""

    def _drop_unstarted_locked(self) -> int:
        """Take back work no worker has started; returns how many."""
        return 0

    def _abandon_locked(self) -> None:
        """``abort``: give up whatever can be given up."""
        self._drop_unstarted_locked()

    def _on_close_locked(self) -> None:
        """No further record will be admitted: wake or stop workers."""

    def _on_failure_locked(self, error: BaseException) -> None:
        """The failure latch just tripped (once per engine)."""

    # Submission (training thread) ------------------------------------------
    def save_full(self, step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> PendingWrite:
        """Queue a full snapshot.  Ownership of every array in
        ``model_state``/``optimizer_state`` passes to the engine, exactly as
        a diff's payload does: hand over copies (``state_dict()`` is one),
        never live arrays.  The thread executor serializes them as they are;
        the process executor packs them into its ring before returning."""
        tree = CheckpointStore.full_tree(step, model_state, optimizer_state,
                                         extra)
        return self._submit(PersistTask("full", tree, {"step": int(step)}))

    def save_diff(self, start: int, end: int, payload,
                  count: int | None = None) -> PendingWrite:
        """Queue a differential record.  Ownership of ``payload`` passes to
        the engine (the batched writer hands over its merged batch and
        drops its reference).  The executor builds and encodes its record
        tree (:meth:`PersistTask.record_tree`); no codec work runs here.
        """
        meta = {
            "start": int(start), "end": int(end),
            "count": int(count if count is not None else end - start + 1),
        }
        return self._submit(PersistTask("diff", payload, meta))

    def _check_open_locked(self) -> None:
        self._raise_if_failed_locked()
        if self._closed:
            raise RuntimeError("submit on finalized persistence engine")

    def _admit(self, task: PersistTask) -> PendingWrite:
        """Backpressure, then a sequence number and a :class:`PendingWrite`."""
        with self._lock:
            self._check_open_locked()
            if self._outstanding >= self.queue_depth:
                self.backpressure_stalls += 1
                started = time.perf_counter()
                # Commits, the failure latch, close and the process
                # executor's watchdog all notify ``_space``.
                while self._outstanding >= self.queue_depth \
                        and self._failure is None and not self._closed:
                    self._space.wait()
                waited = time.perf_counter() - started
                self.backpressure_time_s += waited
                if OBS.enabled:
                    OBS.registry.counter(
                        f"{self.family}.backpressure_stalls").inc()
                    OBS.registry.observe(
                        f"{self.family}.backpressure_wait.s", waited)
                self._check_open_locked()
            task.seq = self._next_seq
            self._next_seq += 1
            task.pending = PendingWrite(task.kind, task.seq)
            task.submitted_at = time.perf_counter()
            self._tasks[task.seq] = task
            self._outstanding += 1
            self.submitted += 1
            self.high_watermark = max(self.high_watermark, self._outstanding)
            if OBS.enabled:
                family = self.family
                OBS.registry.counter(f"{family}.submitted").inc()
                OBS.registry.set(f"{family}.queue_depth", self._outstanding)
                OBS.registry.set(f"{family}.queue_high_watermark",
                                 self.high_watermark)
                OBS.tracer.counter(f"{family}.queue_depth", self._outstanding)
            self._enqueue_locked(task)
            return task.pending

    # The commit turnstile ----------------------------------------------------------
    def _complete(self, seq: int, outcome) -> None:
        """Executor → core: ``seq``'s off-thread stage is over.

        ``outcome`` is a zero-argument commit callable returning the store
        record, or the exception that ended the record early.  Every
        admitted seq must be completed (or resolved wholesale), even on
        failure, so later sequence numbers are never blocked behind it.
        """
        with self._lock:
            if seq >= self._next_commit:
                self._ready[seq] = outcome
        self._advance()

    def _advance(self) -> None:
        """Commit every ready record whose turn has come, in seq order.

        Single-flight (``_commit_mutex``), so the (non-thread-safe) store
        sees one writer at a time; the commit itself runs outside the
        engine lock so submissions keep flowing while it lands.  Runs on
        whichever executor thread completed a record — never the training
        thread, except to pass over a record that failed at submit.
        """
        with self._commit_mutex:
            while True:
                with self._lock:
                    seq = self._next_commit
                    if seq not in self._ready:
                        return
                    outcome = self._ready.pop(seq)
                    task = self._tasks.get(seq)
                record = None
                error: BaseException | None = None
                if task is None:
                    pass  # resolved early (dropped tail): just take the turn
                elif callable(outcome):
                    started = time.perf_counter()
                    try:
                        with obs_span(self.commit_span, "ckpt",
                                      {"kind": task.kind, "seq": seq}):
                            record = outcome()
                    except BaseException as exc:
                        error = exc
                    elapsed = time.perf_counter() - started
                    self.commit_time_s += elapsed
                    if OBS.enabled:
                        OBS.registry.observe(f"{self.family}.commit.s",
                                             elapsed)
                else:
                    error = outcome
                with self._lock:
                    # max(): a wholesale resolve may have moved it past us.
                    self._next_commit = max(self._next_commit, seq + 1)
                    if task is not None:
                        self._settle_locked(task, record, error)

    def _settle_locked(self, task: PersistTask, record=None,
                       error: BaseException | None = None) -> None:
        """Resolve one record, exactly once: handle, counters, latch, wakeups."""
        if self._tasks.pop(task.seq, None) is None:
            return
        task.pending._resolve(record=record, error=error)
        self._outstanding -= 1
        if error is None:
            self.committed += 1
        elif isinstance(error, WriteAborted):
            self.aborted_writes += 1
        else:
            self._latch_locked(error, task.seq, task.kind)
        if OBS.enabled:
            family = self.family
            if error is None:
                OBS.registry.counter(f"{family}.committed").inc()
                # Submit-to-commit turnaround as the parent sees it
                # (includes queueing).
                OBS.registry.observe(
                    f"{family}.turnaround.s",
                    time.perf_counter() - task.submitted_at)
            OBS.registry.set(f"{family}.queue_depth", self._outstanding)
        self._space.notify_all()
        if self._outstanding == 0:
            self._drained.notify_all()

    def _resolve_all_locked(self, error: BaseException) -> None:
        """Resolve every unresolved record with ``error`` and move the
        turnstile past them; their late completions are ignored."""
        for task in list(self._tasks.values()):
            self._settle_locked(task, error=error)
        self._ready.clear()
        self._next_commit = self._next_seq

    # Fail-stop ---------------------------------------------------------------------
    def _latch_locked(self, error: BaseException, seq: int | None = None,
                      kind: str | None = None, event: str | None = None
                      ) -> None:
        """The sticky failure latch: first error wins."""
        if self._failure is not None:
            return
        self._failure = error
        self._failure_seq = seq
        self._failure_kind = kind
        if OBS.enabled:
            OBS.registry.counter(f"{self.family}.failures").inc()
            OBS.tracer.instant(event or self.failure_event, "ckpt",
                               {"kind": kind, "seq": seq,
                                "error": repr(error)})
        self._on_failure_locked(error)
        self._space.notify_all()
        self._drained.notify_all()

    def raise_if_failed(self) -> None:
        """Re-raise an engine failure on the calling (training) thread."""
        with self._lock:
            self._raise_if_failed_locked()

    def _raise_if_failed_locked(self) -> None:
        failure = self._failure
        if failure is None:
            return
        if isinstance(failure, self.typed_failures):
            raise type(failure)(
                f"{failure}{self._failure_note}") from failure
        raise RuntimeError(
            f"{self.label} persistence engine failed: {self._failure_kind} "
            f"record seq {self._failure_seq} raised "
            f"{type(failure).__name__}: {failure}{self._failure_note}"
        ) from failure

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    def would_block(self) -> bool:
        """True if a submission right now would hit backpressure."""
        with self._lock:
            return self._outstanding >= self.queue_depth

    # Lifecycle ---------------------------------------------------------------
    def _await_drained_locked(self, timeout: float | None,
                              what: str) -> None:
        """Wait (bounded) for outstanding == 0; on expiry take back what the
        executor still can and raise :class:`DrainTimeout`.  Caller holds
        the lock."""
        remaining = deadline_clock(timeout)
        while self._outstanding:
            left = remaining()
            if left is None or left > 0:
                self._drained.wait(left)
                continue
            dropped = self._drop_unstarted_locked()
            stuck = self._outstanding
            if OBS.enabled:
                OBS.registry.counter(f"{self.family}.drain_timeouts").inc()
                OBS.tracer.instant(
                    self.drain_timeout_event, "ckpt",
                    {"what": what, "outstanding": stuck, "dropped": dropped})
            raise DrainTimeout(
                f"{what} deadline ({timeout}s) expired: {stuck} record(s) "
                f"still in flight, {dropped} queued write(s) dropped",
                outstanding=stuck, dropped=dropped,
            )

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted record has committed.

        With a ``timeout`` (seconds) the wait is bounded: on expiry
        :class:`DrainTimeout` is raised, so a stuck backend cannot hang
        recovery forever.
        """
        with self._lock:
            self._await_drained_locked(timeout, "drain")
        self.raise_if_failed()

    def close(self) -> None:
        """Stop admitting records (blocked submitters wake and raise);
        already-submitted work keeps flowing.  Idempotent."""
        with self._lock:
            self._closed = True
            self._space.notify_all()
            self._on_close_locked()

    def finalize(self, timeout: float | None = None) -> None:
        """Close, drain, stop the workers, and surface any failure.

        ``timeout`` bounds the drain exactly like :meth:`drain`; on expiry
        the workers are torn down as far as the executor can (``force``)
        and :class:`DrainTimeout` propagates.  Idempotent.
        """
        self.close()
        timeout_error: DrainTimeout | None = None
        with self._lock:
            try:
                self._await_drained_locked(timeout, "finalize")
            except DrainTimeout as caught:
                timeout_error = caught
        self._shutdown(force=timeout_error is not None)
        if timeout_error is not None:
            raise timeout_error
        self.raise_if_failed()

    def abort(self) -> None:
        """Stop without draining: work the executor can still give up
        resolves with :class:`WriteAborted`; whatever it cannot interrupt
        still commits, preserving the prefix property.  Errors are not
        re-raised — this is the path a dying process takes."""
        self.close()
        with self._lock:
            self._abandon_locked()
            while self._outstanding:
                self._drained.wait()
        self._shutdown(force=True)

    # Telemetry -----------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "queue_depth": self.queue_depth,
                "submitted": self.submitted,
                "committed": self.committed,
                "aborted_writes": self.aborted_writes,
                "outstanding": self._outstanding,
                "high_watermark": self.high_watermark,
                "backpressure_stalls": self.backpressure_stalls,
                "backpressure_time_s": self.backpressure_time_s,
                "commit_time_s": self.commit_time_s,
                "failure": None if self._failure is None else {
                    "seq": self._failure_seq,
                    "kind": self._failure_kind,
                    "error": repr(self._failure),
                },
            }
