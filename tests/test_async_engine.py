"""Tests for the async persistence engine: ordering, backpressure, drain,
abort, fail-stop, and byte-equivalence with the synchronous save path.

Synchronization in these tests is event-based (gates, semaphores) rather
than sleep-based: a ``GateBackend`` blocks its writes on a
``threading.Event`` so tests control exactly when a writer thread may
commit, independent of scheduler timing.
"""

import os
import threading
import time
import weakref

import numpy as np
import pytest

from repro import obs
from repro.compression import TopKCompressor
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.obs.slo import DEFAULT_TARGETS, evaluate_snapshot, load_slo_config
from repro.optim import Adam
from repro.tensor.models import MLP
from repro.storage import (
    AsyncCheckpointEngine,
    CheckpointStore,
    DrainTimeout,
    InMemoryBackend,
    WriteAborted,
)
from repro.storage.checkpoint_store import full_key
from repro.utils.rng import Rng
from tests.helpers import (
    GateBackend,
    assert_states_equal,
    make_mlp_trainer,
    wait_until,
)

WAIT = 10.0  # generous upper bound for any legitimate cross-thread wait
CI_SLO_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir,
                             "benchmarks", "slo_ci.json")


def diff_payload(rng, size=24):
    return TopKCompressor(0.5).compress({"w": rng.normal(size=(size,))})


def model_state(rng):
    return {"w": rng.normal(size=(6, 4)), "b": rng.normal(size=(4,))}


def optimizer_state(rng):
    return {"type": "SGD", "step_count": 3,
            "slots": {"w": {"m": rng.normal(size=(6, 4))}}}


class RecordingBackend(InMemoryBackend):
    """Remembers the order in which checkpoint blobs were written, and the
    bytes of every index commit: a snapshot write or a journal append."""

    def __init__(self):
        super().__init__()
        self.order = []
        self.commits = []

    def _write(self, key, data):
        super()._write(key, data)
        if "manifest" in key:
            self.commits.append(b"".join(data))
        else:
            self.order.append(key)

    def _append(self, key, data):
        super()._append(key, data)
        self.commits.append(data)


class ExplodingBackend(InMemoryBackend):
    """Fails every non-manifest write."""

    def _write(self, key, data):
        if "manifest" not in key:
            raise OSError(f"injected backend failure on {key}")
        super()._write(key, data)


class TestOrdering:
    def test_commits_follow_submission_order(self, rng):
        """Many writers, one ordering: blobs land and commit points (a
        snapshot per full, a journal line per diff) follow in submission
        order, so a diff is never visible before the full it chains from."""
        backend = RecordingBackend()
        engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                       num_writers=4, queue_depth=16)
        pendings = [engine.save_full(0, model_state(rng), optimizer_state(rng))]
        for step in range(1, 9):
            pendings.append(engine.save_diff(step, step, diff_payload(rng)))
        pendings.append(engine.save_full(9, model_state(rng),
                                         optimizer_state(rng)))
        engine.finalize()
        assert len(backend.order) == len(pendings)
        records = [pending.wait(0) for pending in pendings]
        assert backend.order == [record.key for record in records]
        # Commit i is the first to name record i, and names no later one.
        assert len(backend.commits) == len(records)
        for index, commit in enumerate(backend.commits):
            named = [record.key.encode() in commit for record in records]
            assert named[index] and not any(named[index + 1:])
        assert backend.commits[1].startswith(b'{"codec"')  # a journal line
        stats = engine.stats()
        assert stats["submitted"] == stats["committed"] == len(pendings)
        assert stats["outstanding"] == 0

    def test_no_lost_records_under_concurrent_producers(self, rng):
        """Several producer threads submitting concurrently: every record
        commits exactly once and is readable afterwards."""
        store = CheckpointStore(InMemoryBackend())
        engine = AsyncCheckpointEngine(store, num_writers=3, queue_depth=4)
        per_producer = 8
        errors = []

        def producer(base):
            thread_rng = Rng(base)
            try:
                for offset in range(per_producer):
                    engine.save_full(base * 100 + offset,
                                     model_state(thread_rng),
                                     optimizer_state(thread_rng))
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=producer, args=(base,))
                   for base in range(1, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WAIT)
        engine.finalize()
        assert not errors
        steps = sorted(record.step for record in store.fulls())
        assert steps == sorted(base * 100 + offset
                               for base in range(1, 4)
                               for offset in range(per_producer))
        for record in store.fulls():  # every committed blob is readable
            store.load_full(record)


class TestBackpressure:
    def test_submit_blocks_at_queue_depth_until_commit(self, rng):
        backend = GateBackend()
        engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                       num_writers=1, queue_depth=2)
        engine.save_diff(1, 1, diff_payload(rng))
        assert backend.entered.acquire(timeout=WAIT)  # writer inside write()
        engine.save_diff(2, 2, diff_payload(rng))
        assert engine.would_block()
        submitted = threading.Event()

        def producer():
            engine.save_diff(3, 3, diff_payload(rng))
            submitted.set()

        thread = threading.Thread(target=producer)
        thread.start()
        # The producer must be counted as stalled, not submitted.
        assert wait_until(lambda: engine.backpressure_stalls == 1)
        assert not submitted.is_set()
        backend.gate.set()  # first commit completes -> slot frees
        assert submitted.wait(WAIT)
        thread.join(timeout=WAIT)
        engine.finalize()
        stats = engine.stats()
        assert stats["committed"] == 3
        assert stats["high_watermark"] == 2  # never exceeded queue_depth
        assert stats["backpressure_stalls"] == 1
        assert stats["backpressure_time_s"] > 0.0

    @pytest.mark.parametrize("queue_depth", [1, 2])
    def test_stall_over_one_second_breaches_the_slo_gate(self, rng,
                                                         queue_depth):
        """Admission is the engine's only wait on the training thread, so a
        submit held for more than 1 s breaches ``persist-stall-budget`` in
        the CI config and in ``DEFAULT_TARGETS``.  At depth 2 the held full
        is the third: no staging slot may absorb the wait out of sight."""
        with obs.capture() as active:
            backend = GateBackend()
            engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                           num_writers=1,
                                           queue_depth=queue_depth)
            try:
                for step in range(queue_depth):
                    engine.save_full(step, model_state(rng),
                                     optimizer_state(rng))
                assert backend.entered.acquire(timeout=WAIT)
                opener = threading.Timer(1.2, backend.gate.set)
                opener.start()
                started = time.perf_counter()
                engine.save_full(queue_depth, model_state(rng),
                                 optimizer_state(rng))
                held = time.perf_counter() - started
                opener.join()
                engine.finalize()
            finally:
                backend.gate.set()
                engine.abort()
            snapshot = active.registry.snapshot()
        assert held > 1.0
        targets = load_slo_config(CI_SLO_CONFIG) + DEFAULT_TARGETS
        stall = [result for result in evaluate_snapshot(targets, snapshot)
                 if result.target.name == "persist-stall-budget"]
        assert len(stall) == 2
        assert {result.status for result in stall} == {"BREACH"}


class TestLifecycle:
    def test_finalize_drains_everything(self, rng):
        store = CheckpointStore(InMemoryBackend())
        engine = AsyncCheckpointEngine(store, num_writers=2, queue_depth=8)
        pendings = [engine.save_diff(step, step, diff_payload(rng))
                    for step in range(1, 7)]
        engine.finalize()
        assert all(pending.done for pending in pendings)
        assert engine.outstanding == 0
        assert len(store.diffs_after(0)) == 6
        with pytest.raises(RuntimeError):
            engine.save_diff(7, 7, diff_payload(rng))  # closed

    def test_abort_drops_queued_tail_but_commits_in_flight(self, rng):
        backend = GateBackend()
        store = CheckpointStore(backend)
        engine = AsyncCheckpointEngine(store, num_writers=1, queue_depth=8)
        pendings = [engine.save_diff(step, step, diff_payload(rng))
                    for step in range(1, 5)]
        assert backend.entered.acquire(timeout=WAIT)  # seq 0 is in flight
        aborted = threading.Thread(target=engine.abort)
        aborted.start()
        # The queued tail (seqs 1-3) is dropped immediately, while the gate
        # still holds the in-flight write.
        for pending in pendings[1:]:
            with pytest.raises(WriteAborted):
                pending.wait(WAIT)
        backend.gate.set()
        aborted.join(timeout=WAIT)
        assert not aborted.is_alive()
        assert pendings[0].wait(WAIT).start == 1  # in-flight write committed
        assert [record.start for record in store.diffs_after(0)] == [1]
        assert engine.stats()["aborted_writes"] == 3

    def test_pending_wait_timeout_then_result(self, rng):
        backend = GateBackend()
        engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                       num_writers=1, queue_depth=4)
        pending = engine.save_full(5, model_state(rng), optimizer_state(rng))
        assert backend.entered.acquire(timeout=WAIT)
        with pytest.raises(TimeoutError):
            pending.wait(timeout=0.01)
        backend.gate.set()
        engine.finalize()
        assert pending.wait(0).step == 5


class TestDrainTimeout:
    def test_drain_deadline_drops_queued_and_raises(self, rng):
        """A stuck backend can't hold recovery hostage: the drain deadline
        expires, queued-but-unstarted writes abort, and the caller gets a
        typed error with the outstanding/dropped accounting."""
        backend = GateBackend()
        store = CheckpointStore(backend)
        engine = AsyncCheckpointEngine(store, num_writers=1, queue_depth=8)
        stuck = engine.save_diff(1, 1, diff_payload(rng))
        assert backend.entered.acquire(timeout=WAIT)  # seq 0 is in flight
        queued = [engine.save_diff(step, step, diff_payload(rng))
                  for step in (2, 3)]
        with pytest.raises(DrainTimeout) as info:
            engine.drain(timeout=0.05)
        assert info.value.dropped == 2
        assert info.value.outstanding >= 1  # the stuck in-flight write
        for pending in queued:
            with pytest.raises(WriteAborted):
                pending.wait(WAIT)
        assert engine.stats()["aborted_writes"] == 2
        # Once the backend unblocks, the in-flight write still commits and
        # a normal finalize succeeds.
        backend.gate.set()
        assert stuck.wait(WAIT).start == 1
        engine.finalize()
        assert [record.start for record in store.diffs_after(0)] == [1]

    def test_finalize_deadline_does_not_join_stuck_writers(self, rng):
        backend = GateBackend()
        engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                       num_writers=1, queue_depth=4)
        engine.save_full(0, model_state(rng), optimizer_state(rng))
        assert backend.entered.acquire(timeout=WAIT)
        with pytest.raises(DrainTimeout):
            engine.finalize(timeout=0.05)
        backend.gate.set()  # unblock the daemon writer for teardown

    def test_drain_without_timeout_still_blocks_until_done(self, rng):
        backend = GateBackend()
        engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                       num_writers=1, queue_depth=4)
        pending = engine.save_diff(1, 1, diff_payload(rng))
        assert backend.entered.acquire(timeout=WAIT)
        finished = threading.Event()

        def drainer():
            engine.drain()  # legacy path: no deadline
            finished.set()

        thread = threading.Thread(target=drainer)
        thread.start()
        assert not finished.wait(0.05)  # still blocked on the gate
        backend.gate.set()
        assert finished.wait(WAIT)
        thread.join(timeout=WAIT)
        assert pending.done
        engine.finalize()

    def test_drain_timeout_metric_counted(self, rng):
        with obs.capture() as active:
            backend = GateBackend()
            engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                           num_writers=1, queue_depth=4)
            engine.save_diff(1, 1, diff_payload(rng))
            assert backend.entered.acquire(timeout=WAIT)
            with pytest.raises(DrainTimeout):
                engine.drain(timeout=0.05)
            backend.gate.set()
            engine.finalize()
            snapshot = active.registry.snapshot()
        assert snapshot["ckpt.async.drain_timeouts"] == 1


class TestFailStop:
    def test_worker_error_sticky_and_surfaced(self, rng):
        engine = AsyncCheckpointEngine(CheckpointStore(ExplodingBackend()),
                                       num_writers=1, queue_depth=4)
        pending = engine.save_diff(1, 1, diff_payload(rng))
        with pytest.raises(OSError):
            pending.wait(WAIT)
        assert wait_until(lambda: engine.outstanding == 0)
        with pytest.raises(RuntimeError, match="persistence engine failed"):
            engine.save_diff(2, 2, diff_payload(rng))
        with pytest.raises(RuntimeError):  # sticky
            engine.raise_if_failed()
        engine.abort()  # abort never re-raises: the dying-process path

    def test_finalize_reraises_worker_error(self, rng):
        engine = AsyncCheckpointEngine(CheckpointStore(ExplodingBackend()),
                                       num_writers=2, queue_depth=4)
        engine.save_diff(1, 1, diff_payload(rng))
        with pytest.raises(RuntimeError, match="persistence engine failed"):
            engine.finalize()


class TestEquivalence:
    def test_async_store_bytes_match_sync(self, rng):
        """The engine is a pure scheduler: the committed store is
        byte-identical to the synchronous save path."""
        sync_backend, async_backend = InMemoryBackend(), InMemoryBackend()
        sync_store = CheckpointStore(sync_backend)
        engine = AsyncCheckpointEngine(CheckpointStore(async_backend),
                                       num_writers=3, queue_depth=4)
        states = [(model_state(Rng(seed)), optimizer_state(Rng(seed)))
                  for seed in range(3)]
        payloads = [diff_payload(Rng(100 + seed)) for seed in range(6)]
        sync_store.save_full(0, *states[0])
        engine.save_full(0, *states[0])
        for step, payload in enumerate(payloads, start=1):
            sync_store.save_diff(start=step, end=step, payload=payload.copy())
            engine.save_diff(step, step, payload)
        sync_store.save_full(7, *states[1])
        engine.save_full(7, *states[1])
        engine.finalize()
        assert sync_backend._data == async_backend._data  # keys AND bytes

    def test_checkpointer_async_recovery_bit_exact(self):
        """End-to-end: LowDiffCheckpointer with async_persist=True produces
        a store recovery restores bit-exactly, same as sync mode."""
        reference = make_mlp_trainer(seed=5)
        reference.run(12)
        final_state = reference.model_state()
        results = {}
        for mode in (False, True):
            trainer = make_mlp_trainer(seed=5)
            store = CheckpointStore(InMemoryBackend())
            config = CheckpointConfig(full_every_iters=6, batch_size=1,
                                      async_persist=mode, writer_threads=2,
                                      queue_depth=4)
            checkpointer = LowDiffCheckpointer(store, config)
            checkpointer.attach(trainer)
            trainer.run(12)
            checkpointer.finalize()
            if mode:
                assert checkpointer.stats()["engine"]["committed"] > 0
            model = MLP(8, [16, 16], 4, rng=Rng(99))
            optimizer = Adam(model, lr=1e-3)
            checkpointer.recover(model, optimizer)
            results[mode] = model.state_dict()
        assert_states_equal(results[False], final_state)
        assert_states_equal(results[True], final_state)


def owners_of(part, records) -> set:
    """Indices of the records with an array whose memory ``part`` shares."""
    view = np.frombuffer(part, dtype=np.uint8)
    return {index for index, arrays in enumerate(records)
            if any(np.shares_memory(view, array) for array in arrays)}


class TestBufferPool:
    """No buffer pool is left: a writer hands the backend the serializer's
    parts, whose blob parts are views of the arrays the engine was handed.
    The ids predate that; ``FLOOR_DROPPABLE.md`` lists their new names."""

    def test_buffers_are_reused(self, rng):
        """An uncoded full's blob parts are the handed arrays' own memory,
        and once drained the engine keeps none of them alive."""
        model, optim = model_state(rng), optimizer_state(rng)
        refs = [weakref.ref(array) for array in
                (*model.values(), optim["slots"]["w"]["m"])]
        handed = []

        class SharingBackend(InMemoryBackend):
            def _write(self, key, parts):
                if "manifest" not in key:
                    arrays = [[ref()] for ref in refs]
                    handed.append([sorted(owners_of(part, arrays))
                                   for part in parts])
                super()._write(key, parts)

        engine = AsyncCheckpointEngine(CheckpointStore(SharingBackend()),
                                       num_writers=2, queue_depth=4)
        try:
            engine.save_full(0, model, optim)
            del model, optim
            engine.drain()
            # The header, then one view per blob in tree order.
            assert handed == [[[], [0], [1], [2]]]
            assert wait_until(lambda: all(ref() is None for ref in refs))
        finally:
            engine.finalize()

    def test_concurrent_acquire_tracks_peak(self):
        """Three writers parked behind a gated backend each hold only their
        own record's views, and ``stats()`` reports no pool."""
        handed = {}

        class PartsGateBackend(GateBackend):
            def _write(self, key, parts):
                if "manifest" not in key:
                    handed[key] = parts
                super()._write(key, parts)

        backend = PartsGateBackend()
        engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                       num_writers=3, queue_depth=4)
        states = [(model_state(Rng(seed)), optimizer_state(Rng(seed)))
                  for seed in range(3)]
        records = [[*model.values(), optim["slots"]["w"]["m"]]
                   for model, optim in states]
        try:
            for step, state in enumerate(states):
                engine.save_full(step, *state)
            # Seq 0's writer is in the backend; the other two serialized
            # and hold their parts until the turnstile reaches them.
            assert backend.entered.acquire(timeout=WAIT)
            assert wait_until(lambda: len(engine._ready) == 2)
            held = {0: handed[full_key(0)]}
            held.update((seq, commit.args[1])
                        for seq, commit in engine._ready.items())
            for step, arrays in enumerate(records):
                blob_parts = held[step][1:]
                assert len(blob_parts) == len(arrays)
                assert all(owners_of(part, records) == {step}
                           for part in blob_parts)
            assert not {"buffers_created", "buffers_reused",
                        "buffers_peak_outstanding", "pooled_bytes"} \
                & engine.stats().keys()
            backend.gate.set()
            engine.finalize()
        finally:
            backend.gate.set()
            engine.abort()


class TestSnapshotStager:
    """No staging copy is left: the engine owns the full it is handed, and
    ``queue_depth`` bounds fulls like every other record.  The ids predate
    that; ``FLOOR_DROPPABLE.md`` lists their new names."""

    def test_staged_tree_is_a_deep_copy(self):
        """The caller's ``state_dict()`` is a full's one copy: training
        that moves on while the full waits for a writer never reaches it."""
        backend = GateBackend()
        store = CheckpointStore(backend)
        engine = AsyncCheckpointEngine(store, num_writers=1, queue_depth=4)
        model = MLP(6, [8], 3, rng=Rng(0))
        optimizer = Adam(model, lr=1e-2)
        want = model.state_dict()
        try:
            engine.save_full(0, model.state_dict(), optimizer.state_dict())
            assert backend.entered.acquire(timeout=WAIT)  # the writer is busy
            queued = engine.save_full(1, model.state_dict(),
                                      optimizer.state_dict())
            for _, param in model.named_parameters():
                param.data += 1.0                         # training moves on
            backend.gate.set()
            engine.finalize()
        finally:
            backend.gate.set()
            engine.abort()
        loaded, _, step = store.load_full(queued.wait(0))
        assert step == 1
        assert_states_equal(loaded, want)

    def test_slot_arrays_are_recycled(self, rng):
        """Nothing stays resident between fulls: once a full committed, the
        engine (an idle writer included) holds no reference to its arrays."""
        engine = AsyncCheckpointEngine(CheckpointStore(InMemoryBackend()),
                                       num_writers=2, queue_depth=4)
        try:
            model, optim = model_state(rng), optimizer_state(rng)
            refs = [weakref.ref(array) for array in model.values()]
            refs.append(weakref.ref(optim["slots"]["w"]["m"]))
            engine.save_full(0, model, optim)
            del model, optim
            engine.drain()
            assert wait_until(lambda: all(ref() is None for ref in refs))
        finally:
            engine.finalize()

    def test_exhausted_slots_stall_until_release(self, rng):
        """Outstanding fulls are bounded by ``queue_depth``: with one full
        in flight a second one waits in admission until the first commits."""
        backend = GateBackend()
        engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                       num_writers=1, queue_depth=1)
        engine.save_full(0, model_state(rng), optimizer_state(rng))
        assert backend.entered.acquire(timeout=WAIT)
        submitted = threading.Event()

        def second():
            engine.save_full(1, model_state(Rng(1)), optimizer_state(Rng(1)))
            submitted.set()

        thread = threading.Thread(target=second)
        thread.start()
        assert wait_until(lambda: engine.backpressure_stalls == 1)
        assert not submitted.is_set()
        backend.gate.set()
        assert submitted.wait(WAIT)
        thread.join(timeout=WAIT)
        engine.finalize()
        stats = engine.stats()
        assert stats["committed"] == 2
        assert stats["high_watermark"] == 1
        assert stats["backpressure_time_s"] > 0.0
        # No slot exists; the benchmark's layer table tells thread-engine
        # stats apart by this key, so it stays, at 0.
        assert stats["snapshot_slots"] == 0
