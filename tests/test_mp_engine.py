"""Tests for the shared-memory multi-process persistence engine (PR 8).

Engine construction spawns real worker processes (~1 s each on a small
box), so tests share engines where the semantics allow and keep worker
counts low.  Process-level kill/stop drills live at the bottom; the
SIGKILL drill is also part of the chaos CI matrix.
"""

from __future__ import annotations

import functools
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.core import BatchedGradientWriter
from repro.core.recovery import parallel_recover, serial_recover
from repro.optim import SGD
from repro.storage import (
    CheckpointStore,
    DrainTimeout,
    InMemoryBackend,
    LocalDiskBackend,
    MultiprocessCheckpointEngine,
    ShardedCheckpointStore,
    ShmRing,
    WorkerCrashed,
)
from repro.utils.rng import Rng
from tests import helpers
from tests.helpers import assert_states_equal, fan_out


fresh_model_opt = functools.partial(helpers.fresh_model_opt, SGD)


def make_payload(model, rng, step):
    compressor = TopKCompressor(0.5)
    return compressor.compress({
        name: rng.child("g", step, name).normal(size=p.shape)
        for name, p in model.named_parameters()
    })


def make_engine(tmp_path, codec=None, **kwargs):
    store = CheckpointStore(LocalDiskBackend(str(tmp_path)), codec=codec)
    kwargs.setdefault("num_workers", 1)
    kwargs.setdefault("queue_depth", 8)
    kwargs.setdefault("ring_bytes", 4 << 20)
    return store, MultiprocessCheckpointEngine(store, **kwargs)


class TestConstruction:
    def test_fork_rejected(self, tmp_path):
        store = CheckpointStore(LocalDiskBackend(str(tmp_path)))
        with pytest.raises(ValueError, match="fork"):
            MultiprocessCheckpointEngine(store, start_method="fork")

    def test_process_unsafe_backend_rejected(self):
        store = CheckpointStore(InMemoryBackend())
        with pytest.raises(ValueError, match="AsyncCheckpointEngine"):
            MultiprocessCheckpointEngine(store)


class TestEndToEnd:
    def test_full_chain_commits_and_recovers_bit_exact(self, tmp_path):
        """API parity with the thread engine: submit fulls+diffs, drain,
        reopen, recover — recovered state must be bit-exact."""
        store, engine = make_engine(tmp_path, codec="lossless",
                                    num_workers=2)
        model, opt = fresh_model_opt()
        rng = Rng(42)
        try:
            record = engine.save_full(0, model.state_dict(),
                                      opt.state_dict()).wait(timeout=60)
            assert record is not None and record.step == 0
            pendings = []
            for step in range(1, 7):
                payload = make_payload(model, rng, step)
                opt.step_with(payload.decompress())
                pendings.append(engine.save_diff(step, step, payload))
            engine.drain()
            for pending in pendings:
                assert pending.done and pending.error is None
            stats = engine.stats()
            assert stats["committed"] == 7
            assert stats["outstanding"] == 0
            assert stats["high_watermark"] <= engine.queue_depth
        finally:
            engine.finalize()

        reopened = CheckpointStore(LocalDiskBackend(str(tmp_path)),
                                   codec="lossless")
        assert [r.start for r in reopened.diffs()] == list(range(1, 7))
        assert not reopened.verify(deep=True).get("corrupt")
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(reopened, target_model, target_opt)
        assert result.step == 6
        assert_states_equal(target_model.state_dict(), model.state_dict())

    def test_submit_after_finalize_raises(self, tmp_path):
        store, engine = make_engine(tmp_path)
        model, opt = fresh_model_opt()
        engine.save_full(0, model.state_dict(), opt.state_dict())
        engine.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            engine.save_full(1, model.state_dict(), opt.state_dict())

    def test_fail_stop_post_mortem_stays_in_the_test_dir(self, tmp_path):
        """A fail-stop's flight dump, named in the error, lands under the
        test's own ``tmp_path`` (the suite points ``REPRO_FLIGHT_DIR``
        there), not in the system tmpdir."""
        store, engine = make_engine(tmp_path)
        model, opt = fresh_model_opt()
        rng = Rng(1)
        try:
            engine.save_diff(1, 2, make_payload(model, rng, 1),
                             count=2).wait(timeout=60)
            with pytest.raises(ValueError, match="overlaps"):
                engine.save_diff(2, 3, make_payload(model, rng, 2),
                                 count=2).wait(timeout=60)
            with pytest.raises(RuntimeError) as info:
                engine.save_diff(4, 4, make_payload(model, rng, 3))
        finally:
            engine.abort()
        dump = engine._failure_dump
        assert dump in str(info.value) and os.path.isfile(dump)
        assert os.path.commonpath([dump, str(tmp_path)]) == str(tmp_path)

    def test_overlapping_diff_fails_stop(self, tmp_path):
        """A registration conflict (diff overlap) surfaces on the pending
        write and latches the engine fail-stop, like the thread engine."""
        store, engine = make_engine(tmp_path)
        model, opt = fresh_model_opt()
        rng = Rng(1)
        try:
            engine.save_diff(1, 2, make_payload(model, rng, 1),
                             count=2).wait(timeout=60)
            bad = engine.save_diff(2, 3, make_payload(model, rng, 2),
                                   count=2)
            with pytest.raises(ValueError, match="overlaps"):
                bad.wait(timeout=60)
            with pytest.raises(RuntimeError):
                engine.save_diff(4, 4, make_payload(model, rng, 3))
        finally:
            engine.abort()
        # The conflicting record never reached the manifest.
        reopened = CheckpointStore(LocalDiskBackend(str(tmp_path)))
        assert [(r.start, r.end) for r in reopened.diffs()] == [(1, 2)]

    def test_oversized_record_rejected_engine_survives(self, tmp_path):
        store, engine = make_engine(tmp_path, ring_bytes=1 << 20)
        model, opt = fresh_model_opt()
        rng = Rng(2)
        big = {"w": Rng(3).normal(size=(300_000,))}  # ~2.4 MB > 1 MB ring
        try:
            with pytest.raises(ValueError, match="ring"):
                engine.save_full(0, big, opt.state_dict())
            # The engine is not poisoned: the next record commits.
            engine.save_diff(1, 1, make_payload(model, rng, 1)) \
                  .wait(timeout=60)
            assert engine.stats()["aborted_writes"] == 1
        finally:
            engine.finalize()


    def test_submit_error_surfaces_at_submit(self, tmp_path):
        """Out-of-order submission through the batched writer is a
        parent-side typed error at the submit call — not a deferred
        worker crash discovered at finalize."""
        store, engine = make_engine(tmp_path)
        writer = BatchedGradientWriter(engine, batch_size=1)
        model, _ = fresh_model_opt()
        payload = make_payload(model, Rng(4), 1)
        try:
            writer.submit(5, payload)
            with pytest.raises(ValueError, match="iteration order"):
                writer.submit(3, payload)
        finally:
            engine.finalize()
        assert [(r.start, r.end) for r in store.diffs()] == [(5, 5)]


class TestWorkerFailure:
    def test_dead_worker_pool_raises_instead_of_hanging(self, tmp_path):
        """A SIGKILLed pool must not leave the submitter blocked on a full
        queue forever: the ``is_alive()`` watchdog latches a typed failure
        and its ``notify_all`` wakes the (unbounded) backpressure wait."""
        store, engine = make_engine(tmp_path)
        writer = BatchedGradientWriter(engine, batch_size=1)
        model, _ = fresh_model_opt()
        payload = make_payload(model, Rng(5), 1)
        try:
            for worker in engine._workers:
                os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(RuntimeError):
                # The watchdog needs one health-check cycle to see the
                # corpse; keep submitting until it trips (bounded).
                deadline = time.monotonic() + 30.0
                step = 1
                while time.monotonic() < deadline:
                    writer.submit(step, payload)
                    step += 1
                    time.sleep(0.05)
        finally:
            engine.abort()

    def test_sigstop_worker_drain_times_out_typed(self, tmp_path):
        """A stuck (not dead) worker pool: drain raises the typed
        DrainTimeout instead of hanging; abort still cleans up."""
        store, engine = make_engine(tmp_path)
        model, opt = fresh_model_opt()
        worker_pid = engine._workers[0].pid
        os.kill(worker_pid, signal.SIGSTOP)
        try:
            engine.save_full(0, model.state_dict(), opt.state_dict())
            with pytest.raises(DrainTimeout) as excinfo:
                engine.drain(timeout=0.5)
            assert excinfo.value.outstanding == 1
            assert excinfo.value.dropped == 0
        finally:
            os.kill(worker_pid, signal.SIGCONT)
            engine.abort()

    @pytest.mark.chaos
    def test_sigkill_worker_surfaces_typed_and_store_stays_clean(
            self, tmp_path):
        """SIGKILL a persist worker mid-stream: the parent must surface a
        typed WorkerCrashed, no torn blob may pass deep verification, and
        recovery succeeds on the committed prefix."""
        store, engine = make_engine(tmp_path, codec="lossless",
                                    queue_depth=16)
        model, opt = fresh_model_opt()
        rng = Rng(7)
        states = {0: (model.state_dict(), opt.state_dict())}
        # The base full must be durable before the drill so recovery has
        # a committed prefix to land on (the kill targets the diff stream).
        engine.save_full(0, *states[0]).wait(timeout=60)
        victim = engine._workers[0].pid
        error = None
        try:
            for step in range(1, 13):
                payload = make_payload(model, rng, step)
                opt.step_with(payload.decompress())
                states[step] = (model.state_dict(), opt.state_dict())
                engine.save_diff(step, step, payload)
                if step == 4:
                    os.kill(victim, signal.SIGKILL)
            engine.finalize(timeout=60)
        except (WorkerCrashed, RuntimeError) as caught:
            error = caught
        finally:
            engine.abort()
        assert error is not None, "worker SIGKILL must surface an error"
        assert engine.stats()["failure"] is not None

        # Whatever committed before the crash is durable and verifiable.
        reopened = CheckpointStore(LocalDiskBackend(str(tmp_path)),
                                   codec="lossless")
        assert not reopened.verify(deep=True).get("corrupt")
        diffs = reopened.diffs()
        committed = diffs[-1].end if diffs else 0
        target_model, target_opt = fresh_model_opt(seed=9)
        result = serial_recover(reopened, target_model, target_opt)
        assert result.step == committed
        assert_states_equal(target_model.state_dict(),
                            states[committed][0])


class TestCrossProcessRecovery:
    """Recovery has one fan-out, the thread pool (the spawned-worker fold
    is gone): result, counts, hole truncation and quarantine must not
    depend on whether the fold runs inline or on the pool.  Subsumed by
    ``tests/test_recovery.py``; kept under the ids the floor pins."""

    @staticmethod
    def open_store(root, shards):
        backend = LocalDiskBackend(str(root))
        if shards == 1:
            return CheckpointStore(backend, codec="lossless")
        return ShardedCheckpointStore(backend, shards, codec="lossless")

    def test_process_recovery_bit_identical_to_threaded(self, tmp_path):
        """Inline fold and pooled fold: same roots, same counts, for the
        plain store and per shard chain alike."""
        for shards in (1, 2):
            root = tmp_path / f"s{shards}"
            store = self.open_store(root, shards)
            model, opt = fresh_model_opt()
            store.save_full(0, model.state_dict(), opt.state_dict())
            rng = Rng(11)
            for step in range(1, 9):
                payload = make_payload(model, rng, step)
                opt.step_with(payload.decompress())
                store.save_diff(step, step, payload)
            inline_model, inline_opt = fresh_model_opt(seed=9)
            with fan_out(1):
                inline = parallel_recover(self.open_store(root, shards),
                                          inline_model, inline_opt)
            pooled_model, pooled_opt = fresh_model_opt(seed=10)
            with fan_out(2):
                pooled = parallel_recover(self.open_store(root, shards),
                                          pooled_model, pooled_opt)
            assert_states_equal(pooled_model.state_dict(),
                                inline_model.state_dict())
            assert pooled_opt.step_count == inline_opt.step_count
            assert (pooled.step, pooled.merge_ops, pooled.merge_depth) \
                == (inline.step, inline.merge_ops, inline.merge_depth) \
                == (8, 7 * shards, 3)
            assert pooled.apply_ops == 1
            assert inline.workers == 1
            assert pooled.workers == min(2, len(os.sched_getaffinity(0)))

    def test_process_recovery_truncates_like_threaded(self, tmp_path):
        """A hole in a pooled segment: the segment hands on the stack it
        got to, every shard is cut there and the one blob quarantined —
        same state, counts and quarantine as the inline fold."""
        outcomes = []
        for workers in (1, 2):
            root = tmp_path / f"w{workers}"
            store = self.open_store(root, 2)
            model, opt = fresh_model_opt()
            store.save_full(0, model.state_dict(), opt.state_dict())
            rng = Rng(17)
            for step in range(1, 10):
                store.save_diff(step, step, make_payload(model, rng, step))
            sub, record = store.parts(store.diffs_after(0)[6])[1]
            sub.backend.write(record.key, b"\x00" * 16)
            target_model, target_opt = fresh_model_opt(seed=9)
            with fan_out(workers):
                result = parallel_recover(store, target_model, target_opt)
            assert (result.step, result.merge_ops, result.merge_depth,
                    result.corrupt_diffs_skipped) == (6, 10, 3, 1)
            assert store.quarantined == ["shard-0001/" + record.key]
            outcomes.append(target_model.state_dict())
        assert_states_equal(*outcomes)

    def test_process_unsafe_backend_falls_back(self, rng):
        """A backend without ``thread_safe_reads`` is never read from the
        pool: blobs are read on the calling thread in chain order (so
        seeded fault draws replay) and only the fold fans out."""
        class OrderedReads(InMemoryBackend):
            thread_safe_reads = False

            def __init__(self):
                super().__init__()
                self.readers = []

            def read(self, key):
                self.readers.append(threading.get_ident())
                return super().read(key)

        backend = OrderedReads()
        store = CheckpointStore(backend)
        model, opt = fresh_model_opt()
        store.save_full(0, model.state_dict(), opt.state_dict())
        local = Rng(13)
        for step in range(1, 7):
            payload = make_payload(model, local, step)
            opt.step_with(payload.decompress())
            store.save_diff(step, step, payload)
        backend.readers.clear()
        target_model, target_opt = fresh_model_opt(seed=9)
        with fan_out(4):
            result = parallel_recover(store, target_model, target_opt)
        assert result.step == 6
        assert set(backend.readers) == {threading.get_ident()}
        assert_states_equal(target_model.state_dict(), model.state_dict(),
                            exact=False, atol=1e-5)


class TestShmRing:
    def test_wraparound_and_out_of_order_free(self):
        ring = ShmRing(1024)
        try:
            tokens = [ring.alloc(256)[0] for _ in range(3)]
            # Free the middle region first: space reclaims only when the
            # FIFO head frees, then the released set drains in order.
            ring.free(tokens[1])
            assert ring.stats()["ring_used"] == 768
            ring.free(tokens[0])
            assert ring.stats()["ring_used"] == 256
            # Wrap: the next alloc reuses the freed front of the segment.
            token4, offset4 = ring.alloc(512)
            assert offset4 == 0
            ring.free(tokens[2])
            ring.free(token4)
            assert ring.stats()["ring_used"] == 0
        finally:
            ring.destroy()

    def test_oversize_alloc_rejected(self):
        ring = ShmRing(1024)
        try:
            with pytest.raises(ValueError, match="ring"):
                ring.alloc(2048)
        finally:
            ring.destroy()

    def test_free_is_idempotent(self):
        ring = ShmRing(1024)
        try:
            token, _ = ring.alloc(128)
            ring.free(token)
            ring.free(token)
            assert ring.stats()["ring_used"] == 0
        finally:
            ring.destroy()
