"""Tests for the reusing queue: FIFO, ordering, close semantics, and the
handoff to the persist engine.

The queue drains inline on the training thread; the bounded, blocking
stage between training and storage is the persist engine's admission.
``TestThreading`` and the ids named after ``get``/``maxsize`` predate
that and now pin the engine path (``FLOOR_DROPPABLE.md`` lists their new
names).
"""

import threading
import time

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.core.reusing_queue import QueueClosed, ReusingQueue
from repro.storage import (
    AsyncCheckpointEngine,
    CheckpointStore,
    InMemoryBackend,
)
from tests.helpers import GateBackend, wait_until

WAIT = 10.0


def payload(rng, size=10):
    return TopKCompressor(0.5).compress({"w": rng.normal(size=(size,))})


class SlowBackend(InMemoryBackend):
    """Blob writes take ``delay`` seconds (manifests do not)."""

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay

    def _write(self, key, data):
        if "manifest" not in key:
            time.sleep(self.delay)
        super()._write(key, data)


class TestFifoOrdering:
    def test_items_dequeue_in_order(self, rng):
        queue = ReusingQueue()
        items = [payload(rng) for _ in range(5)]
        for index, item in enumerate(items):
            queue.put(index, item)
        drained = queue.drain()
        assert [iteration for iteration, _ in drained] == list(range(5))
        for (_, item), original in zip(drained, items):
            assert item is original  # zero-copy: the same object

    def test_non_monotonic_put_rejected(self, rng):
        queue = ReusingQueue()
        queue.put(3, payload(rng))
        with pytest.raises(ValueError):
            queue.put(3, payload(rng))
        with pytest.raises(ValueError):
            queue.put(1, payload(rng))

    def test_drain_returns_everything(self, rng):
        queue = ReusingQueue()
        for index in range(4):
            queue.put(index, payload(rng))
        drained = queue.drain()
        assert [it for it, _ in drained] == [0, 1, 2, 3]
        assert len(queue) == 0
        assert queue.drain() == []
        assert queue.put_count == 4


class TestCloseSemantics:
    def test_get_raises_after_close_and_drain(self, rng):
        """Items put before ``close`` still drain; nothing enters after."""
        queue = ReusingQueue()
        queue.put(0, payload(rng))
        queue.close()
        assert [it for it, _ in queue.drain()] == [0]
        assert queue.drain() == []
        with pytest.raises(QueueClosed):
            queue.put(1, payload(rng))

    def test_put_after_close_rejected(self, rng):
        queue = ReusingQueue()
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put(0, payload(rng))

    def test_get_timeout(self):
        """The consumer never blocks: draining an empty queue returns at
        once, closed or not."""
        queue = ReusingQueue()
        started = time.perf_counter()
        assert queue.drain() == []
        queue.close()
        assert queue.drain() == []
        assert time.perf_counter() - started < 1.0


class TestZeroCopyAndTelemetry:
    def test_zero_copy_passes_same_object(self, rng):
        queue = ReusingQueue(copy_mode=False)
        item = payload(rng)
        queue.put(0, item)
        [(_, out)] = queue.drain()
        assert out is item
        assert queue.copied_bytes == 0

    def test_copy_mode_copies_and_counts_bytes(self, rng):
        queue = ReusingQueue(copy_mode=True)
        item = payload(rng)
        queue.put(0, item)
        [(_, out)] = queue.drain()
        assert out is not item
        np.testing.assert_array_equal(out.decompress()["w"],
                                      item.decompress()["w"])
        assert queue.copied_bytes == item.nbytes

    def test_max_depth_tracked(self, rng):
        queue = ReusingQueue()
        for index in range(3):
            queue.put(index, payload(rng))
        queue.drain()
        queue.put(3, payload(rng))
        assert queue.max_depth == 3
        assert queue.put_count == 4

    def test_invalid_maxsize(self):
        """The queue has no bound to configure; the engine's bound is
        validated where it lives."""
        with pytest.raises(TypeError):
            ReusingQueue(maxsize=4)
        with pytest.raises(ValueError):
            AsyncCheckpointEngine(CheckpointStore(InMemoryBackend()),
                                  queue_depth=0)


class TestThreading:
    def test_producer_consumer_preserves_order(self, rng):
        """Training thread → queue → writer threads: every drained payload
        commits, in iteration order, through three concurrent writers."""
        queue = ReusingQueue()
        store = CheckpointStore(InMemoryBackend())
        engine = AsyncCheckpointEngine(store, num_writers=3, queue_depth=4)
        try:
            for index in range(1, 51):
                queue.put(index, payload(rng))
                if index % 7 == 0:
                    for step, item in queue.drain():
                        engine.save_diff(step, step, item)
            queue.close()
            for step, item in queue.drain():
                engine.save_diff(step, step, item)
        finally:
            engine.finalize()
        assert [r.start for r in store.diffs_after(0)] == list(range(1, 51))

    def test_bounded_queue_backpressure(self, rng):
        """At ``queue_depth`` the producer blocks until a record commits."""
        engine = AsyncCheckpointEngine(
            CheckpointStore(SlowBackend(0.05)), num_writers=1, queue_depth=2)
        try:
            engine.save_diff(1, 1, payload(rng))
            engine.save_diff(2, 2, payload(rng))
            start = time.perf_counter()
            engine.save_diff(3, 3, payload(rng))  # waits for the first commit
            elapsed = time.perf_counter() - start
        finally:
            engine.finalize()
        assert elapsed >= 0.02
        assert engine.stats()["backpressure_stalls"] == 1

    def test_backpressure_releases_exactly_on_get(self, rng):
        """Event-based: a producer blocked at depth stays blocked until —
        and unblocks promptly after — a commit frees a slot."""
        backend = GateBackend()
        engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                       num_writers=1, queue_depth=1)
        engine.save_diff(1, 1, payload(rng))
        assert backend.entered.acquire(timeout=WAIT)
        unblocked = threading.Event()

        def producer():
            engine.save_diff(2, 2, payload(rng))
            unblocked.set()

        thread = threading.Thread(target=producer)
        thread.start()
        assert not unblocked.wait(0.02)  # still blocked at depth
        backend.gate.set()               # the commit frees the slot
        assert unblocked.wait(WAIT)
        thread.join(timeout=WAIT)
        engine.finalize()
        assert engine.stats()["committed"] == 2

    def test_close_wakes_blocked_producer(self, rng):
        """``close`` wakes a producer blocked at depth, which raises."""
        backend = GateBackend()
        engine = AsyncCheckpointEngine(CheckpointStore(backend),
                                       num_writers=1, queue_depth=1)

        def close_once_blocked():
            wait_until(lambda: engine.backpressure_stalls == 1)
            engine.close()

        try:
            engine.save_diff(1, 1, payload(rng))
            assert backend.entered.acquire(timeout=WAIT)
            closer = threading.Thread(target=close_once_blocked)
            closer.start()
            with pytest.raises(RuntimeError, match="finalized"):
                engine.save_diff(2, 2, payload(rng))
            closer.join(timeout=WAIT)
        finally:
            backend.gate.set()
            engine.finalize()
