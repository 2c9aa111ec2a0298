"""Hypothesis property suites over the stateful core components.

Random operation sequences against the reusing queue, the batched writer,
and the checkpoint store's diff-chain logic — the components whose
invariants (FIFO, contiguous coverage, chain contiguity) recovery
correctness rests on.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compression import SparseGradient, TopKCompressor
from repro.core.batched_writer import BatchedGradientWriter
from repro.core.reusing_queue import ReusingQueue
from repro.storage import CheckpointStore, InMemoryBackend
from repro.utils.rng import Rng


def tiny_payload(seed: int) -> SparseGradient:
    return TopKCompressor(0.5).compress(
        {"w": Rng(seed).normal(size=(8,))})


class TestQueueProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_fifo_under_interleaved_put_get(self, operations):
        """Any interleaving of puts and drains dequeues iterations in
        exactly ascending order, each once."""
        queue = ReusingQueue()
        next_put = 0
        received = []
        for is_put in operations:
            if is_put:
                queue.put(next_put, tiny_payload(next_put))
                next_put += 1
            else:
                received.extend(it for it, _ in queue.drain())
        received.extend(it for it, _ in queue.drain())
        assert received == list(range(next_put))

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_depth_accounting(self, burst_sizes):
        """max_depth equals the largest burst the consumer left pending."""
        queue = ReusingQueue()
        iteration = 0
        for burst in burst_sizes:
            for _ in range(burst):
                queue.put(iteration, tiny_payload(iteration))
                iteration += 1
            assert len(queue.drain()) == burst
        assert queue.max_depth == max(burst_sizes)
        assert queue.put_count == iteration
        assert len(queue) == 0


class TestBatchedWriterProperties:
    @given(st.integers(1, 7), st.integers(1, 40))
    @settings(max_examples=60)
    def test_records_cover_submitted_range_contiguously(self, batch_size,
                                                        num_gradients):
        """For any batch size and gradient count, the written records plus
        the final flush cover steps 1..N contiguously without overlap."""
        store = CheckpointStore(InMemoryBackend())
        writer = BatchedGradientWriter(store, batch_size=batch_size)
        for step in range(1, num_gradients + 1):
            writer.submit(step, tiny_payload(step))
        writer.flush()
        records = store.diffs()
        assert sum(r.count for r in records) == num_gradients
        expected_start = 1
        for record in records:
            assert record.start == expected_start
            assert record.count == record.end - record.start + 1
            expected_start = record.end + 1
        assert expected_start == num_gradients + 1

    @given(st.integers(1, 6), st.integers(1, 25))
    @settings(max_examples=40)
    def test_merged_payload_equals_sum(self, batch_size, num_gradients):
        """Every written record decompresses to the exact sum of its
        constituent gradients."""
        store = CheckpointStore(InMemoryBackend())
        writer = BatchedGradientWriter(store, batch_size=batch_size)
        payloads = {}
        for step in range(1, num_gradients + 1):
            payload = tiny_payload(step)
            payloads[step] = payload.decompress()["w"]
            writer.submit(step, payload)
        writer.flush()
        for record in store.diffs():
            merged = store.load_diff(record).decompress()["w"]
            expected = sum(payloads[s] for s in range(record.start,
                                                      record.end + 1))
            np.testing.assert_allclose(merged, expected, atol=1e-5)


class TestStoreChainProperties:
    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=15, unique=True),
        st.integers(0, 30),
    )
    @settings(max_examples=60)
    def test_diffs_after_is_always_contiguous(self, diff_steps, from_step):
        """Whatever subset of per-step diffs exists, ``diffs_after`` never
        returns a chain with a gap."""
        store = CheckpointStore(InMemoryBackend())
        for step in sorted(diff_steps):
            store.save_diff(step, step, tiny_payload(step))
        chain = store.diffs_after(from_step)
        expected_next = from_step + 1
        for record in chain:
            assert record.start == expected_next
            expected_next = record.end + 1
        # Maximality: the chain stops only because the next step is absent.
        assert expected_next not in set(diff_steps)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=10, unique=True))
    @settings(max_examples=40)
    def test_latest_full_is_max(self, steps):
        store = CheckpointStore(InMemoryBackend())
        model = {"w": np.zeros(4)}
        optimizer = {"type": "SGD", "lr": 0.1, "step_count": 0, "slots": {}}
        for step in steps:
            store.save_full(step, model, optimizer)
        assert store.latest_full().step == max(steps)

    @given(st.integers(1, 4), st.lists(st.integers(0, 40), min_size=2,
                                       max_size=8, unique=True))
    @settings(max_examples=40)
    def test_gc_never_breaks_latest_recovery(self, keep, full_steps):
        """After any GC, the chain from the latest full is intact."""
        store = CheckpointStore(InMemoryBackend())
        model = {"w": np.zeros(4)}
        optimizer = {"type": "SGD", "lr": 0.1, "step_count": 0, "slots": {}}
        last = max(full_steps)
        for step in sorted(full_steps):
            store.save_full(step, model, optimizer)
        for step in range(last + 1, last + 4):
            store.save_diff(step, step, tiny_payload(step))
        store.gc(keep_fulls=keep)
        assert store.latest_full().step == last
        chain = store.diffs_after(last)
        assert [r.start for r in chain] == [last + 1, last + 2, last + 3]
