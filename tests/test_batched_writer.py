"""Tests for the batched gradient writer (§IV-B)."""

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.core.batched_writer import BatchedGradientWriter
from repro.storage import CheckpointStore, InMemoryBackend


def payload(rng, size=20):
    return TopKCompressor(0.25).compress({"w": rng.normal(size=(size,))})


@pytest.fixture
def writer_store():
    store = CheckpointStore(InMemoryBackend())
    return store


class TestBatchBoundaries:
    def test_batch_size_one_writes_every_gradient(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=1)
        for step in range(1, 4):
            record = writer.submit(step, payload(rng))
            assert record is not None
            assert (record.start, record.end) == (step, step)
        assert writer.writes == 3

    def test_batches_cover_contiguous_ranges(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=3)
        records = []
        for step in range(1, 10):
            record = writer.submit(step, payload(rng))
            if record:
                records.append(record)
        assert [(r.start, r.end, r.count) for r in records] == [
            (1, 3, 3), (4, 6, 3), (7, 9, 3),
        ]

    def test_batched_payload_is_accumulated_sum(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=2)
        a, b = payload(rng), payload(rng)
        writer.submit(1, a)
        record = writer.submit(2, b)
        merged = writer_store.load_diff(record)
        np.testing.assert_allclose(
            merged.decompress()["w"],
            a.decompress()["w"] + b.decompress()["w"],
            atol=1e-6,
        )

    def test_flush_writes_partial_batch(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=4)
        writer.submit(1, payload(rng))
        writer.submit(2, payload(rng))
        record = writer.flush()
        assert (record.start, record.end, record.count) == (1, 2, 2)
        assert writer.flush() is None  # nothing pending

    def test_discard_pending_loses_in_flight_batch(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=4)
        writer.submit(1, payload(rng))
        writer.submit(2, payload(rng))
        assert writer.discard_pending() == 2
        assert writer.pending_count == 0
        assert writer.writes == 0

    def test_out_of_order_submission_rejected(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=4)
        writer.submit(5, payload(rng))
        with pytest.raises(ValueError):
            writer.submit(5, payload(rng))
        with pytest.raises(ValueError):
            writer.submit(3, payload(rng))

    def test_invalid_batch_size(self, writer_store):
        with pytest.raises(ValueError):
            BatchedGradientWriter(writer_store, batch_size=0)

    def test_pending_range(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=10)
        assert writer.pending_range is None
        writer.submit(4, payload(rng))
        writer.submit(7, payload(rng))
        assert writer.pending_range == (4, 7)


class TestMemoryAccounting:
    """Offloading (§IV-B) as byte accounting: ``cpu_buffer_bytes`` holds
    the pending batch, peaks at a full batch, and is released when the
    batch is written or lost."""

    def test_offload_moves_bytes_to_cpu(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=3)
        item = payload(rng)
        writer.submit(1, item)
        assert writer.cpu_buffer_bytes == item.nbytes

    def test_no_offload_holds_gpu_memory(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=3)
        items = [payload(rng) for _ in range(2)]
        for step, item in enumerate(items, start=1):
            writer.submit(step, item)
        assert writer.cpu_buffer_bytes == sum(i.nbytes for i in items)
        assert writer.peak_cpu_buffer_bytes == writer.cpu_buffer_bytes

    def test_peaks_recorded_and_released_after_write(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=2)
        items = [payload(rng) for _ in range(4)]
        for step, item in enumerate(items, start=1):
            writer.submit(step, item)
        # After two complete batches, everything was written and released.
        assert writer.cpu_buffer_bytes == 0
        assert writer.peak_cpu_buffer_bytes == max(
            items[0].nbytes + items[1].nbytes, items[2].nbytes + items[3].nbytes)

    def test_offload_ablation_peak_comparison(self, writer_store, rng):
        """A flushed partial batch and a lost one both release the buffer;
        the peak keeps the largest batch held."""
        writer = BatchedGradientWriter(writer_store, batch_size=5)
        items = [payload(rng) for _ in range(3)]
        for step, item in enumerate(items[:2], start=1):
            writer.submit(step, item)
        writer.flush()
        assert writer.cpu_buffer_bytes == 0
        writer.submit(3, items[2])
        assert writer.discard_pending() == 1
        assert writer.cpu_buffer_bytes == 0
        assert writer.peak_cpu_buffer_bytes == items[0].nbytes + items[1].nbytes


class TestStorageIntegration:
    def test_writes_fewer_objects_than_gradients(self, writer_store, rng):
        writer = BatchedGradientWriter(writer_store, batch_size=5)
        for step in range(1, 21):
            writer.submit(step, payload(rng))
        assert writer.writes == 4
        assert writer.gradients_submitted == 20
        assert len(writer_store.diffs()) == 4

    def test_batched_bytes_sublinear(self, writer_store, rng):
        """Union accumulation: a batch of k gradients is smaller than k
        separate payloads (overlapping indices merge)."""
        unbatched = CheckpointStore(InMemoryBackend())
        w1 = BatchedGradientWriter(unbatched, batch_size=1)
        batched_store = CheckpointStore(InMemoryBackend())
        w5 = BatchedGradientWriter(batched_store, batch_size=5)
        for step in range(1, 6):
            item = payload(rng, size=40)
            w1.submit(step, item)
            w5.submit(step, item)
        assert (batched_store.storage_bytes()["diff"]
                < unbatched.storage_bytes()["diff"])
