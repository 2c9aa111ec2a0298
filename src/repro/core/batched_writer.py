"""Batched gradient writing optimization (paper §IV-B, Fig. "Batched write").

Three steps per the paper:

1. **Offload** — the checkpointing process moves the compressed gradient
   from GPU to CPU memory and frees the GPU handle.  Here that is byte
   accounting of the CPU buffer (``cpu_buffer_bytes`` and its peak); the
   GPU memory that offloading saves, Fig. 12(b), is priced by
   ``harness.exp6.gpu_memory_model``.
2. **Batch** — buffered differentials accumulate (sparse union-add /
   gradient accumulation) until ``batch_size`` of them are present.
3. **Write** — the accumulated batch persists as a single ``C^B`` diff
   record covering its iteration range, in one I/O operation.
"""

from __future__ import annotations

from repro.compression.sparse import SparseGradient
from repro.storage.checkpoint_store import CheckpointStore, DiffCheckpointRecord


class BatchedGradientWriter:
    """Accumulate compressed gradients and write batched differentials.

    Parameters
    ----------
    store:
        Destination checkpoint store.
    batch_size:
        Number of per-iteration gradients merged per write (``BS``).
        ``1`` disables batching (every gradient is its own diff record).
    """

    def __init__(self, store: CheckpointStore, batch_size: int = 1):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.store = store
        self.batch_size = int(batch_size)
        self._pending: list[tuple[int, object]] = []  # (iteration, payload)
        self._last_step: int | None = None
        # Telemetry ----------------------------------------------------------
        self.writes = 0
        self.gradients_submitted = 0
        self.cpu_buffer_bytes = 0
        self.peak_cpu_buffer_bytes = 0

    # Submission ---------------------------------------------------------------
    def submit(self, iteration: int, payload) -> DiffCheckpointRecord | None:
        """Add one synchronized gradient; write if the batch is complete.

        Returns the written diff record when this submission completed a
        batch, else ``None``.
        """
        if self._last_step is not None and iteration <= self._last_step:
            raise ValueError(
                f"gradients must be submitted in iteration order; got "
                f"{iteration} after {self._last_step}"
            )
        self._last_step = iteration
        self.cpu_buffer_bytes += int(getattr(payload, "nbytes", 0))
        self.peak_cpu_buffer_bytes = max(self.peak_cpu_buffer_bytes, self.cpu_buffer_bytes)
        self._pending.append((iteration, payload))
        self.gradients_submitted += 1
        if len(self._pending) >= self.batch_size:
            return self._write_batch()
        return None

    def flush(self) -> DiffCheckpointRecord | None:
        """Write any partial batch (e.g. right before a full checkpoint)."""
        if not self._pending:
            return None
        return self._write_batch()

    def discard_pending(self) -> int:
        """Drop buffered gradients (a failure loses the in-flight batch).

        Returns how many gradients were lost — the ``b/2`` expectation in
        the wasted-time model.
        """
        lost = len(self._pending)
        self._release_buffers()
        self._pending.clear()
        return lost

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def pending_range(self) -> tuple[int, int] | None:
        if not self._pending:
            return None
        return self._pending[0][0], self._pending[-1][0]

    # Internals ------------------------------------------------------------------
    def _write_batch(self) -> DiffCheckpointRecord:
        iterations = [iteration for iteration, _ in self._pending]
        payloads = [payload for _, payload in self._pending]
        if len(payloads) > 1 and isinstance(payloads[0], SparseGradient):
            # Single k-way union-add pass, bit-identical to the sequential
            # fold it replaces (SparseGradient.merge_ordered).
            merged = SparseGradient.merge_ordered(payloads)
        else:
            merged = payloads[0]
            for payload in payloads[1:]:
                merged = merged.add(payload)
        record = self.store.save_diff(
            start=iterations[0], end=iterations[-1], payload=merged,
            count=len(iterations),
        )
        self._release_buffers()
        self._pending.clear()
        self.writes += 1
        return record

    def _release_buffers(self) -> None:
        released = sum(int(getattr(p, "nbytes", 0)) for _, p in self._pending)
        self.cpu_buffer_bytes = max(0, self.cpu_buffer_bytes - released)
