"""The Reusing Queue (paper §IV-A).

FIFO handoff of synchronized compressed gradients from the training
side to the checkpointing side.  The paper implements it as
``torch.multiprocessing.Queue`` over CUDA IPC: only a *memory handle*
crosses the process boundary — zero copy.  Here the queue drains inline
on the training thread, so passing the payload object by reference is
literally zero-copy; the queue enforces the two properties the design
requires:

1. **Sequential order** — gradients dequeue in exactly the iteration
   order they were enqueued (checked, since differentials must replay in
   order per Eq. (2));
2. **Low transfer overhead** — by-reference transfer by default, with a
   ``copy_mode`` switch that deep-copies payloads instead, emulating a
   copy-based IPC path for the zero-copy ablation (the byte counter shows
   what a copying queue would have moved).
"""

from __future__ import annotations

import threading
from collections import deque


class QueueClosed(Exception):
    """Raised by :meth:`ReusingQueue.put` after :meth:`ReusingQueue.close`."""


class ReusingQueue:
    """Unbounded FIFO queue carrying ``(iteration, payload)`` items.

    The LowDiff checkpointer drains it inline after every iteration, so
    depth stays at one iteration's items; persistence leaves the training
    thread through the persist engine, never through this queue.
    """

    def __init__(self, copy_mode: bool = False):
        self.copy_mode = bool(copy_mode)
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._closed = False
        self._last_put_iteration: int | None = None
        # Telemetry
        self.put_count = 0
        self.max_depth = 0
        self.copied_bytes = 0

    def put(self, iteration: int, payload) -> None:
        """Enqueue the synchronized gradient of ``iteration``.

        Raises if iterations arrive out of order — that would corrupt the
        differential series — or once the queue is closed.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("put on closed ReusingQueue")
            if (self._last_put_iteration is not None
                    and iteration <= self._last_put_iteration):
                raise ValueError(
                    f"non-monotonic enqueue: iteration {iteration} after "
                    f"{self._last_put_iteration}"
                )
            if self.copy_mode:
                nbytes = getattr(payload, "nbytes", 0)
                self.copied_bytes += int(nbytes)
                payload = _deep_copy_payload(payload)
            self._items.append((iteration, payload))
            self._last_put_iteration = iteration
            self.put_count += 1
            self.max_depth = max(self.max_depth, len(self._items))

    def drain(self) -> list:
        """Dequeue everything currently enqueued, oldest first."""
        with self._lock:
            out = list(self._items)
            self._items.clear()
        return out

    def close(self) -> None:
        """Signal end-of-stream; pending items remain drainable."""
        with self._lock:
            self._closed = True

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


def _deep_copy_payload(payload):
    """Copy a payload the way a non-zero-copy IPC queue would."""
    copier = getattr(payload, "copy", None)
    if callable(copier):
        return copier()
    decompress = getattr(payload, "decompress", None)
    if callable(decompress):  # dense-ish payloads reconstruct from tensors
        from repro.compression.base import DenseGradient
        return DenseGradient(decompress())
    raise TypeError(f"cannot copy payload of type {type(payload).__name__}")
