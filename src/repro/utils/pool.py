"""The one thread pool a recovery publishes (ARCHITECTURE.md §3); nothing
publishes it around training, which stays on the trainer's thread."""

import os
from contextlib import contextmanager
from contextvars import ContextVar

#: The published pool, or ``None``: run inline.  A pool thread never sees
#: it (a ``ThreadPoolExecutor`` worker does not inherit the submitter's
#: context), so work on the pool never submits to it: no deadlock.
POOL: ContextVar = ContextVar("worker_pool", default=None)


@contextmanager
def published(pool):
    """Publish ``pool`` (``None``: none) in :data:`POOL` for the block."""
    token = POOL.set(pool)
    try:
        yield
    finally:
        POOL.reset(token)


def usable_cpus() -> int:
    """The affinity mask, not the host count: a taskset or cgroup pin to
    one core must not start a pool on it."""
    return len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
