"""Conformance matrix for the persist-engine core.

One suite over executor ∈ {thread, process} × S ∈ {1, 2} × codec ∈
{None, "lossless"}: whatever runs between admission and the commit
turnstile, and however many parts a record is split into, the contract of
:class:`repro.storage.persist_engine.PersistEngine` is the same.  Engines
are built the way ``LowDiffCheckpointer`` builds them
(``open_persist_engine``), so S=1 is the bare executor and S=2 the shard
group over it.

The process cells spawn real workers over a ``LocalDiskBackend`` and need
shared memory; deselect them with ``-m "not shm"`` on hosts without
``/dev/shm``.
"""

import functools
import os
import threading
import time

import pytest

from repro.compression import TopKCompressor
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.core.recovery import serial_recover
from repro.optim import SGD
from repro.storage import (
    CheckpointStore,
    DrainTimeout,
    InMemoryBackend,
    LocalDiskBackend,
    ShardedCheckpointStore,
    ShardedPersistGroup,
    WriteAborted,
    open_persist_engine,
)
from repro.utils.rng import Rng
from tests import helpers
from tests.helpers import (
    assert_optimizers_equal,
    assert_states_equal,
    make_mlp_trainer,
)
from tests.test_costs import check

WAIT = 60.0  # generous bound for any legitimate cross-thread/process wait
PROCESS = pytest.param("process", marks=pytest.mark.shm)


def matrix(fn):
    """executor × S × codec."""
    for name, values in (("codec", [None, "lossless"]), ("shards", [1, 2]),
                         ("executor", ["thread", PROCESS])):
        fn = pytest.mark.parametrize(name, values)(fn)
    return fn


class SlowBackend(InMemoryBackend):
    """Blob writes take ``delay`` seconds (manifests and layout do not)."""

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay

    def _write(self, key, data):
        if key.endswith(".ckpt"):
            time.sleep(self.delay)
        super()._write(key, data)


class SlowThenStuckBackend(InMemoryBackend):
    """Shard 0's blob writes take ``delay`` seconds; every other shard's
    block until ``gate`` is set."""

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay
        self.gate = threading.Event()

    def _write(self, key, data):
        if key.endswith(".ckpt"):
            if key.startswith("shard-0000/"):
                time.sleep(self.delay)
            elif not self.gate.wait(timeout=WAIT):  # pragma: no cover
                raise TimeoutError("test gate never opened")
        super()._write(key, data)


class RefusingShardBackend(InMemoryBackend):
    """Refuses every blob write under one shard's prefix."""

    def _write(self, key, data):
        if key.startswith("shard-0000/") and key.endswith(".ckpt"):
            raise OSError(f"injected backend failure on {key}")
        super()._write(key, data)


fresh_model_opt = functools.partial(helpers.fresh_model_opt, SGD)


def open_store(backend, shards, codec):
    if shards == 1:
        return CheckpointStore(backend, codec=codec)
    return ShardedCheckpointStore(backend, shards, codec=codec)


def open_cell(executor, shards, codec, root, slow=0.0, queue_depth=8):
    """``(backend, store, engine)`` of one matrix cell."""
    if executor == "process":
        backend = LocalDiskBackend(str(root))  # fsync is slow enough
    else:
        backend = SlowBackend(slow)
    store = open_store(backend, shards, codec)
    engine = open_persist_engine(store, persist_mode=executor,
                                 writer_threads=1, queue_depth=queue_depth,
                                 ring_mb=4.0)
    return backend, store, engine


def reopen(backend, shards, codec):
    """A fresh store on what is durably there (a new disk handle when the
    cell is on disk)."""
    if isinstance(backend, LocalDiskBackend):
        backend = LocalDiskBackend(backend.root)
    return open_store(backend, shards, codec)


def engines_of(engine):
    return getattr(engine, "engines", [engine])


def handles(pending):
    """The ``PendingWrite`` handles of one submission (one per part)."""
    return pending if isinstance(pending, list) else [pending]


class Stream:
    """A deterministic full + diff series and the live state after each
    step, submitted to any persist target."""

    def __init__(self, seed=42):
        self.model, self.opt = fresh_model_opt()
        self.rng = Rng(seed)
        self.compressor = TopKCompressor(0.5)
        self.states = {0: self.snapshot()}
        self.step = 0

    def snapshot(self):
        return self.model.state_dict(), self.opt.state_dict()

    def full(self, target):
        return target.save_full(self.step, *self.snapshot())

    def diff(self, target):
        self.step += 1
        payload = self.compressor.compress({
            name: self.rng.child("g", self.step, name).normal(size=p.shape)
            for name, p in self.model.named_parameters()
        })
        self.opt.step_with(payload.decompress())
        self.states[self.step] = self.snapshot()
        return target.save_diff(self.step, self.step, payload)


def spy_commits(store):
    """Log ``(part, full steps, diff ranges)`` at every commit point of
    every part store — a snapshot rewrite or a journal line, once it has
    landed; commits always run in this process."""
    log = []
    for index, sub in enumerate(store.part_stores):
        for name in ("_commit_manifest", "_append_journal"):
            def spied(*args, sub=sub, index=index,
                      original=getattr(sub, name)):
                original(*args)
                log.append((index, [r.step for r in sub._fulls],
                            [(r.start, r.end) for r in sub._diffs]))
            setattr(sub, name, spied)
    return log


def assert_recovers(store, stream, step):
    model, opt = fresh_model_opt(seed=9)
    result = serial_recover(store, model, opt)
    assert result.step == step
    want_model, want_opt = stream.states[step]
    assert_states_equal(model.state_dict(), want_model)
    assert_optimizers_equal(opt.state_dict(), want_opt)


@matrix
def test_commits_are_an_ordered_prefix_within_the_backpressure_bound(
        executor, shards, codec, tmp_path):
    """Under a slow backend and a shallow queue: every commit point (a
    snapshot for a full, a journal line for a diff) shows a prefix of the
    submitted sequence (so a diff never precedes its full), outstanding
    never exceeds ``queue_depth``, and what lands is bit-equal to the
    synchronous store."""
    depth = 2
    _, store, engine = open_cell(executor, shards, codec, tmp_path,
                                 slow=0.002, queue_depth=depth)
    log = spy_commits(store)
    sync_store = open_store(InMemoryBackend(), shards, codec)
    try:
        for target, stream in ((sync_store, Stream()), (engine, Stream())):
            pendings = [stream.full(target)]
            for _ in range(5):
                pendings.append(stream.diff(target))
            pendings.append(stream.full(target))
            for _ in range(2):
                pendings.append(stream.diff(target))
                for one in engines_of(engine):
                    assert one.outstanding <= depth
        submitted = [("full", 0)] + [("diff", s) for s in range(1, 6)] \
            + [("full", 5), ("diff", 6), ("diff", 7)]   # in order
        engine.drain()
        for pending in pendings:
            for handle in handles(pending):
                assert handle.wait(0) is not None
        for one in engines_of(engine):
            stats = one.stats()
            assert stats["high_watermark"] <= depth
            assert stats["committed"] == stats["submitted"] == len(submitted)
    finally:
        engine.finalize()

    for part in range(shards):
        commits = [(fulls, diffs) for index, fulls, diffs in log
                   if index == part]
        assert len(commits) == len(submitted)
        for count, (fulls, diffs) in enumerate(commits, start=1):
            prefix = submitted[:count]
            assert fulls == [s for kind, s in prefix if kind == "full"]
            assert diffs == [(s, s) for kind, s in prefix if kind == "diff"]
            assert all(any(full < start for full in fulls)
                       for start, _ in diffs)
    assert_recovers(store, stream, 7)
    assert_recovers(sync_store, stream, 7)
    assert store.storage_bytes() == sync_store.storage_bytes()


@pytest.mark.parametrize("codec", [None, "lossless"])
@pytest.mark.parametrize("shards", [1, 2])
def test_thread_engine_owns_the_full_it_is_handed(shards, codec):
    check(("persist", "thread", shards, codec or "none"))


@matrix
def test_closed_engine_rejects_submits_and_lifecycle_is_idempotent(
        executor, shards, codec, tmp_path):
    _, store, engine = open_cell(executor, shards, codec, tmp_path)
    stream = Stream()
    stream.full(engine)
    stream.diff(engine)
    engine.finalize()
    engine.finalize()
    with pytest.raises(RuntimeError, match="finalized"):
        stream.diff(engine)
    with pytest.raises(RuntimeError, match="finalized"):
        stream.full(engine)
    engine.abort()
    engine.abort()
    assert_recovers(store, stream, 1)


@matrix
def test_abort_resolves_every_write_and_leaves_a_recoverable_prefix(
        executor, shards, codec, tmp_path):
    backend, store, engine = open_cell(executor, shards, codec, tmp_path,
                                       slow=0.02)
    stream = Stream()
    for handle in handles(stream.full(engine)):
        handle.wait(WAIT)                # a durable base to land on
    pendings = [stream.diff(engine) for _ in range(6)]
    engine.abort()
    engine.abort()

    aborted = 0
    for part in range(shards):
        outcomes = [handles(pending)[part] for pending in pendings]
        assert all(handle.done for handle in outcomes)
        committed = [handle.error is None for handle in outcomes]
        # Committed writes are a prefix; the rest resolved as aborted.
        assert committed == sorted(committed, reverse=True)
        for handle in outcomes:
            if handle.error is not None:
                aborted += 1
                with pytest.raises(WriteAborted):
                    handle.wait(0)
    assert aborted == sum(one.stats()["aborted_writes"]
                          for one in engines_of(engine))
    if executor == "thread":
        assert aborted >= shards   # at most a few in flight; the tail dropped

    reopened = reopen(backend, shards, codec)
    chain = reopened.diffs_after(0)
    assert [(r.start, r.end) for r in chain] \
        == [(s, s) for s in range(1, len(chain) + 1)]
    assert_recovers(reopened, stream, len(chain))


@matrix
def test_inconsistent_overlap_fail_stops_stickily(
        executor, shards, codec, tmp_path):
    backend, store, engine = open_cell(executor, shards, codec, tmp_path)
    stream = Stream()
    compress = stream.compressor.compress
    payload = lambda: compress({                      # noqa: E731
        name: Rng(3).child(name).normal(size=p.shape)
        for name, p in stream.model.named_parameters()})
    try:
        stream.full(engine)
        good = engine.save_diff(1, 2, payload(), count=2)
        bad = engine.save_diff(2, 3, payload(), count=2)
        for handle in handles(good):
            assert handle.wait(WAIT).end == 2
        for handle in handles(bad):
            with pytest.raises(ValueError, match="overlaps"):
                handle.wait(WAIT)
        # Sticky: surfaces at the next submit, drain and finalize alike.
        for attempt in (lambda: engine.save_diff(4, 4, payload()),
                        lambda: stream.full(engine),
                        engine.drain, engine.raise_if_failed,
                        engine.finalize, engine.raise_if_failed):
            with pytest.raises(RuntimeError,
                               match="persistence engine failed") as info:
                attempt()
            assert "diff record seq 2" in str(info.value)
    finally:
        engine.abort()
    reopened = reopen(backend, shards, codec)
    assert [(r.start, r.end) for r in reopened.diffs_after(0)] == [(1, 2)]


# Shard-group teardown and deadline (fail at the parent of this change) --------
@pytest.mark.parametrize("executor", ["thread", PROCESS])
def test_group_finalize_stops_every_engine_after_one_shard_fails(
        executor, tmp_path):
    """Shard 0's backend refuses writes: ``finalize`` raises its
    fail-stop, and still no engine of the group keeps a live worker or a
    shared-memory ring."""
    if executor == "process":
        backend = LocalDiskBackend(str(tmp_path))
        # A file where shard 0's blob directories go: its workers' writes
        # fail, every other shard's succeed.
        os.makedirs(tmp_path / "shard-0000")
        for kind in ("full", "diff"):
            (tmp_path / "shard-0000" / kind).write_bytes(b"")
    else:
        backend = RefusingShardBackend()
    store = ShardedCheckpointStore(backend, shards=2)
    group = ShardedPersistGroup(store, persist_mode=executor,
                                writer_threads=1, ring_mb=4.0)
    try:
        Stream().full(group)
        with pytest.raises(RuntimeError, match="persistence engine failed"):
            group.finalize()
        for engine in group.engines:
            assert not any(w.is_alive() for w in engine._workers)
            if executor == "process":
                assert not os.path.exists(f"/dev/shm/{engine.ring.name}")
        # The healthy shard committed; the torn record stays invisible.
        assert len(store.shard_stores[1].fulls()) == 1
        assert store.fulls() == []
    finally:
        for engine in group.engines:
            engine.abort()


def test_quiesce_deadline_is_shared_across_shards():
    """Shard 0 drains late, shard 1 is stuck: ``quiesce(timeout)`` is one
    deadline for the group, not a fresh one per shard."""
    timeout = 0.5
    backend = SlowThenStuckBackend(delay=0.8 * timeout)
    checkpointer = LowDiffCheckpointer(
        CheckpointStore(backend),
        CheckpointConfig(full_every_iters=50, batch_size=1, shards=2,
                         async_persist=True, writer_threads=1))
    try:
        checkpointer.attach(make_mlp_trainer())   # submits the step-0 full
        started = time.monotonic()
        with pytest.raises(DrainTimeout):
            checkpointer.quiesce(timeout)
        # Per-shard deadlines would take 0.8 + 1.0 timeouts.
        assert time.monotonic() - started < 1.5 * timeout
    finally:
        backend.gate.set()
        checkpointer.abort()
