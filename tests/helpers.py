"""Shared helper functions for the test suite."""

from __future__ import annotations

import copy
import gc
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from functools import partialmethod
from unittest import mock

import numpy as np

from repro.baselines import (
    CheckFreqCheckpointer,
    FullCheckpointer,
    GeminiCheckpointer,
    NaiveDCCheckpointer,
)
from repro.compression import TopKCompressor
from repro.core import (
    CheckpointConfig,
    FailureDrill,
    LowDiffCheckpointer,
    LowDiffPlusCheckpointer,
    default_lowdiff_factory,
    recovery,
)
from repro.distributed import DataParallelTrainer, SyntheticClassification
from repro.optim import SGD, Adam
from repro.storage import CheckpointStore, InMemoryBackend
from repro.storage.backends import WrappingBackend
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.models import MLP
from repro.utils.pool import usable_cpus
from repro.utils.rng import Rng


def make_mlp_trainer(num_workers: int = 2, rho: float | None = 0.1,
                     seed: int = 7, lr: float = 1e-3,
                     optimizer_builder=None, dims=(8, [16, 16], 4),
                     trainer_cls=DataParallelTrainer) -> DataParallelTrainer:
    """Standard tiny training job used across integration tests: an
    ``MLP(*dims)`` on synthetic classes, Adam unless told otherwise."""
    return trainer_cls(
        model_builder=lambda rank: MLP(*dims, rng=Rng(seed)),
        optimizer_builder=optimizer_builder or (lambda m: Adam(m, lr=lr)),
        loss_fn=CrossEntropyLoss(),
        dataset=SyntheticClassification(dims[0], dims[-1], batch_size=4,
                                        seed=seed + 1),
        num_workers=num_workers,
        compressor_builder=(lambda: TopKCompressor(rho)) if rho else None,
    )


def fresh_model_opt(optimizer_cls=Adam, seed=0, **opt_kwargs):
    """The tiny MLP(6, [8], 3) most store tests train, and its optimizer
    (``lr`` 1e-2 unless given)."""
    model = MLP(6, [8], 3, rng=Rng(seed))
    opt_kwargs.setdefault("lr", 1e-2)
    return model, optimizer_cls(model, **opt_kwargs)


def model_factory():
    return MLP(6, [12], 3, rng=Rng(0))


def adam_factory(model):
    return Adam(model, lr=1e-2)


def sgd_factory(model):
    return SGD(model, lr=0.05)


def build_chain(steps, full_every=None, optimizer_factory=adam_factory,
                seed=3, rho=0.25, backend=None, codec=None):
    """Synthetic training chain: full at 0, one single-step diff per step.

    Returns ``(store, snapshots)`` where ``snapshots[s]`` is the exact
    ``(model_state, optimizer_state)`` after ``s`` optimizer steps —
    the ground truth every bit-exact assertion compares against.
    """
    model = model_factory()
    optimizer = optimizer_factory(model)
    store = CheckpointStore(backend or InMemoryBackend(), codec=codec)
    compressor = TopKCompressor(rho)
    grad_rng = np.random.default_rng(seed)
    snap = lambda: (copy.deepcopy(model.state_dict()),
                    copy.deepcopy(optimizer.state_dict()))
    store.save_full(0, *snap())
    snapshots = {0: snap()}
    for step in range(1, steps + 1):
        grads = {name: grad_rng.normal(size=value.shape).astype(np.float32)
                 for name, value in model.state_dict().items()}
        payload = compressor.compress(grads)
        optimizer.step_with(payload.decompress())
        store.save_diff(step, step, payload)
        snapshots[step] = snap()
        if full_every and step % full_every == 0:
            store.save_full(step, *snap())
    return store, snapshots


def reference_run(steps, optimizer_factory=adam_factory):
    """``(payloads, snapshots)`` of ``build_chain(steps)``: the diff each
    step persists and the exact state after it."""
    store, snapshots = build_chain(steps=steps,
                                   optimizer_factory=optimizer_factory)
    return {r.start: store.load_diff(r) for r in store.diffs()}, snapshots


def recover_fresh(store, optimizer_factory=adam_factory):
    model = model_factory()
    optimizer = optimizer_factory(model)
    result = recovery.serial_recover(store, model, optimizer)
    return result, model, optimizer


def populate_store(store, model, optimizer, rng, steps=6, batch=1,
                   compressor=None):
    """Simulate training: full at 0, diff per step; returns final states."""
    compressor = compressor or TopKCompressor(0.5)
    store.save_full(0, model.state_dict(), optimizer.state_dict())
    pending = []
    for step in range(1, steps + 1):
        grads = {name: rng.child("g", step, name).normal(size=p.shape)
                 for name, p in model.named_parameters()}
        payload = compressor.compress(grads)
        optimizer.step_with(payload.decompress())
        pending.append((step, payload))
        if len(pending) == batch:
            merged = pending[0][1]
            for _, item in pending[1:]:
                merged = merged.add(item)
            store.save_diff(pending[0][0], pending[-1][0], merged,
                            count=len(pending))
            pending = []
    return model.state_dict(), optimizer.state_dict()


def make_drill(store=None, seed=5, config=None, full_every=10):
    """A failure drill of ``make_mlp_trainer(seed=seed)`` under LowDiff;
    ``batch_size=1`` keeps recovery bit-exact for Adam (batched records
    have gradient-accumulation semantics — the paper's documented
    trade-off)."""
    return FailureDrill(
        trainer_factory=lambda: make_mlp_trainer(seed=seed),
        checkpointer_factory=default_lowdiff_factory(
            config or CheckpointConfig(full_every_iters=full_every,
                                       batch_size=1)),
        model_factory=lambda: MLP(8, [16, 16], 4, rng=Rng(0)),
        optimizer_factory=lambda m: Adam(m, lr=1e-3),
        store=CheckpointStore(InMemoryBackend()) if store is None else store,
    )


def reference_state(seed=5, iterations=30):
    trainer = make_mlp_trainer(seed=seed)
    trainer.run(iterations)
    return trainer.model_state()


#: Default seeds exercised on every run; CI's chaos job appends more via
#: the CHAOS_SEED environment variable.
CHAOS_SEEDS = [11, 29, 47] + ([int(os.environ["CHAOS_SEED"])]
                              if os.environ.get("CHAOS_SEED") else [])


class SimulatedCrash(RuntimeError):
    """Raised by :class:`CrashingBackend` once its process has died."""


class CrashingBackend(WrappingBackend):
    """Counts every mutation (write, journal append, delete) of the backend
    it wraps and faults the armed one.

    ``arm(k)`` lets the next ``k`` mutations through and faults the one
    after, so scanning ``k`` over an operation faults it at *every* point
    of its mutation sequence.  A ``"crash"`` raises :class:`SimulatedCrash`
    there and at every later mutation (a dead process writes nothing
    more); a ``"fail"`` raises ``OSError`` once and the handle lives on.
    A faulted append first lands ``cut`` bytes of its line: a torn journal
    tail.  Reads never fault (the dying process is not the one that
    recovers).  ``appends`` maps each append's mutation index to its
    length.
    """

    def __init__(self, inner, crash_after=None):
        super().__init__(inner)
        self.mutations, self.crashed, self.appends = 0, False, {}
        self._lock = threading.Lock()   # writer threads of every shard
        self.arm(crash_after)

    def arm(self, after, mode="crash", cut=0):
        self.armed = None if after is None else self.mutations + after
        self.mode, self.cut = mode, cut

    def _tick(self, key=None, data=b"") -> None:
        with self._lock:
            if self.crashed:
                raise SimulatedCrash("the process is dead")
            index, self.mutations = self.mutations, self.mutations + 1
            if data:
                self.appends[index] = len(data)
            if index != self.armed:
                return
            self.armed = None
            if data[:self.cut]:
                self.inner.append(key, data[:self.cut])
            if self.mode == "fail":
                raise OSError(f"injected failure at mutation {index + 1}")
            self.crashed = True
            raise SimulatedCrash(f"injected crash at mutation {index + 1}")

    def _write(self, key, parts):
        self._tick()
        self.inner.write(key, parts)

    def _append(self, key, data):
        self._tick(key, data)
        self.inner.append(key, data)

    def delete(self, key):
        self._tick()
        self.inner.delete(key)


def clone_backend(src) -> InMemoryBackend:
    clone = InMemoryBackend()
    for key in src.list_keys(""):
        clone.write(key, src.read(key))
    return clone


class GateBackend(InMemoryBackend):
    """Writes block until ``gate`` is set; ``entered`` counts write entries."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)

    def _write(self, key, data):
        if "manifest" not in key:
            self.entered.release()
            if not self.gate.wait(timeout=30.0):  # pragma: no cover - hang guard
                raise TimeoutError("test gate never opened")
        super()._write(key, data)


def wait_until(predicate, timeout: float = 10.0) -> bool:
    """Poll ``predicate`` without busy-spinning; False on timeout."""
    ticker = threading.Event()
    waited = 0.0
    while not predicate():
        if waited >= timeout:
            return False
        ticker.wait(0.005)
        waited += 0.005
    return True


class CallCounts:
    """``sys.setprofile`` over a block: Python-level calls by code object,
    C-level calls by builtin, on the calling thread only.  No garbage
    collection runs in the block: its callbacks are Python calls too."""

    def __enter__(self):
        self.python = Counter()
        self.builtin = Counter()
        self.roots = Counter()   # entries with no frame of the same code above
        self.collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(self._event)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        if self.collecting:
            gc.enable()

    def _event(self, frame, event, arg):
        if event == "c_call":
            self.builtin[arg] += 1
        elif event == "call":
            code = frame.f_code
            self.python[code] += 1
            back = frame.f_back
            while back is not None and back.f_code is not code:
                back = back.f_back
            if back is None:
                self.roots[code] += 1

    def calls(self, function) -> int:
        return self.python[function.__code__]

    def builtin_named(self, name: str) -> int:
        """C calls of any builtin or bound C method called ``name``."""
        return sum(count for function, count in self.builtin.items()
                   if getattr(function, "__name__", None) == name)


def tree_merge(payloads):
    """The reference: balanced pairwise ``add``, odd leaf carried (the fold
    order ``bench/cycle.py`` verifies every parallel restore against)."""
    level = list(payloads)
    while len(level) > 1:
        merged = [level[i].add(level[i + 1])
                  for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


@contextmanager
def fan_out(workers: int, cpus: int | None = None):
    """Parallel recovery inside the block folds on ``min(workers, cpus,
    segments)`` threads (``cpus`` defaults to the real affinity mask):
    every chain counts as heavy, so the planner takes its widest width,
    and it sees ``workers`` usable CPUs at most.  At one it folds inline
    and builds no pool."""
    width = max(1, min(workers, usable_cpus() if cpus is None else cpus))
    with mock.patch.object(os, "sched_getaffinity",
                           lambda pid: set(range(width)), create=True), \
            mock.patch.object(recovery, "FANOUT_MIN_RECORD_BYTES", 0):
        yield


class Recorder:
    """Stands in for model and optimizer: keeps what recovery applies."""

    sparse_exact = False

    def __init__(self):
        self.step_count, self.grads = 0, None

    def load_state_dict(self, state):
        pass

    def parameters(self):
        return []   # no dense state: serial replay hands one record a call

    def step_with(self, grads):
        if hasattr(grads, "decompress"):    # a payload, as replay hands it
            grads = grads.decompress()
        self.grads = {name: np.array(grad) for name, grad in grads.items()}
        self.step_count += 1


def assert_states_equal(a: dict, b: dict, exact: bool = True, atol: float = 1e-12):
    """Compare two model state dicts."""
    assert set(a) == set(b)
    for name in a:
        if exact:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)
        else:
            np.testing.assert_allclose(a[name], b[name], atol=atol, err_msg=name)


def assert_optimizers_equal(a: dict, b: dict, exact: bool = True):
    """Compare two optimizer state dicts."""
    assert a["type"] == b["type"]
    assert a["step_count"] == b["step_count"]
    assert set(a["slots"]) == set(b["slots"])
    for name in a["slots"]:
        assert set(a["slots"][name]) == set(b["slots"][name])
        for slot in a["slots"][name]:
            if exact:
                np.testing.assert_array_equal(
                    a["slots"][name][slot], b["slots"][name][slot],
                    err_msg=f"{name}/{slot}",
                )
            else:
                np.testing.assert_allclose(
                    a["slots"][name][slot], b["slots"][name][slot], atol=1e-10,
                )


class CompactingCheckpointer(LowDiffCheckpointer):
    """LowDiff with its store compacted under ``policy`` wherever the chain
    can pass the budget: after each persisted record and after the final
    flush.  ``factories`` (``model_factory``, ``optimizer_factory``) make
    each pass a rebase.  Inline persistence only: an engine's in-flight
    records would race the pass."""

    def __init__(self, store, config, policy, **factories):
        super().__init__(store, config)
        assert self.engine is None
        self.policy, self.factories = policy, factories

    def _compact_over_budget(self) -> None:
        if self.policy.chain_records(self.store) > self.policy.chain_budget():
            self.store.compact(self.policy, **self.factories)

    def _process_item(self, step, item) -> None:
        super()._process_item(step, item)
        self._compact_over_budget()

    def _flush_pending(self) -> None:
        super()._flush_pending()
        self._compact_over_budget()


class BoundLowDiffPlus(LowDiffPlusCheckpointer):
    """LowDiff+ with the replica factories of :func:`make_mlp_trainer`'s
    job bound, so harnesses can call the bare ``attach(trainer,
    resume_from=)`` contract."""

    attach = partialmethod(
        LowDiffPlusCheckpointer.attach,
        model_factory=lambda: MLP(8, [16, 16], 4, rng=Rng(0)),
        optimizer_factory=lambda model: Adam(model, lr=1e-3))


#: The six strategies on one cadence: name -> (trainer ``rho``,
#: ``(store) -> checkpointer``, step a crash at iteration 13 recovers to —
#: ``None`` where skipped ticks make it timing-dependent —, whether a
#: resumed run ends bit-equal to the uninterrupted one).
STRATEGIES = {
    "lowdiff": (0.1, lambda store: LowDiffCheckpointer(
        store, CheckpointConfig(full_every_iters=8, batch_size=1)), 13, True),
    "lowdiff_plus": (None, lambda store: BoundLowDiffPlus(
        store, persist_every=4), 12, True),
    "full": (0.1, lambda store: FullCheckpointer(store, every=4), 12, True),
    "checkfreq": (0.1, lambda store: CheckFreqCheckpointer(
        store, every=4), 12, True),
    "checkfreq_async": (0.1, lambda store: CheckFreqCheckpointer(
        store, every=4, async_persist=True), None, True),
    "gemini": (0.1, lambda store: GeminiCheckpointer(
        store, memory_every=1, storage_every=4), 12, True),
    # Top-k'd state deltas are lossy between fulls.
    "naive_dc": (0.1, lambda store: NaiveDCCheckpointer(
        store, full_every=8, diff_every=1, rho=0.5), 13, False),
}
