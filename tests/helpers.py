"""Shared helper functions for the test suite."""

from __future__ import annotations

import sys
import threading
from collections import Counter
from functools import partialmethod

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
    LowDiffCheckpointer,
    LowDiffPlusCheckpointer,
)
from repro.distributed import DataParallelTrainer, SyntheticClassification
from repro.optim import Adam
from repro.storage import InMemoryBackend
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.models import MLP
from repro.utils.rng import Rng


def make_mlp_trainer(num_workers: int = 2, rho: float | None = 0.1,
                     seed: int = 7, lr: float = 1e-3,
                     optimizer_builder=None) -> DataParallelTrainer:
    """Standard tiny training job used across integration tests."""
    return DataParallelTrainer(
        model_builder=lambda rank: MLP(8, [16, 16], 4, rng=Rng(seed)),
        optimizer_builder=optimizer_builder or (lambda m: Adam(m, lr=lr)),
        loss_fn=CrossEntropyLoss(),
        dataset=SyntheticClassification(8, 4, batch_size=4, seed=seed + 1),
        num_workers=num_workers,
        compressor_builder=(lambda: TopKCompressor(rho)) if rho else None,
    )


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
    C-level calls by builtin, on the calling thread only."""

    def __enter__(self):
        self.python = Counter()
        self.builtin = Counter()
        self.roots = Counter()   # entries with no frame of the same code above
        sys.setprofile(self._event)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)

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
