"""Optimizer base class.

The contract that matters for differential checkpointing (paper §III-B,
Finding 1): given the same optimizer state and the same gradient, ``step``
produces the same parameter delta — so a checkpointed gradient replayed
through ``step_with`` reconstructs exactly the state change the live run
made, and ``M_{t+1} = M_t + Opt(G_t)`` holds bit-for-bit.
"""

from __future__ import annotations

from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterable

import numpy as np

from repro.compression.sparse import SparseGradient
from repro.tensor.module import Module
from repro.tensor.parameter import Parameter
from repro.utils.pool import POOL

#: Elements per slice of the fused kernels (:meth:`Optimizer._blocks`): six
#: float64 slices (p, g, m, v, scratch pair) are 1.5 MB, in a 4 MB L2.  Fused
#: Adam update of a 1M-element tensor, median ms of 41 steps on a 2-core
#: Xeon (4 MB L2 per core), numpy 2.4, bit-identical at every size:
#:   block     4K    8K   16K   32K   64K  128K  256K  whole tensor
#:   wd 0    14.3  12.4  11.8  10.3  11.8  14.8  15.3  19.2
#:   wd 0.01 16.5  13.1  11.2  11.8  13.2  16.9  18.9  22.6
BLOCK = 32 * 1024


def _in_order(indices: np.ndarray, values: np.ndarray, size: int) -> tuple:
    """A sparse tensor's entries sorted by index (a repeated index's in
    ``decompress`` order), and where each :data:`BLOCK` of it starts."""
    if (indices[1:] < indices[:-1]).any():
        order = np.argsort(indices, kind="stable")
        indices, values = indices[order], values[order]
    cuts = indices.searchsorted(np.arange(0, size, BLOCK, dtype=indices.dtype))
    return indices, values, [*cuts.tolist(), indices.size]


def _gradient_block(grad, start: int, out: np.ndarray) -> np.ndarray:
    """Elements ``[start, start + out.size)`` of a gradient: a dense one's
    view, or a sparse one summed into zeroed ``out`` exactly as by
    ``decompress`` (float64 ``np.add.at``: ``-0.0`` lands as ``+0.0``)."""
    if isinstance(grad, np.ndarray):
        return grad.reshape(-1)[start:start + out.size]
    indices, values, cuts = grad
    low, high = cuts[start // BLOCK:start // BLOCK + 2]
    out.fill(0.0)
    np.add.at(out, indices[low:high] - start,
              values[low:high].astype(np.float64))
    return out


class Optimizer:
    """Base optimizer bound to a set of named parameters.

    Subclasses provide two update kernels per parameter:

    * ``_update_param`` — the reference implementation, written with plain
      numpy expressions (allocates temporaries freely);
    * ``_update_param_fused`` — the same ufuncs over :meth:`_blocks`, with
      no allocation, a block in L2 across the passes and a window's steps:
      elementwise, same order per element, so **bit-identical** (pinned).

    ``step_with`` takes the fused path whenever ``fused`` is True and every
    parameter is float64 (the training dtype of this stack; other dtypes
    would change numpy's intermediate-dtype propagation, so they fall back
    to the reference kernel).  Both live training (a window of one step)
    and recovery replay (a window of diffs) go through ``step_with``, so
    they share the same fast path — but only recovery publishes a pool
    (:mod:`repro.utils.pool`), over which the fused update splits
    (:meth:`_step_fused`): a replayed window uses every usable core, a
    live step stays on the trainer's thread.  A
    :attr:`sparse_exact` subclass adds ``_update_param_sparse(param,
    indices, values)``, applied to a payload's listed coordinates only.
    """

    #: Class-wide default; instances may flip ``self.fused`` to force the
    #: reference kernels (tests do, to pin bit-exactness).
    fused = True

    def __init__(self, params: Module | Iterable[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        if isinstance(params, Module):
            named = [(name, p) for name, p in params.named_parameters()
                     if p.requires_grad]
        else:
            params = list(params)
            for index, param in enumerate(params):
                if not param.name:
                    param.name = f"param{index}"
            named = [(p.name, p) for p in params if p.requires_grad]
        names = [name for name, _ in named]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names passed to optimizer")
        self._named: dict[str, Parameter] = dict(named)
        self.lr = float(lr)
        self.step_count = 0
        self._scratch: list[np.ndarray] | None = None   # see _step_fused
        self._fused_ok = all(
            param.data.dtype == np.float64 for param in self._named.values()
        )

    # Introspection --------------------------------------------------------
    @property
    def param_names(self) -> list[str]:
        return list(self._named)

    @property
    def sparse_exact(self) -> bool:
        """Whether a sparse gradient's scatter is bit-identical to the dense
        step: the update leaves ``p`` as is where the gradient is ``+0.0``.
        Derived from the hyperparameters, never configured."""
        return False

    def parameters(self) -> list[Parameter]:
        return list(self._named.values())

    # Gradient application ---------------------------------------------------
    def zero_grad(self) -> None:
        for param in self._named.values():
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using each parameter's accumulated ``.grad``."""
        grads = {}
        for name, param in self._named.items():
            if param.grad is None:
                raise RuntimeError(f"parameter {name} has no gradient; run backward first")
            grads[name] = param.grad
        self.step_with(grads)

    def step_with(self, named_grads, names: Iterable[str] | None = None) -> None:
        """Apply one update per step from externally supplied gradients.

        ``named_grads`` is dense gradients keyed by parameter name, the
        compressed payload itself (what a trainer synchronized), or a
        *window*: a list of those, one per consecutive step (what recovery
        replays).  A duplicate-free :class:`SparseGradient` on a
        :attr:`sparse_exact` optimizer is scattered over its coordinates
        (O(k), nothing dense); the fused kernel densifies any other one
        block by block (:meth:`_blocks`); any other route decompresses.
        Every step is checked, alike on every route, before any applies.

        ``names`` restricts the update to a subset of parameters (ZeRO-1
        optimizer-state sharding: each rank steps only the shard it owns).
        ``named_grads`` may then carry gradients for the full parameter
        space; only the named subset is validated and updated.  The step
        counter still advances exactly once per step — every rank's bias
        correction stays aligned with the global step — and the subset
        path runs the same kernels as the full one.
        """
        window = named_grads if isinstance(named_grads, list) else [named_grads]
        wanted = list(self._named) if names is None else list(names)
        fused = self.fused and self._fused_ok
        steps = [self._check(g, wanted, names is None, fused) for g in window]
        for scatter, run in groupby(steps, key=itemgetter(0)):
            run = [grads for _, grads in run]
            if fused and not scatter and wanted:    # the run in one pass
                self.step_count += len(run)     # the kernels' steps end here
                self._step_fused([(name, self._named[name], [
                    grads[name] for grads in run]) for name in wanted])
                continue
            for grads in run:
                self.step_count += 1
                for name in wanted:
                    if scatter:
                        self._update_param_sparse(self._named[name],
                                                  *grads.entries[name])
                    else:
                        self._update_param(name, self._named[name], grads[name])

    def _check(self, grads, wanted: list[str], every: bool, fused: bool):
        """``(scatter, grads)`` for one step, checked against ``wanted``
        (``every``: all given names must be known); unless scattered,
        ``grads`` by name: float64 arrays, or sorted entries (fused)."""
        sparse = isinstance(grads, SparseGradient)
        scatter = sparse and self.sparse_exact and not grads.has_duplicates()
        if not (isinstance(grads, dict) or sparse and (scatter or fused)):
            grads, sparse = grads.decompress(), False
        given = grads.shapes if sparse else grads
        unknown = set(given if every else wanted) - set(self._named)
        if unknown:
            raise KeyError(("gradients for" if every else
                            "update requested for")
                           + f" unknown parameters: {sorted(unknown)}")
        missing = set(wanted) - set(given)
        if missing:
            raise KeyError(f"missing gradients for: {sorted(missing)}")
        for name in wanted:
            shape = given[name] if sparse else np.shape(grads[name])
            if shape != self._named[name].data.shape:
                raise ValueError(f"gradient shape {shape} != parameter shape "
                                 f"{self._named[name].data.shape} for {name}")
        if not scatter:
            grads = {name: np.asarray(grads[name], np.float64) if not sparse
                     else _in_order(*grads.entries[name], self._named[name].size)
                     for name in wanted}
        return scatter, grads

    def _update_param(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        raise NotImplementedError

    def _step_fused(self, work: list) -> None:
        """The fused kernel over ``work``'s ``(name, param, window)``: from
        ``2 * BLOCK`` elements, one run of whole blocks per worker of a
        published pool, balanced by element count across parameters; all
        runs but the last on the pool, each over its own scratch pair.
        Elementwise kernels, so bit-identical to running inline."""
        pool, total = POOL.get(), sum(param.data.size for _, param, _ in work)
        if pool is None or total < 2 * BLOCK:
            runs = [[(*item, (0, item[1].data.size)) for item in work]]
        else:
            width = pool._max_workers
            cuts = [-(-index * total // width) for index in range(width + 1)]
            runs, base = [[] for _ in range(width)], 0
            for name, param, window in work:  # a run's blocks start in its cuts
                size = param.data.size
                edges = [min(size, max(0, -(-(cut - base) // BLOCK) * BLOCK))
                         for cut in cuts]
                for run, span in zip(runs, zip(edges, edges[1:])):
                    if span[0] < span[1]:
                        run.append((name, param, window, span))
                base += size
            runs = [run for run in runs if run]
        scratch = self._scratch or []   # allocated once, indexed by run
        if len(scratch) < 2 * len(runs):
            self._scratch = scratch + [np.empty(BLOCK) for _ in
                                       range(len(scratch), 2 * len(runs))]
        futures = [pool.submit(self._run_fused, run, index)
                   for index, run in enumerate(runs[:-1])]
        try:
            self._run_fused(runs[-1], len(runs) - 1)
        finally:
            for future in futures:
                future.result()

    def _run_fused(self, run: list, index: int) -> None:
        for name, param, window, span in run:
            self._update_param_fused(name, param, window, span, index)

    def _blocks(self, span: tuple[int, int], run: int, window, *arrays):
        """Aligned :data:`BLOCK`-element slices of same-shape ``arrays`` (flat,
        C order) over the element ``span``, each with run ``run``'s scratch
        pair cut to length and an iterator over ``window``'s gradients on
        the block in step order, a sparse one densified into the pair's
        first buffer as the iterator reaches it."""
        pair = self._scratch[2 * run:2 * run + 2]
        flats = [array.reshape(-1) for array in arrays]
        for start in range(*span, BLOCK):
            n = min(BLOCK, span[1] - start)
            first, second = (scratch[:n] for scratch in pair)
            yield (*(flat[start:start + n] for flat in flats), first, second,
                   map(_gradient_block, window, repeat(start), repeat(first)))

    # State round-trip --------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable optimizer state: hyperparameters + per-param slots."""
        return {
            "type": type(self).__name__,
            "lr": self.lr,
            "step_count": self.step_count,
            "slots": {
                name: {k: v.copy() for k, v in self._slots(name).items()}
                for name in self._named
            },
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"optimizer type mismatch: checkpoint {state.get('type')!r} "
                f"vs live {type(self).__name__!r}"
            )
        missing = set(self._named) - set(state["slots"])
        if missing:
            raise KeyError(f"optimizer state missing slots for: {sorted(missing)}")
        self.lr = float(state["lr"])
        self.step_count = int(state["step_count"])
        for name in self._named:
            self._load_slots(name, state["slots"][name])

    def _slots(self, name: str) -> dict[str, np.ndarray]:
        """Per-parameter auxiliary arrays (e.g. Adam moments)."""
        raise NotImplementedError

    def _load_slots(self, name: str, slots: dict[str, np.ndarray]) -> None:
        raise NotImplementedError

    def state_bytes(self) -> int:
        """Total bytes of auxiliary state (0 for plain SGD, 2 Psi for Adam)."""
        return sum(
            arr.nbytes for name in self._named for arr in self._slots(name).values()
        )
