"""Optimizer base class.

The contract that matters for differential checkpointing (paper §III-B,
Finding 1): given the same optimizer state and the same gradient, ``step``
produces the same parameter delta — so a checkpointed gradient replayed
through ``step_with`` reconstructs exactly the state change the live run
made, and ``M_{t+1} = M_t + Opt(G_t)`` holds bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.compression.sparse import DenseScratch, SparseGradient
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


class Optimizer:
    """Base optimizer bound to a set of named parameters.

    Subclasses provide two update kernels per parameter:

    * ``_update_param`` — the reference implementation, written with plain
      numpy expressions (allocates temporaries freely);
    * ``_update_param_fused`` — the same ufuncs over :meth:`_blocks`, with
      no allocation and a block in L2 across the passes: elementwise, same
      order per element, so **bit-identical** to the reference (pinned).

    ``step_with`` takes the fused path whenever ``fused`` is True and every
    parameter is float64 (the training dtype of this stack; other dtypes
    would change numpy's intermediate-dtype propagation, so they fall back
    to the reference kernel).  Both live training and recovery replay go
    through ``step_with``, so they share the same fast path — but only
    recovery publishes a pool (:mod:`repro.utils.pool`), over which the
    fused update splits (:meth:`_step_fused`): a replayed step uses every
    usable core, a live one stays on the trainer's thread.  A
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
        #: The constructor-given base learning rate.  ``lr`` is mutated by
        #: schedulers every step and restored from checkpoints by
        #: ``load_state_dict``; ``initial_lr`` is neither — it is the
        #: stable anchor schedules derive lr(step) from, so a scheduler
        #: stack rebuilt against a recovered (already-warmed) optimizer
        #: computes exactly the lrs the uninterrupted run would have.
        self.initial_lr = float(lr)
        self.step_count = 0
        self._scratch: list[np.ndarray] | None = None   # see _step_fused
        self._densified: DenseScratch | None = None   # see _densify
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
        """Apply one update from externally supplied gradients.

        ``named_grads`` is dense gradients keyed by parameter name, or the
        compressed payload itself (what recovery replays and a trainer
        synchronized).  A duplicate-free :class:`SparseGradient` on a
        :attr:`sparse_exact` optimizer is scattered over its coordinates
        (O(k), nothing dense); any other payload goes through
        :meth:`_densify` — the one place a payload becomes dense — and the
        dense kernels.  Both routes check names and shapes alike.

        ``names`` restricts the update to a subset of parameters (ZeRO-1
        optimizer-state sharding: each rank steps only the shard it owns).
        ``named_grads`` may then carry gradients for the full parameter
        space; only the named subset is validated and updated.  The step
        counter still advances exactly once — every rank's bias
        correction stays aligned with the global step — and the subset
        path runs the same kernels as the full one.
        """
        sparse = (isinstance(named_grads, SparseGradient) and self.sparse_exact
                  and not named_grads.has_duplicates())
        if not (sparse or isinstance(named_grads, dict)):
            named_grads = self._densify(named_grads)
        given = named_grads.shapes if sparse else named_grads
        wanted = list(self._named) if names is None else list(names)
        unknown = set(given if names is None else wanted) - set(self._named)
        if unknown:
            raise KeyError(("gradients for" if names is None else
                            "update requested for")
                           + f" unknown parameters: {sorted(unknown)}")
        missing = set(wanted) - set(given)
        if missing:
            raise KeyError(f"missing gradients for: {sorted(missing)}")
        self.step_count += 1
        dense = []
        for name in wanted:
            param = self._named[name]
            if sparse:
                grad, shape = named_grads.entries[name], given[name]
            else:
                grad = np.asarray(named_grads[name], dtype=np.float64)
                shape = grad.shape
            if shape != param.data.shape:
                raise ValueError(
                    f"gradient shape {shape} != parameter shape "
                    f"{param.data.shape} for {name}"
                )
            if sparse:
                self._update_param_sparse(param, *grad)
            else:
                dense.append((name, param, grad))
        if dense and self.fused and self._fused_ok:
            self._step_fused(dense)
        else:
            for name, param, grad in dense:
                self._update_param(name, param, grad)

    def _densify(self, payload) -> dict[str, np.ndarray]:
        """A payload's dense gradients: a sparse one scattered into the one
        :class:`DenseScratch` this optimizer keeps (re-zeroed O(k) between
        payloads, valid until the next call), any other decompressed."""
        if not isinstance(payload, SparseGradient):
            return payload.decompress()
        if self._densified is None or self._densified.shapes != payload.shapes:
            self._densified = DenseScratch(payload.shapes)
        return payload.decompress_into(self._densified)

    def _update_param(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        raise NotImplementedError

    def _step_fused(self, work: list) -> None:
        """The fused kernel over ``work``'s ``(name, param, grad)``: from
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
            for name, param, grad in work:  # a run's blocks start in its cuts
                size = param.data.size
                edges = [min(size, max(0, -(-(cut - base) // BLOCK) * BLOCK))
                         for cut in cuts]
                for run, span in zip(runs, zip(edges, edges[1:])):
                    if span[0] < span[1]:
                        run.append((name, param, grad, span))
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
        for name, param, grad, span in run:
            self._update_param_fused(name, param, grad, span, index)

    def _blocks(self, span: tuple[int, int], run: int, *arrays: np.ndarray):
        """Aligned :data:`BLOCK`-element slices of same-shape ``arrays`` (flat,
        C order) over the element ``span``, each with run ``run``'s scratch
        pair cut to length."""
        pair = self._scratch[2 * run:2 * run + 2]
        flats = [array.reshape(-1) for array in arrays]
        for start in range(*span, BLOCK):
            n = min(BLOCK, span[1] - start)
            yield (*(flat[start:start + n] for flat in flats),
                   *(scratch[:n] for scratch in pair))

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
