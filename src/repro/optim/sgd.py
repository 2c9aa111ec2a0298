"""SGD with optional momentum and weight decay.

With ``momentum == 0`` the update is *linear* in the gradient, which makes
differential merging exactly associative — the configuration where the
parallel recovery tree (Fig. "Parallel Fast Recovery") is exact even
across optimizer steps.  Tests use this property.  Linearity (and no
weight decay) also makes a sparse gradient's scatter exact, since the dense
step leaves ``p - lr * 0.0 == p`` bit for bit (``-0.0`` included) wherever
the gradient is silent: ``sparse_exact``, a step costs ``k``, not Ψ.
"""

from __future__ import annotations

import numpy as np

from repro.optim.optimizer import Optimizer
from repro.tensor.parameter import Parameter


class SGD(Optimizer):
    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = (
            {name: np.zeros_like(p.data) for name, p in self._named.items()}
            if momentum
            else {}
        )

    def _update_param(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            velocity = self._velocity[name]
            velocity *= self.momentum
            velocity += grad
            param.data -= self.lr * velocity
        else:
            param.data -= self.lr * grad

    def _update_param_fused(self, name: str, param: Parameter, window: list,
                            span: tuple[int, int], run: int) -> None:
        # Bit-identical to _update_param (same operations, order and
        # association), in the scratch pair, a window's steps block by block.
        for p, *velocity, s1, s2, grads in self._blocks(
                span, run, window, param.data, *self._slots(name).values()):
            for g in grads:
                if self.weight_decay:
                    np.multiply(p, self.weight_decay, out=s2)
                    np.add(g, s2, out=s1)
                    g = s1
                for v in velocity:  # momentum's slot, when there is one
                    v *= self.momentum
                    v += g
                    g = v
                np.multiply(g, self.lr, out=s2)
                p -= s2

    @property
    def sparse_exact(self) -> bool:
        return not self.momentum and not self.weight_decay and self._fused_ok

    def _update_param_sparse(self, param: Parameter, indices: np.ndarray,
                             values: np.ndarray) -> None:
        # The dense step p - (0.0 + v) * lr at each (duplicate-free) index;
        # ``0.0 + v`` is the densified value, -0.0 becoming +0.0.
        step = np.add(values, 0.0, dtype=np.float64)
        step *= self.lr
        np.subtract.at(param.data.reshape(-1), indices, step)

    def _slots(self, name: str) -> dict[str, np.ndarray]:
        if self.momentum:
            return {"velocity": self._velocity[name]}
        return {}

    def _load_slots(self, name: str, slots: dict[str, np.ndarray]) -> None:
        if self.momentum:
            np.copyto(self._velocity[name], slots["velocity"])
