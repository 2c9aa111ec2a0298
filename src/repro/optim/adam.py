"""Adam (Kingma & Ba), the paper's default optimizer.

Maintains first and second moment estimates per parameter — the extra
``2 Psi`` of state that makes a full checkpoint ``3 Psi`` (paper §II-A,
Finding 2).  All updates are in-place on preallocated buffers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.optim.optimizer import Optimizer
from repro.tensor.parameter import Parameter


class Adam(Optimizer):
    """Adam with bias correction and optional decoupled weight decay."""

    def __init__(self, params, lr: float = 1e-3, betas: tuple = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = {name: np.zeros_like(p.data) for name, p in self._named.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self._named.items()}

    def _update_param(self, name: str, param: Parameter, grad: np.ndarray) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        m, v = self._m[name], self._v[name]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        step_size = self.lr * math.sqrt(bias2) / bias1
        param.data -= step_size * m / (np.sqrt(v) + self.eps)

    def _update_param_fused(self, name: str, param: Parameter, window: list,
                            span: tuple[int, int], run: int) -> None:
        # _update_param's operations in the same order and association (so
        # every rounding matches), through the scratch pair block by block,
        # all the window's steps (ending at step_count, each with its own bias
        # correction) on a block before the next: passes read L2 (see BLOCK).
        steps = range(self.step_count - len(window) + 1, self.step_count + 1)
        sizes = [self.lr * math.sqrt(1.0 - self.beta2**step)
                 / (1.0 - self.beta1**step) for step in steps]
        for p, m, v, s1, s2, grads in self._blocks(
                span, run, window, param.data, self._m[name], self._v[name]):
            for g, step_size in zip(grads, sizes):
                if self.weight_decay:
                    np.multiply(p, self.weight_decay, out=s2)
                    np.add(g, s2, out=s1)
                    g = s1
                m *= self.beta1
                np.multiply(g, 1.0 - self.beta1, out=s2)
                m += s2
                v *= self.beta2
                np.multiply(g, 1.0 - self.beta2, out=s2)
                s2 *= g
                v += s2
                np.sqrt(v, out=s2)
                s2 += self.eps
                np.multiply(m, step_size, out=s1)  # g (maybe s1) is dead here
                s1 /= s2
                p -= s1

    def _slots(self, name: str) -> dict[str, np.ndarray]:
        return {"m": self._m[name], "v": self._v[name]}

    def _load_slots(self, name: str, slots: dict[str, np.ndarray]) -> None:
        np.copyto(self._m[name], slots["m"])
        np.copyto(self._v[name], slots["v"])
