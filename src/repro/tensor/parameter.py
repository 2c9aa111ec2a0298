"""Trainable parameter container.

A :class:`Parameter` owns its value array and an optional gradient array of
the same shape.  Values and gradients are always ``float64`` C-contiguous
arrays so that flat views used by optimizers and compressors are true
views, never copies (see the HPC guide: "use views, not copies").
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A named, trainable tensor with an accumulated gradient.

    Parameters
    ----------
    data:
        Initial value; copied into a C-contiguous float64 array.
    name:
        Dotted path assigned by the owning :class:`~repro.tensor.module.Module`
        tree (e.g. ``"blocks.3.attn.w_qkv"``); used as the stable key in
        checkpoints and compressed-gradient payloads.
    requires_grad:
        Frozen parameters skip gradient allocation and optimizer updates.
    """

    __slots__ = ("data", "grad", "name", "requires_grad")

    def __init__(self, data: np.ndarray, name: str = "", requires_grad: bool = True):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name
        self.requires_grad = bool(requires_grad)

    # Gradient management -----------------------------------------------------
    def zero_grad(self) -> None:
        """Reset the gradient in place (allocating on first use)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad[...] = 0.0

    def accumulate_grad(self, delta: np.ndarray) -> None:
        """Add ``delta`` into the gradient buffer, allocating lazily."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(delta, dtype=np.float64, copy=True)
        else:
            self.grad += delta

    # Shape/introspection -----------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def flat_view(self) -> np.ndarray:
        """1-D view of the value array (no copy)."""
        return self.data.reshape(-1)

    def copy(self) -> "Parameter":
        out = Parameter(self.data.copy(), name=self.name, requires_grad=self.requires_grad)
        if self.grad is not None:
            out.grad = self.grad.copy()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"
