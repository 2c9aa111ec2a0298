"""Random-k sparsification (Stich et al.).

Selects a uniformly random ``rho`` fraction of coordinates per tensor and
rescales by ``1/rho`` so the payload is an unbiased gradient estimator.
Selection draws from an explicit child RNG stream per call index, so all
workers agree on the mask without communication (the shared-seed trick
used by real random-k implementations).
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.base import Compressor
from repro.compression.sparse import SparseGradient
from repro.utils.rng import Rng
from repro.utils.validation import check_in_range


class RandomKCompressor(Compressor):
    def __init__(self, rho: float = 0.01, rng: Rng | None = None):
        check_in_range("rho", rho, 0.0, 1.0, inclusive=False)
        self.rho = float(rho)
        self.rng = rng or Rng(0)
        self._call_index = 0

    def compress(self, named_grads: dict[str, np.ndarray]) -> SparseGradient:
        call_rng = self.rng.child("call", self._call_index)
        self._call_index += 1
        entries, shapes = {}, {}
        for name, tensor in named_grads.items():
            flat = np.asarray(tensor).reshape(-1)
            k = max(1, math.ceil(self.rho * flat.size))
            indices = np.sort(
                call_rng.child(name).choice(flat.size, size=k, replace=False)
            ).astype(np.int64)
            entries[name] = (indices, flat[indices] / self.rho)
            shapes[name] = tensor.shape
        return SparseGradient(entries, shapes)

    @property
    def ratio(self) -> float:
        return self.rho
