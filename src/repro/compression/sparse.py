"""Sparse gradient container: per-tensor ``(indices, values)`` pairs.

The workhorse payload of the reproduction.  Sparsified gradients are what
workers exchange, what the reusing queue carries, what batched writes
accumulate, and what differential checkpoints persist.  Union-add is
associative and commutative, which is exactly why batched gradient writing
(§IV-B) and pairwise parallel recovery merging (§VI) are sound.

Index dtype is int32 (tensors here are < 2^31 elements) and values are
stored at ``value_dtype`` (float32 by default, matching fp32 training on
the wire); ``nbytes`` therefore reports the true serialized size.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs import OBS

VALUE_DTYPE = np.float32
INDEX_DTYPE = np.int32

#: Registry names of the k-way merge route counters (live in the active
#: obs :class:`~repro.obs.metrics.MetricsRegistry`; always on; pinned by
#: ``tests/test_hot_path.py::TestKWayMerge``).  ``kway`` counts merges
#: that took the single-pass vectorized route; ``fallback`` counts merges
#: that dropped back to the sequential pairwise fold because a payload
#: carried duplicate indices (illegal for compressor output, but the
#: container tolerates them).
KWAY_COUNTER_KWAY = "compress.kway_merge.kway"
KWAY_COUNTER_FALLBACK = "compress.kway_merge.fallback"


class SortedIndices(np.ndarray):
    """An index array its decoder proved sorted — every delta-coded gap was
    >= 0 — with ``increasing`` telling whether every gap was > 0.  Only the
    array the decoder returned carries ``increasing``: a slice or a ufunc
    result of it is checked in full."""


class SparseGradient:
    """Named sparse tensors sharing one parameter space.

    Parameters
    ----------
    entries:
        ``{name: (indices, values)}`` with flat int indices into the
        flattened tensor.  A :class:`SortedIndices` run is range-checked at
        its two ends, and has a duplicate exactly when it has a zero gap.
    shapes:
        ``{name: dense_shape}`` for reconstruction.
    """

    __slots__ = ("entries", "shapes", "_increasing")

    def __init__(self, entries: dict[str, tuple], shapes: dict[str, tuple]):
        if set(entries) != set(shapes):
            raise KeyError("entries and shapes must cover the same tensor names")
        self.entries: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.shapes = {name: tuple(shape) for name, shape in shapes.items()}
        self._increasing: dict[str, bool] = {}   # of each proven-sorted run
        for name, (indices, values) in entries.items():
            increasing = getattr(indices, "increasing", None)
            proven = increasing is not None and indices.dtype == INDEX_DTYPE
            indices = np.asarray(indices, dtype=INDEX_DTYPE)
            values = np.asarray(values, dtype=VALUE_DTYPE)
            if indices.shape != values.shape or indices.ndim != 1:
                raise ValueError(
                    f"indices/values for {name} must be equal-length 1-D arrays"
                )
            if indices.size:
                low, high = (indices[0], indices[-1]) if proven \
                    else (indices.min(), indices.max())
                if low < 0 or high >= math.prod(self.shapes[name]):
                    raise IndexError(
                        f"sparse index out of range for tensor {name}")
            if proven:
                self._increasing[name] = increasing
            self.entries[name] = (indices, values)

    # Construction helpers ---------------------------------------------------
    @classmethod
    def from_dense(cls, named: dict[str, np.ndarray],
                   mask_fn) -> "SparseGradient":
        """Build by applying ``mask_fn(flat_tensor) -> flat_indices`` per tensor."""
        entries, shapes = {}, {}
        for name, tensor in named.items():
            flat = np.asarray(tensor).reshape(-1)
            indices = np.asarray(mask_fn(flat), dtype=INDEX_DTYPE)
            entries[name] = (indices, flat[indices])
            shapes[name] = tensor.shape
        return cls(entries, shapes)

    @classmethod
    def zeros_like(cls, shapes: dict[str, tuple]) -> "SparseGradient":
        empty = np.array([], dtype=INDEX_DTYPE)
        return cls(
            {name: (empty, np.array([], dtype=VALUE_DTYPE)) for name in shapes},
            shapes,
        )

    # Payload protocol ---------------------------------------------------------
    def decompress(self) -> dict[str, np.ndarray]:
        """Densify: zeros everywhere except the retained coordinates."""
        dense = {}
        for name, (indices, values) in self.entries.items():
            flat = np.zeros(int(np.prod(self.shapes[name])) if self.shapes[name] else 1)
            # np.add.at handles (illegal but possible) duplicate indices safely.
            np.add.at(flat, indices, values.astype(np.float64))
            dense[name] = flat.reshape(self.shapes[name])
        return dense

    def add(self, other: "SparseGradient") -> "SparseGradient":
        """Union-merge: indices united, overlapping values summed.

        Vectorized over the *whole parameter space*: every tensor's
        indices are lifted into one global int64 index space (per-tensor
        offsets), so a merge is a single ``np.unique`` + ``np.bincount``
        regardless of how many tensors the model has.  Per coordinate the
        values accumulate in float64 in order of appearance, self before
        other, and round to fp32 once.  (The recovery merge tree computes
        the same bits without the sort: :class:`DenseNode`.)
        """
        if self.shapes != other.shapes:
            raise KeyError("cannot add SparseGradients over different parameter spaces")
        return _union_add([self, other])

    @classmethod
    def merge_ordered(cls, payloads: list["SparseGradient"]) -> "SparseGradient":
        """Single-pass k-way union-add, **bit-identical to the left fold**
        ``reduce(lambda a, b: a.add(b), payloads)``.

        This path reproduces the fold's per-level fp32 rounding exactly
        (accumulating everything in float64 and rounding once would differ
        in the last bit for k > 2): after one global stable sort, each
        coordinate's contributions are folded in worker order with the
        same float64-pair-then-fp32-round step ``add`` performs — ``p``
        vectorized passes for a maximum per-coordinate multiplicity of
        ``p + 1``, instead of ``k - 1`` full concat+unique merges.  It is
        what :func:`repro.distributed.collectives.sparse_allreduce` and the
        batched gradient writer use, so synchronized payloads and batched
        diff records stay bit-exact against the historical pairwise path.

        A payload carrying duplicate indices (illegal for compressor
        output) makes per-level rounding ambiguous, so such merges fall
        back to the sequential fold; the ``compress.kway_merge.*``
        counters record which route each merge took.
        """
        payloads = list(payloads)
        if not payloads:
            raise ValueError("nothing to merge")
        for payload in payloads[1:]:
            if payload.shapes != payloads[0].shapes:
                raise KeyError(
                    "cannot merge SparseGradients over different parameter spaces")
        if len(payloads) == 1:
            return payloads[0]
        merged = _union_add_ordered(payloads)
        if merged is None:  # duplicate indices: preserve fold semantics
            OBS.registry.counter(KWAY_COUNTER_FALLBACK).inc()
            result = payloads[0]
            for payload in payloads[1:]:
                result = result.add(payload)
            return result
        OBS.registry.counter(KWAY_COUNTER_KWAY).inc()
        return merged

    def decompress_into(self, scratch: "DenseScratch") -> dict[str, np.ndarray]:
        """Densify into ``scratch``'s reusable buffers — bit-identical to
        :meth:`decompress` without the per-call ``np.zeros`` allocations.

        Only the coordinates the *previous* scatter touched are re-zeroed
        (O(k), not O(n)), so replaying a long chain of rho-sparse diffs
        never pays a full dense clear per record.  The returned arrays are
        views into ``scratch`` and are only valid until the next
        ``decompress_into`` call on it.
        """
        if scratch.shapes != self.shapes:
            raise KeyError("scratch buffers cover a different parameter space")
        dense = {}
        for name, (indices, values) in self.entries.items():
            flat = scratch.reset_flat(name)
            np.add.at(flat, indices, values.astype(np.float64))
            scratch.mark_touched(name, indices)
            dense[name] = scratch.shaped(name)
        return dense

    def has_duplicates(self) -> bool:
        """Whether a tensor lists some coordinate twice (illegal for
        compressor output, tolerated here).  A proven-sorted run repeats
        exactly where its decoder saw a zero gap.  Otherwise strictly
        increasing indices are unique; else one sort of the ``k`` indices
        (never a tensor-sized buffer) puts any repeat next to its twin —
        unsorted-but-unique top-k output passes."""
        for name, (indices, _) in self.entries.items():
            if name in self._increasing:
                if not self._increasing[name]:
                    return True
            elif indices.size > 1 and not np.all(indices[1:] > indices[:-1]):
                ordered = np.sort(indices)
                if np.any(ordered[1:] == ordered[:-1]):
                    return True
        return False

    def scale(self, factor: float) -> "SparseGradient":
        return SparseGradient(
            {
                name: (indices.copy(), (values * factor).astype(VALUE_DTYPE))
                for name, (indices, values) in self.entries.items()
            },
            self.shapes,
        )

    # Size accounting -------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return sum(
            indices.nbytes + values.nbytes
            for indices, values in self.entries.values()
        )

    @property
    def num_selected(self) -> int:
        return sum(indices.size for indices, _ in self.entries.values())

    @property
    def num_elements(self) -> int:
        return sum(
            int(np.prod(shape)) if shape else 1 for shape in self.shapes.values()
        )

    def density(self) -> float:
        """Fraction of coordinates retained (<= 1.0)."""
        total = self.num_elements
        return self.num_selected / total if total else 0.0

    # Utilities ---------------------------------------------------------------
    def copy(self) -> "SparseGradient":
        return SparseGradient(
            {
                name: (indices.copy(), values.copy())
                for name, (indices, values) in self.entries.items()
            },
            self.shapes,
        )

    def allclose(self, other: "SparseGradient", **kwargs) -> bool:
        if self.shapes != other.shapes:
            return False
        mine, theirs = self.decompress(), other.decompress()
        return all(np.allclose(mine[name], theirs[name], **kwargs) for name in mine)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseGradient(tensors={len(self.entries)}, "
            f"selected={self.num_selected}/{self.num_elements})"
        )


class DenseScratch:
    """Reusable dense float64 buffers for :meth:`SparseGradient.decompress_into`.

    One flat buffer per tensor, allocated once; between scatters only the
    coordinates of the previous payload are re-zeroed.  An optimizer that
    must densify a payload keeps one, so neither live training nor recovery
    replay allocates dense arrays per step.
    """

    __slots__ = ("shapes", "_flat", "_touched")

    def __init__(self, shapes: dict[str, tuple]):
        self.shapes = {name: tuple(shape) for name, shape in shapes.items()}
        self._flat = {
            name: np.zeros(int(np.prod(shape)) if shape else 1)
            for name, shape in self.shapes.items()
        }
        self._touched: dict[str, np.ndarray | None] = {
            name: None for name in self.shapes
        }

    def reset_flat(self, name: str) -> np.ndarray:
        """Zero the previously touched coordinates; return the flat buffer."""
        flat = self._flat[name]
        touched = self._touched[name]
        if touched is not None:
            flat[touched] = 0.0
            self._touched[name] = None
        return flat

    def mark_touched(self, name: str, indices: np.ndarray) -> None:
        self._touched[name] = indices

    def shaped(self, name: str) -> np.ndarray:
        return self._flat[name].reshape(self.shapes[name])


def global_offsets(names, shapes: dict[str, tuple]) -> tuple[dict[str, int], int]:
    """The flat global index space over ``names`` in order: each tensor's
    offset, and the total size.  The one table behind union-add, the shard
    layout and the dense merge node."""
    offsets: dict[str, int] = {}
    total = 0
    for name in names:
        offsets[name] = total
        total += int(math.prod(shapes[name]))
    return offsets, total


def _split_per_tensor(global_indices: np.ndarray, values: np.ndarray, names,
                      shapes: dict[str, tuple]) -> "SparseGradient":
    """Cut sorted global indices (and their values) back into per-tensor
    entries — the inverse of lifting by :func:`global_offsets`."""
    offsets, total = global_offsets(names, shapes)
    cuts = np.searchsorted(
        global_indices, [offsets[name] for name in names] + [total])
    return SparseGradient({
        name: ((global_indices[low:high] - offsets[name]).astype(INDEX_DTYPE),
               values[low:high])
        for name, low, high in zip(names, cuts[:-1], cuts[1:])
    }, shapes)


class DenseNode:
    """Dense fp32 accumulator over global indices ``[lo, lo + buf.size)``:
    an internal node of the recovery merge tree, where unions of ρ-sparse
    leaves are dense.  Merging is a gather-add-scatter (node + leaf) or an
    in-place ``np.add`` (node + node): no sort, and per coordinate
    bit-identical to :meth:`SparseGradient.add`'s ``fp32(fp64(a) +
    fp64(b))`` — for two fp32 addends, rounding the fp64 sum (53 >= 2*24+2
    bits) to fp32 gives the fp32 sum.  Absent coordinates are ``+0.0``,
    union-add's zero.  Payloads with duplicate indices (three addends on
    a coordinate) do not fit; the fold merges those with ``add`` itself.
    """

    __slots__ = ("shapes", "lo", "buf")

    def __init__(self, shapes: dict[str, tuple], lo: int, buf: np.ndarray):
        self.shapes, self.lo, self.buf = shapes, lo, buf

    def accumulate(self, payload: "SparseGradient") -> None:
        """``buf[index] += value`` for a duplicate-free payload."""
        offsets, _ = global_offsets(payload.shapes, payload.shapes)
        for name, (indices, values) in payload.entries.items():
            if indices.size:
                self.buf[indices.astype(np.intp) + (offsets[name] - self.lo)] \
                    += values

    def to_sparse(self) -> "SparseGradient":
        """The node as a sorted, duplicate-free payload (exact zeros
        dropped: apply-equivalent)."""
        nonzero = np.flatnonzero(self.buf)
        return _split_per_tensor(nonzero + self.lo, self.buf[nonzero],
                                 list(self.shapes), self.shapes)

    @staticmethod
    def tensors(nodes: list["DenseNode"]) -> dict[str, np.ndarray]:
        """Dense float64 gradients from nodes tiling the index space."""
        shapes = nodes[0].shapes
        flat = np.concatenate([node.buf for node in nodes], dtype=np.float64)
        return {name: flat[offset:offset + math.prod(shapes[name])]
                .reshape(shapes[name])
                for name, offset in global_offsets(shapes, shapes)[0].items()}


def _union_add_ordered(payloads: list["SparseGradient"]) -> "SparseGradient | None":
    """Vectorized k-way merge with left-fold rounding semantics.

    One stable sort lifts every entry into the global index space tagged
    with its payload order; per coordinate, contributions are then folded
    in that order with the exact float64-pair + fp32-round step a
    sequential ``add`` chain performs — vectorized across all coordinates
    at fold level ``p`` at once.  Returns ``None`` when some payload holds
    duplicate indices (the caller falls back to the true fold, whose
    intra-payload accumulation order cannot be reproduced level-wise).
    """
    first = payloads[0]
    names = list(first.entries)
    offsets, _ = global_offsets(names, first.shapes)
    index_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []
    payload_ids: list[np.ndarray] = []
    for position, payload in enumerate(payloads):
        for name in names:
            indices, values = payload.entries[name]
            index_parts.append(indices.astype(np.int64) + offsets[name])
            value_parts.append(values)
            payload_ids.append(np.full(indices.shape[0], position, dtype=np.int32))
    if index_parts:
        global_indices = np.concatenate(index_parts)
        global_values = np.concatenate(value_parts)
        global_payload = np.concatenate(payload_ids)
    else:
        global_indices = np.array([], dtype=np.int64)
        global_values = np.array([], dtype=VALUE_DTYPE)
        global_payload = np.array([], dtype=np.int32)
    order = np.argsort(global_indices, kind="stable")
    sorted_indices = global_indices[order]
    sorted_values = global_values[order]
    count = sorted_indices.shape[0]
    if count:
        same_index = sorted_indices[1:] == sorted_indices[:-1]
        # Stable sort keeps payload order within a coordinate, so a
        # duplicate inside one payload shows up as adjacent equal pairs
        # with an equal payload id.
        sorted_payload = global_payload[order]
        if np.any(same_index & (sorted_payload[1:] == sorted_payload[:-1])):
            return None
        boundaries = np.empty(count, dtype=bool)
        boundaries[0] = True
        boundaries[1:] = ~same_index
        starts = np.flatnonzero(boundaries)
        unique_indices = sorted_indices[starts]
        group_of = np.cumsum(boundaries) - 1
        rank = np.arange(count, dtype=np.int64) - starts[group_of]
        acc = sorted_values[starts].astype(VALUE_DTYPE, copy=True)
        max_rank = int(rank.max()) if count else 0
        remaining = np.flatnonzero(rank > 0)
        level = 1
        while remaining.size:
            sel = remaining[rank[remaining] == level]
            if sel.size:
                groups = group_of[sel]
                folded = (acc[groups].astype(np.float64)
                          + sorted_values[sel].astype(np.float64))
                acc[groups] = folded.astype(VALUE_DTYPE)
                if sel.size == remaining.size:
                    break
                remaining = remaining[rank[remaining] > level]
            level += 1
            if level > max_rank:
                break
    else:
        unique_indices = np.array([], dtype=np.int64)
        acc = np.array([], dtype=VALUE_DTYPE)
    return _split_per_tensor(unique_indices, acc, names, first.shapes)


def _union_add(payloads: list["SparseGradient"]) -> "SparseGradient":
    """Vectorized union-add kernel behind ``add``.

    Lifts every tensor's indices into one global int64 index space via
    per-tensor offsets, merges with a single ``np.unique`` +
    ``np.bincount(inverse, weights)`` (which accumulates in input order,
    matching ``np.add.at`` bit-for-bit, and releases the GIL), then splits
    the sorted global result back per tensor with ``searchsorted``.
    """
    first = payloads[0]
    names = list(first.entries)
    offsets, _ = global_offsets(names, first.shapes)
    index_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []
    for payload in payloads:
        for name in names:
            indices, values = payload.entries[name]
            index_parts.append(indices.astype(np.int64) + offsets[name])
            value_parts.append(values.astype(np.float64))
    if index_parts:
        global_indices = np.concatenate(index_parts)
        global_values = np.concatenate(value_parts)
    else:  # zero tensors in the parameter space
        global_indices = np.array([], dtype=np.int64)
        global_values = np.array([], dtype=np.float64)
    unique_indices, inverse = np.unique(global_indices, return_inverse=True)
    summed = np.bincount(inverse, weights=global_values,
                         minlength=unique_indices.shape[0])
    return _split_per_tensor(unique_indices, summed.astype(VALUE_DTYPE),
                             names, first.shapes)
