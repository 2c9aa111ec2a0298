"""Tests for gradient compression: containers, compressors, algebra.

Includes the hypothesis property suite on SparseGradient — the algebra
whose associativity/commutativity the batched writer and parallel
recovery depend on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import (
    DenseGradient,
    ErrorFeedbackCompressor,
    IdentityCompressor,
    QSGDCompressor,
    RandomKCompressor,
    SparseGradient,
    ThresholdCompressor,
    TopKCompressor,
    UniformQuantizer,
)
from repro.compression.sparse import SortedIndices
from repro.compression.topk import topk_indices
from repro.utils.rng import Rng


def named(rng, shapes=((5,), (3, 4))):
    return {f"t{i}": rng.normal(size=s) for i, s in enumerate(shapes)}


# ---------------------------------------------------------------------------
# Top-k
# ---------------------------------------------------------------------------

class TestTopK:
    def test_selects_largest_magnitudes(self):
        flat = np.array([0.1, -5.0, 2.0, 0.0, 3.0])
        chosen = topk_indices(flat, 2)
        assert set(chosen) == {1, 4}

    def test_tie_break_deterministic(self):
        flat = np.array([1.0, -1.0, 1.0, 1.0])
        chosen_a = topk_indices(flat.copy(), 2)
        chosen_b = topk_indices(flat.copy(), 2)
        np.testing.assert_array_equal(chosen_a, chosen_b)
        assert len(chosen_a) == 2

    def test_k_exceeds_size(self):
        flat = np.array([1.0, 2.0])
        np.testing.assert_array_equal(topk_indices(flat, 10), [0, 1])

    def test_ratio_respected(self, rng):
        grads = {"w": rng.normal(size=(1000,))}
        payload = TopKCompressor(0.01).compress(grads)
        assert payload.num_selected == 10

    def test_at_least_one_element(self, rng):
        grads = {"w": rng.normal(size=(5,))}
        payload = TopKCompressor(0.01).compress(grads)
        assert payload.num_selected == 1

    def test_decompressed_values_match(self, rng):
        grads = {"w": rng.normal(size=(100,))}
        payload = TopKCompressor(0.1).compress(grads)
        dense = payload.decompress()["w"]
        # Retained coordinates match the original (to fp32 storage precision).
        mask = dense != 0
        np.testing.assert_allclose(dense[mask], grads["w"][mask], rtol=1e-6)
        assert mask.sum() == 10

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            TopKCompressor(0.0)
        with pytest.raises(ValueError):
            TopKCompressor(1.0)

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=50)
    def test_topk_count_property(self, size, k):
        flat = Rng(size * 100 + k).normal(size=(size,))
        chosen = topk_indices(flat, k)
        assert len(chosen) == min(k, size)
        assert len(set(chosen.tolist())) == len(chosen)
        # Every chosen magnitude >= every unchosen magnitude.
        if len(chosen) < size:
            unchosen = np.setdiff1d(np.arange(size), chosen)
            assert np.abs(flat[chosen]).min() >= np.abs(flat[unchosen]).max() - 1e-12

    @staticmethod
    def _reference_topk(flat, k):
        """The pre-dual-pivot implementation: partition once, then resolve
        ties with two full-array scans (lowest index wins)."""
        size = flat.size
        if k >= size:
            return np.arange(size, dtype=np.int64)
        magnitude = np.abs(flat)
        candidate = np.argpartition(magnitude, size - k)[size - k:]
        threshold = magnitude[candidate].min()
        strictly_above = np.flatnonzero(magnitude > threshold)
        at_threshold = np.flatnonzero(magnitude == threshold)
        need = k - strictly_above.size
        return np.sort(np.concatenate([strictly_above, at_threshold[:need]]))

    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=60),
           st.sampled_from(["float", "tie_heavy", "all_equal", "one_spike"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_implementation(self, size, k, kind):
        """The dual-pivot fast path (and its tie-straddle fallback) selects
        exactly what the historical two-scan implementation selected."""
        rng = Rng(size * 1000 + k)
        if kind == "float":
            flat = rng.normal(size=(size,))
        elif kind == "tie_heavy":  # small-int magnitudes: ties everywhere
            flat = rng.integers(-3, 4, size=(size,)).astype(np.float64)
        elif kind == "all_equal":
            flat = np.full(size, 2.5)
        else:  # one_spike: everything ties except one coordinate
            flat = np.ones(size)
            flat[rng.integers(0, size)] = 7.0
        np.testing.assert_array_equal(topk_indices(flat, k),
                                      self._reference_topk(flat, k))


# ---------------------------------------------------------------------------
# SparseGradient algebra (hypothesis)
# ---------------------------------------------------------------------------

def sparse_strategy(size=10, name="w"):
    """Random SparseGradient over a fixed parameter space."""
    entry = st.lists(
        st.tuples(st.integers(0, size - 1),
                  st.floats(-10, 10, allow_nan=False, width=32)),
        max_size=size,
    )

    def build(pairs):
        seen = {}
        for index, value in pairs:
            seen[index] = value  # dedupe indices
        indices = np.array(sorted(seen), dtype=np.int32)
        values = np.array([seen[i] for i in sorted(seen)], dtype=np.float32)
        return SparseGradient({name: (indices, values)}, {name: (size,)})

    return entry.map(build)


class TestSparseGradientAlgebra:
    @given(sparse_strategy(), sparse_strategy())
    @settings(max_examples=100)
    def test_add_commutative(self, a, b):
        ab = a.add(b).decompress()["w"]
        ba = b.add(a).decompress()["w"]
        np.testing.assert_allclose(ab, ba, atol=1e-5)

    @given(sparse_strategy(), sparse_strategy(), sparse_strategy())
    @settings(max_examples=100)
    def test_add_associative(self, a, b, c):
        left = a.add(b).add(c).decompress()["w"]
        right = a.add(b.add(c)).decompress()["w"]
        np.testing.assert_allclose(left, right, atol=1e-4)

    @given(sparse_strategy())
    @settings(max_examples=50)
    def test_add_zero_identity(self, a):
        zero = SparseGradient.zeros_like(a.shapes)
        np.testing.assert_allclose(
            a.add(zero).decompress()["w"], a.decompress()["w"], atol=1e-6
        )

    @given(sparse_strategy(), st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=50)
    def test_scale_matches_dense(self, a, factor):
        scaled = a.scale(factor).decompress()["w"]
        np.testing.assert_allclose(scaled, a.decompress()["w"] * factor,
                                   atol=1e-3, rtol=1e-3)

    @given(sparse_strategy(), sparse_strategy())
    @settings(max_examples=100)
    def test_add_equals_dense_add(self, a, b):
        merged = a.add(b).decompress()["w"]
        dense = a.decompress()["w"] + b.decompress()["w"]
        np.testing.assert_allclose(merged, dense, atol=1e-5)


class TestSparseGradientContainer:
    def test_nbytes_accounting(self):
        payload = SparseGradient(
            {"w": (np.arange(5, dtype=np.int32),
                   np.ones(5, dtype=np.float32))},
            {"w": (100,)},
        )
        assert payload.nbytes == 5 * 4 + 5 * 4
        assert payload.density() == 0.05

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            SparseGradient({"w": (np.array([100]), np.array([1.0]))}, {"w": (10,)})

    def test_a_proven_sorted_run_is_range_checked_at_its_ends(self):
        run = np.arange(0, 20, 2, dtype=np.int32).view(SortedIndices)
        run.increasing = True           # as a delta decoder leaves it
        ones, shapes = np.ones(run.size, np.float32), {"w": (20,)}
        assert not SparseGradient({"w": (run, ones)}, shapes).has_duplicates()
        derived = run + 0               # a ufunc result: checked in full
        derived[4] = 99
        with pytest.raises(IndexError):
            SparseGradient({"w": (derived, ones)}, shapes)
        run[5], run.increasing = run[4], False      # a zero gap: a repeat
        assert SparseGradient({"w": (run, ones)}, shapes).has_duplicates()

    def test_mismatched_entry_shapes_rejected(self):
        with pytest.raises(ValueError):
            SparseGradient({"w": (np.array([1, 2]), np.array([1.0]))}, {"w": (10,)})

    def test_shapes_entries_keys_must_match(self):
        with pytest.raises(KeyError):
            SparseGradient({"w": (np.array([0]), np.array([1.0]))}, {"v": (10,)})

    def test_add_different_spaces_rejected(self):
        a = SparseGradient.zeros_like({"w": (10,)})
        b = SparseGradient.zeros_like({"w": (20,)})
        with pytest.raises(KeyError):
            a.add(b)

    def test_copy_independent(self):
        a = SparseGradient({"w": (np.array([1]), np.array([2.0]))}, {"w": (5,)})
        b = a.copy()
        b.entries["w"][1][0] = 99.0
        assert a.entries["w"][1][0] == 2.0


# ---------------------------------------------------------------------------
# Other compressors
# ---------------------------------------------------------------------------

class TestRandomK:
    def test_same_stream_same_mask(self, rng):
        grads = named(rng)
        a = RandomKCompressor(0.2, rng=Rng(5)).compress(grads)
        b = RandomKCompressor(0.2, rng=Rng(5)).compress(grads)
        for name in a.entries:
            np.testing.assert_array_equal(a.entries[name][0], b.entries[name][0])

    def test_masks_change_over_calls(self, rng):
        comp = RandomKCompressor(0.2, rng=Rng(5))
        grads = named(rng)
        a = comp.compress(grads)
        b = comp.compress(grads)
        assert any(
            not np.array_equal(a.entries[n][0], b.entries[n][0])
            for n in a.entries
        )

    def test_unbiased_rescaling(self):
        rng = Rng(0)
        grads = {"w": np.ones(1000)}
        comp = RandomKCompressor(0.1, rng=rng)
        total = np.zeros(1000)
        trials = 200
        for _ in range(trials):
            total += comp.compress(grads).decompress()["w"]
        mean = total / trials
        # Global mean converges fast; per-coordinate variance is
        # sqrt((1-p)/p/trials) ~ 0.21, so allow ~4 sigma per coordinate.
        assert abs(mean.mean() - 1.0) < 0.02
        assert np.abs(mean - 1.0).max() < 0.9

    def test_no_rescale_option(self, rng):
        grads = {"w": rng.normal(size=(100,))}
        payload = RandomKCompressor(0.1, rng=Rng(1), rescale=False).compress(grads)
        dense = payload.decompress()["w"]
        mask = dense != 0
        np.testing.assert_allclose(dense[mask], grads["w"][mask], rtol=1e-6)


class TestThreshold:
    def test_absolute_threshold(self):
        grads = {"w": np.array([0.1, -2.0, 0.5, 3.0])}
        payload = ThresholdCompressor(threshold=1.0).compress(grads)
        dense = payload.decompress()["w"]
        np.testing.assert_allclose(dense, [0.0, -2.0, 0.0, 3.0])

    def test_relative_threshold(self):
        grads = {"w": np.array([0.1, -2.0, 0.5, 4.0])}
        payload = ThresholdCompressor(relative=0.5).compress(grads)
        dense = payload.decompress()["w"]
        np.testing.assert_allclose(dense, [0.0, -2.0, 0.0, 4.0])

    def test_keeps_at_least_one(self):
        grads = {"w": np.array([0.1, 0.2])}
        payload = ThresholdCompressor(threshold=100.0).compress(grads)
        assert payload.num_selected == 1

    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            ThresholdCompressor()
        with pytest.raises(ValueError):
            ThresholdCompressor(threshold=1.0, relative=0.5)


class TestQuantization:
    def test_roundtrip_error_bounded(self, rng):
        grads = {"w": rng.normal(size=(100,))}
        payload = UniformQuantizer(num_levels=127).compress(grads)
        dense = payload.decompress()["w"]
        scale = np.abs(grads["w"]).max()
        assert np.abs(dense - grads["w"]).max() <= scale / 127 + 1e-12

    def test_zero_tensor(self):
        payload = UniformQuantizer().compress({"w": np.zeros(10)})
        np.testing.assert_array_equal(payload.decompress()["w"], 0.0)

    def test_qsgd_unbiased(self):
        grads = {"w": np.full(500, 0.37)}
        comp = QSGDCompressor(num_levels=4, rng=Rng(3))
        total = np.zeros(500)
        trials = 300
        for _ in range(trials):
            total += comp.compress(grads).decompress()["w"]
        assert abs(total.mean() / trials - 0.37) < 0.01

    def test_add_requantizes(self, rng):
        grads = {"w": rng.normal(size=(50,))}
        quant = UniformQuantizer(127)
        a = quant.compress(grads)
        b = quant.compress(grads)
        merged = a.add(b).decompress()["w"]
        np.testing.assert_allclose(merged, 2 * a.decompress()["w"], atol=0.1)

    def test_scale(self, rng):
        grads = {"w": rng.normal(size=(50,))}
        payload = UniformQuantizer(127).compress(grads)
        np.testing.assert_allclose(
            payload.scale(2.0).decompress()["w"],
            2 * payload.decompress()["w"],
        )

    def test_nbytes_smaller_than_dense(self, rng):
        grads = {"w": rng.normal(size=(1000,))}
        payload = UniformQuantizer(127).compress(grads)
        assert payload.nbytes < DenseGradient(grads).nbytes


class TestErrorFeedback:
    def test_residual_compensation(self):
        # With a constant gradient, error feedback must eventually transmit
        # the energy of every coordinate, not only the top ones.
        comp = ErrorFeedbackCompressor(TopKCompressor(0.34))
        grads = {"w": np.array([1.0, 0.5, 0.1])}
        transmitted = np.zeros(3)
        for _ in range(30):
            transmitted += comp.compress(grads).decompress()["w"]
        np.testing.assert_allclose(transmitted / 30, grads["w"], atol=0.15)

    def test_residual_norm_bounded(self, rng):
        comp = ErrorFeedbackCompressor(TopKCompressor(0.5))
        for _ in range(20):
            comp.compress({"w": rng.normal(size=(40,))})
        assert comp.residual_norm() < 40.0

    def test_reset_clears_memory(self, rng):
        comp = ErrorFeedbackCompressor(TopKCompressor(0.1))
        comp.compress({"w": rng.normal(size=(40,))})
        assert comp.residual_norm() > 0
        comp.reset()
        assert comp.residual_norm() == 0.0

    def test_ratio_passthrough(self):
        assert ErrorFeedbackCompressor(TopKCompressor(0.07)).ratio == 0.07


class TestIdentityAndDense:
    def test_identity_roundtrip(self, rng):
        grads = named(rng)
        payload = IdentityCompressor().compress(grads)
        out = payload.decompress()
        for name in grads:
            np.testing.assert_array_equal(out[name], grads[name])

    def test_dense_add_scale(self, rng):
        grads = named(rng)
        payload = DenseGradient(grads)
        doubled = payload.add(payload).decompress()
        for name in grads:
            np.testing.assert_allclose(doubled[name], 2 * grads[name])
        halved = payload.scale(0.5).decompress()
        for name in grads:
            np.testing.assert_allclose(halved[name], 0.5 * grads[name])

    def test_dense_add_mismatch_rejected(self, rng):
        a = DenseGradient({"w": rng.normal(size=(3,))})
        b = DenseGradient({"v": rng.normal(size=(3,))})
        with pytest.raises(KeyError):
            a.add(b)

    def test_dense_nbytes(self, rng):
        payload = DenseGradient({"w": np.zeros(10)})
        assert payload.nbytes == 80
