"""Tests for the pickle-free checkpoint serializer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.serializer import MAGIC, pack_tree, serialized_size, unpack_tree


def arrays_strategy():
    dtype = st.sampled_from(["float64", "float32", "int32", "int64", "uint8", "bool"])
    shape = st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple)

    def build(args):
        dt, sh = args
        count = int(np.prod(sh)) if sh else 1
        data = np.arange(count).reshape(sh) if sh else np.array(7)
        return data.astype(dt)

    return st.tuples(dtype, shape).map(build)


def tree_strategy():
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-2**31, 2**31),
        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=20),
    )
    return st.recursive(
        st.one_of(scalars, arrays_strategy()),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=10,
    )


def trees_equal(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and \
            a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and set(a) == set(b) and \
            all(trees_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and \
            all(trees_equal(x, y) for x, y in zip(a, b))
    return a == b


class TestRoundTrip:
    def test_simple_state_dict(self, rng):
        tree = {"model": {"w": rng.normal(size=(3, 4))}, "step": 7}
        out = unpack_tree(pack_tree(tree))
        assert trees_equal(tree, out)

    def test_nested_optimizer_state(self, rng):
        tree = {
            "type": "Adam", "lr": 1e-3, "step_count": 42,
            "slots": {"w": {"m": rng.normal(size=(5,)), "v": rng.normal(size=(5,))}},
        }
        assert trees_equal(tree, unpack_tree(pack_tree(tree)))

    def test_dtype_and_shape_preserved(self):
        tree = {"a": np.zeros((0, 3), dtype=np.float32),
                "b": np.array(True), "c": np.int16([1, 2]).astype(np.int16)}
        out = unpack_tree(pack_tree(tree))
        assert out["a"].dtype == np.float32 and out["a"].shape == (0, 3)
        assert out["c"].dtype == np.int16

    def test_tuples_distinct_from_lists(self):
        tree = {"t": (1, 2), "l": [1, 2]}
        out = unpack_tree(pack_tree(tree))
        assert isinstance(out["t"], tuple) and isinstance(out["l"], list)

    @given(tree_strategy())
    @settings(max_examples=100)
    def test_property_roundtrip(self, tree):
        assert trees_equal(tree, unpack_tree(pack_tree(tree)))

    def test_serialized_size_matches(self, rng):
        tree = {"w": rng.normal(size=(100,))}
        assert serialized_size(tree) == len(pack_tree(tree))


class TestSafety:
    def test_rejects_bad_magic(self):
        data = b"NOTMAGIC" + b"\x00" * 100
        with pytest.raises(ValueError):
            unpack_tree(data)

    def test_rejects_unframed_legacy_container(self, rng):
        """A ``LOWDIFF1`` blob carries neither the total-length frame nor
        the manifest CRC; it is corruption, not a format to parse."""
        from repro.storage.serializer import CorruptCheckpointError
        data = pack_tree({"w": rng.normal(size=(10,))})
        with pytest.raises(CorruptCheckpointError, match="magic"):
            unpack_tree(b"LOWDIFF1" + data[8:])

    def test_rejects_truncated_header(self):
        with pytest.raises(ValueError):
            unpack_tree(MAGIC[:4])

    def test_rejects_truncated_blob(self, rng):
        data = pack_tree({"w": rng.normal(size=(100,))})
        with pytest.raises(ValueError):
            unpack_tree(data[:-10])

    def test_rejects_truncated_manifest(self, rng):
        data = pack_tree({"w": rng.normal(size=(10,))})
        with pytest.raises(ValueError):
            unpack_tree(data[:12])

    def test_rejects_unserializable_object(self):
        with pytest.raises(TypeError):
            pack_tree({"fn": lambda x: x})

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            pack_tree({1: "a"})

    def test_rejects_object_dtype(self):
        with pytest.raises(TypeError):
            pack_tree({"a": np.array([object()])})

    def test_numpy_scalars_coerced(self):
        out = unpack_tree(pack_tree({"i": np.int64(5), "f": np.float32(2.5)}))
        assert out["i"] == 5 and out["f"] == 2.5


class TestPayloadCodec:
    def test_sparse_roundtrip(self, rng):
        from repro.compression import SparseGradient, TopKCompressor
        from repro.storage.payload_codec import payload_to_tree, tree_to_payload
        payload = TopKCompressor(0.3).compress({"w": rng.normal(size=(20,))})
        restored = tree_to_payload(
            unpack_tree(pack_tree(payload_to_tree(payload))))
        assert isinstance(restored, SparseGradient)
        np.testing.assert_array_equal(
            restored.decompress()["w"], payload.decompress()["w"])

    def test_dense_roundtrip(self, rng):
        from repro.compression import DenseGradient
        from repro.storage.payload_codec import payload_to_tree, tree_to_payload
        payload = DenseGradient({"w": rng.normal(size=(5,))})
        restored = tree_to_payload(
            unpack_tree(pack_tree(payload_to_tree(payload))))
        np.testing.assert_array_equal(
            restored.decompress()["w"], payload.decompress()["w"])

    def test_quantized_roundtrip(self, rng):
        from repro.compression import UniformQuantizer
        from repro.storage.payload_codec import payload_to_tree, tree_to_payload
        payload = UniformQuantizer(127).compress({"w": rng.normal(size=(9,))})
        restored = tree_to_payload(
            unpack_tree(pack_tree(payload_to_tree(payload))))
        np.testing.assert_allclose(
            restored.decompress()["w"], payload.decompress()["w"])

    def test_state_delta_roundtrip(self, rng):
        from repro.core.differential import StateDelta
        from repro.compression import TopKCompressor
        from repro.storage.payload_codec import payload_to_tree, tree_to_payload
        delta = StateDelta(
            params=TopKCompressor(0.5).compress({"w": rng.normal(size=(6,))}),
            optimizer_slots={"w/m": rng.normal(size=(6,))},
            step_count_delta=3,
        )
        restored = tree_to_payload(
            unpack_tree(pack_tree(payload_to_tree(delta))))
        assert isinstance(restored, StateDelta)
        assert restored.step_count_delta == 3
        np.testing.assert_allclose(restored.optimizer_slots["w/m"],
                                   delta.optimizer_slots["w/m"])

    def test_unknown_kind_rejected(self):
        from repro.storage.payload_codec import tree_to_payload
        with pytest.raises(ValueError):
            tree_to_payload({"kind": "mystery"})

    def test_unencodable_payload_rejected(self):
        from repro.storage.payload_codec import payload_to_tree
        with pytest.raises(TypeError):
            payload_to_tree(42)


class TestIntegrity:
    def test_bit_flip_in_blob_detected(self, rng):
        data = bytearray(pack_tree({"w": rng.normal(size=(64,))}))
        data[-7] ^= 0xFF  # corrupt a byte deep inside the blob region
        with pytest.raises(ValueError, match="CRC"):
            unpack_tree(bytes(data))

    def test_verify_can_be_skipped(self, rng):
        data = bytearray(pack_tree({"w": rng.normal(size=(64,))}))
        data[-7] ^= 0xFF
        # verify=False loads the (corrupt) array without raising.
        tree = unpack_tree(bytes(data), verify=False)
        assert tree["w"].shape == (64,)

    def test_clean_data_passes_crc(self, rng):
        tree = {"w": rng.normal(size=(64,))}
        out = unpack_tree(pack_tree(tree))
        assert np.array_equal(out["w"], tree["w"])
