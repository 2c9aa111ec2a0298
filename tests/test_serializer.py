"""Tests for the pickle-free checkpoint serializer."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.serializer import (
    _ALLOWED_DTYPES,
    _HEADER,
    MAGIC,
    CorruptCheckpointError,
    pack_tree,
    pack_tree_into,
    pack_tree_into_view,
    pack_tree_parts,
    pack_tree_with_crc,
    prepare_transit,
    unpack_tree,
)


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
        """The header's ``total_len`` is the packed length."""
        data = pack_tree({"w": rng.normal(size=(100,))})
        assert _HEADER.unpack_from(data)[2] == len(data)


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


def _build_array(spec):
    dtype, kind, seed = spec
    dtype = np.dtype(dtype)
    if kind == "empty":
        return np.zeros((0, 3) if seed % 2 else (0,), dtype=dtype)
    if kind == "zero_d":
        return np.array(seed % 2, dtype=dtype)
    count = {"small": 1 + seed % 64, "strided": 2 * (2 + seed % 31),
             "big": (1 << 20) // dtype.itemsize + 1 + seed % 7}[kind]
    flat = (np.arange(count) * (seed + 1) % 251).astype(dtype)
    if kind == "strided":
        flat = flat.reshape(2, -1).T   # F-ordered view: not C-contiguous
        assert not flat.flags.c_contiguous
    return flat


@st.composite
def checksum_trees(draw):
    """0-40 arrays over every allowed dtype — zero-length, 0-d,
    non-contiguous, and at most two >= 1 MB — plus scalars, folded into
    nested dicts/lists/tuples."""
    spec = st.tuples(st.sampled_from(sorted(_ALLOWED_DTYPES)),
                     st.sampled_from(["empty", "zero_d", "small", "strided"]),
                     st.integers(0, 1000))
    big = st.tuples(st.sampled_from(sorted(_ALLOWED_DTYPES)), st.just("big"),
                    st.integers(0, 1000))
    count = draw(st.integers(0, 38))   # drawn first: lists alone stay short
    nodes = [_build_array(one) for one in
             draw(st.lists(spec, min_size=count, max_size=count))
             + draw(st.lists(big, max_size=2))]
    nodes += draw(st.lists(st.one_of(
        st.none(), st.booleans(), st.integers(-2**40, 2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=12)), max_size=6))
    while len(nodes) > 1:
        width = draw(st.integers(2, min(len(nodes), 6)))
        group, nodes = nodes[:width], nodes[width:]
        kind = draw(st.sampled_from(["dict", "list", "tuple"]))
        nodes.append({f"k{i}": node for i, node in enumerate(group)}
                     if kind == "dict" else
                     list(group) if kind == "list" else tuple(group))
    return {"root": nodes[0]} if nodes else {}


class TestChecksumIsTheChecksum:
    """Every pack entry point returns ``zlib.crc32`` of exactly the bytes
    it produced, and they all produce the same bytes."""

    @given(checksum_trees())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_property_crc_and_bytes_agree_across_entry_points(self, tree):
        data, crc = pack_tree_with_crc(tree)
        assert crc == zlib.crc32(data)
        assert len(pack_tree(tree)) == len(data)
        assert trees_equal(tree, unpack_tree(data, verify=True))

        parts, parts_crc = pack_tree_parts(tree)
        assert (b"".join(parts), parts_crc) == (data, crc)

        view, into_crc = pack_tree_into(tree, bytearray())
        assert (bytes(view), into_crc) == (data, crc)
        view.release()
        # A reused, over-sized buffer: the stale tail is not packed,
        # not checksummed, and the buffer is not resized.
        pooled = bytearray(b"\xaa" * (len(data) + 4096))
        view, pooled_crc = pack_tree_into(tree, pooled)
        assert (bytes(view), pooled_crc) == (data, crc)
        view.release()
        assert len(pooled) == len(data) + 4096

        region = memoryview(bytearray(b"\x55" * (len(data) + 100)))
        nbytes, region_crc = pack_tree_into_view(tree, region)
        assert (bytes(region[:nbytes]), region_crc) == (data, crc)

    def test_pinned_vector_from_the_combine_era(self):
        """Bytes and CRC captured at the last commit that derived the
        whole-container CRC with ``crc32_combine``: the format did not
        move."""
        tree = {"step": 3, "w": np.array([1.0, -2.0], dtype=np.float32),
                "tag": ("a", None)}
        data, crc = pack_tree_with_crc(tree)
        assert data == (
            b'LOWDIFF2#\x01\x00\x00\x00\x00\x00\x00G\x01\x00\x00\x00\x00'
            b'\x00\x00_\xa8\x81\xb3{"root":{"__kind__":"dict","items":{"step":'
            b'{"__kind__":"scalar","value":3},"w":{"__kind__":"ndarray","dtype":'
            b'"float32","shape":[2],"blob":0},"tag":{"__kind__":"tuple","items":'
            b'[{"__kind__":"scalar","value":"a"},{"__kind__":"scalar","value":'
            b'null}]}}},"blob_sizes":[8],"blob_crcs":[3280414294]}'
            b'\x00\x00\x80?\x00\x00\x00\xc0')
        assert crc == 3546512610


class TestTransitContainer:
    """What crosses the shared-memory ring: same framing, no checksums."""

    def test_packs_without_checksums_and_reads_back_unverified(self, rng):
        tree = {"step": 5, "g": {"indices": np.arange(40, dtype=np.int64),
                                 "values": rng.normal(size=(40,))}}
        prepared = prepare_transit(tree)
        region = memoryview(bytearray(prepared.total_len + 64))
        nbytes, crc = pack_tree_into_view(prepared, region)
        assert nbytes == prepared.total_len and crc is None
        packed = region[:nbytes]
        _, manifest_len, total_len, manifest_crc = _HEADER.unpack_from(packed)
        manifest = json.loads(bytes(packed[_HEADER.size:_HEADER.size + manifest_len]))
        assert "blob_crcs" not in manifest and manifest_crc == 0
        assert total_len == nbytes < len(pack_tree(tree))
        assert trees_equal(tree, unpack_tree(packed, verify=False))

    def test_cannot_pass_for_a_stored_checkpoint(self, rng):
        prepared = prepare_transit({"w": rng.normal(size=(16,))})
        region = memoryview(bytearray(prepared.total_len))
        pack_tree_into_view(prepared, region)
        with pytest.raises(CorruptCheckpointError, match="manifest failed CRC"):
            unpack_tree(region)

    def test_view_too_small_is_refused(self, rng):
        prepared = prepare_transit({"w": rng.normal(size=(16,))})
        with pytest.raises(ValueError, match="too small"):
            pack_tree_into_view(
                prepared, memoryview(bytearray(prepared.total_len - 1)))
