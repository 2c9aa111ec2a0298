"""Tests for the payload-codec layer.

Pins its contracts:

* the lossless transforms (zigzag/varint, byte planes) and the codec
  built on them are **bit-exact** for every payload kind × dtype,
  including empty and 1-element sparse entries;
* the entropy gate skips only planes deflate would not keep, so it moves
  encode time and never a byte; what encoding and decoding a record cost
  is pinned as call counts;
* exact-zero elements are elided behind a packed mask exactly when the
  mask pays for itself, and a mask that disagrees with its planes raises;
* codec selection is per-record and self-describing — encoded, uncoded
  and mixed series all stay readable, and unknown codec ids (including
  the retired ``"lossy"``) fail with a typed, actionable error instead of
  a raw KeyError or a silently wrong state;
* encoded chains survive the rest of the stack unchanged: async-engine
  persistence, ChainCompactor merge/rebase, recovery, verify/repair.
"""

import copy
import json
import math
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import obs
from repro.compression import TopKCompressor
from repro.compression.base import DenseGradient
from repro.compression.quantization import QuantizedGradient, UniformQuantizer
from repro.compression.sparse import SparseGradient
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.core.differential import StateDelta
from repro.core.recovery import parallel_recover, serial_recover
from repro.distributed import DataParallelTrainer, SyntheticClassification
from repro.optim import SGD, Adam
from repro.storage import (
    ChainCompactor,
    CheckpointStore,
    CorruptCheckpointError,
    InMemoryBackend,
    LosslessCodec,
    RetentionPolicy,
    UnknownCodecError,
)
from repro.storage import payload_codec, serializer
from repro.storage.async_engine import AsyncCheckpointEngine
from repro.storage.payload_codec import (
    CODEC_TAG,
    ENC_KEY,
    NODE_OVERHEAD_BYTES,
    ZLIB_LEVEL_PLANE,
    decode_array,
    encode_array,
    logical_nbytes,
    make_codec,
    payload_to_tree,
    tree_to_payload,
)
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import Recorder, assert_optimizers_equal, assert_states_equal
from tests.helpers import build_chain, model_factory, recover_fresh
from tests.test_costs import check


def assert_trees_bit_equal(a, b, path=""):
    """Recursive bit-exact comparison (NaNs compare equal via byte view)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype, f"{path}: dtype {a.dtype} != {b.dtype}"
        assert a.shape == b.shape, f"{path}: shape {a.shape} != {b.shape}"
        assert a.tobytes() == b.tobytes(), f"{path}: bytes differ"
        return
    if isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys {set(a)} != {set(b)}"
        for key in a:
            assert_trees_bit_equal(a[key], b[key], f"{path}.{key}")
        return
    assert a == b, f"{path}: {a!r} != {b!r}"


# ---------------------------------------------------------------------------
# Primitive transforms
# ---------------------------------------------------------------------------

def embedded(values: np.ndarray) -> np.ndarray:
    """``values`` at the head of 4 096 zeros: compressible enough that the
    encoder always emits a node, so the real decoder runs."""
    arr = np.zeros(4096, dtype=values.dtype)
    arr[:values.size] = values
    return arr


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """The reference inverse of ``zigzag_encode``."""
    u = values.astype(np.uint64, copy=False)
    return ((u >> np.uint64(1)).astype(np.int64)
            ^ -((u & np.uint64(1)).astype(np.int64)))


def byteplane_join(planes: np.ndarray, dtype, count: int) -> np.ndarray:
    """The reference inverse of ``byteplane_split``."""
    dtype = np.dtype(dtype)
    raw = np.ascontiguousarray(planes, dtype=np.uint8).reshape(-1)
    return raw.reshape(dtype.itemsize, count).T.copy().view(dtype).reshape(-1)


class TestPrimitives:
    @given(hnp.arrays(dtype=np.int64, shape=st.integers(0, 200),
                      elements=st.integers(-2**63, 2**63 - 1)))
    @settings(max_examples=60, deadline=None)
    def test_zigzag_varint_roundtrip_int64(self, values):
        """int64 extremes round-trip through the ``dz`` encoder and decoder."""
        arr = embedded(values)
        node = encode_array(arr)
        assert node[ENC_KEY] == "dz"
        assert decode_array(node).tobytes() == arr.tobytes()

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_varint_roundtrip_uint64_extremes(self, values):
        arr = embedded(np.array(values, dtype=np.uint64))
        node = encode_array(arr)
        assert node[ENC_KEY] == "bp"
        assert decode_array(node).tobytes() == arr.tobytes()

    def test_varint_decode_validates_framing(self):
        """A plane table that does not add up to the blob is rejected."""
        node = encode_array(embedded(np.array([300, 1, 2**40])))
        for bad in ({"plane_lens": node["plane_lens"][:-1],
                     "plane_zlib": node["plane_zlib"][:-1]},
                    {"data": node["data"][:-1]},
                    {"data": np.append(node["data"], np.uint8(0))}):
            with pytest.raises(ValueError, match="framing"):
                decode_array({**node, **bad})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byteplane_roundtrip_special_floats(self, dtype):
        arr = np.tile(np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-40,
                                np.finfo(dtype).max, np.finfo(dtype).tiny],
                               dtype=dtype), 64)
        node = encode_array(arr)
        assert node[ENC_KEY] == "bp"
        assert decode_array(node).tobytes() == arr.tobytes()

    @given(hnp.arrays(dtype=np.float64, shape=st.integers(0, 300),
                      elements=st.floats(allow_nan=True, width=64)))
    @settings(max_examples=40, deadline=None)
    def test_byteplane_roundtrip_float64(self, arr):
        arr = embedded(arr)
        node = encode_array(arr)
        assert node[ENC_KEY] == "bp"
        assert decode_array(node).tobytes() == arr.tobytes()

    def test_byteplane_join_validates_length(self):
        node = encode_array(np.tile(np.arange(8, dtype=np.float32), 64))
        with pytest.raises(ValueError, match="wrong length"):
            decode_array({**node, "shape": [node["shape"][0] + 1]})

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32,
                                       np.float32, np.float64, np.int16])
    def test_encode_array_bit_exact(self, dtype):
        rng = np.random.default_rng(5)
        if np.dtype(dtype).kind == "f":
            arr = (rng.normal(size=513) * 100).astype(dtype)
        else:
            arr = rng.integers(0, 1000, size=513).astype(dtype)
        node = encode_array(arr)
        if isinstance(node, dict):
            decoded = decode_array(node)
            assert decoded.dtype == arr.dtype
            assert arr.tobytes() == decoded.tobytes()
        else:
            assert node is arr  # store-raw fallback

    def test_encode_array_sorted_indices_use_delta(self):
        idx = np.sort(np.random.default_rng(0).choice(
            10**6, size=4096, replace=False)).astype(np.int64)
        node = encode_array(idx)
        assert isinstance(node, dict) and node["delta"]
        assert node["data"].nbytes < idx.nbytes / 3
        assert np.array_equal(decode_array(node), idx)

    def test_tiny_arrays_stored_raw(self):
        arr = np.arange(4, dtype=np.int64)
        assert encode_array(arr) is arr

    def test_logical_nbytes_counts_decoded_size(self):
        arr = np.sort(np.random.default_rng(1).integers(
            0, 10**6, size=1000)).astype(np.int64)
        node = encode_array(arr)
        assert logical_nbytes({"x": node}) == arr.nbytes
        assert logical_nbytes({"x": arr}) == arr.nbytes


def coded_chain(length=6, n=2**18):
    store = CheckpointStore(InMemoryBackend(), codec="lossless")
    store.save_full(0, {"w": np.zeros(n)}, {"slots": {}})
    for step in range(1, length + 1):
        store.save_diff(step, step, sparse_payload(n=n, k=n // 16, seed=step))
    return store


class TestDecodeInPlace:
    """Planes decode straight into their byte columns; what a restored
    record costs is ``tests/test_costs.py``'s ``decode`` rows."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_decode_array_is_the_reference_composition(self, data):
        dtype = np.dtype(data.draw(st.sampled_from(
            sorted(serializer._ALLOWED_DTYPES))))
        shape = data.draw(st.sampled_from([(), (0,), (1,)]) | hnp.array_shapes(
            min_dims=1, max_dims=2, min_side=0, max_side=24))
        count, width, delta = math.prod(shape), dtype.itemsize, False
        node = {ENC_KEY: "bp", "dtype": dtype.name, "shape": list(shape)}
        if dtype.kind in "iu" and dtype != np.uint64 and data.draw(
                st.booleans()):
            width = data.draw(st.sampled_from([1, 2, 4, 8]))
            delta = count > 0 and data.draw(st.booleans())
            node.update({ENC_KEY: "dz", "width": width, "delta": delta,
                         "base": data.draw(st.integers(-128, 127)
                                           | st.integers(-2**63, 2**63 - 1))})
        values = count - delta              # an empty run is one empty plane
        planes = [data.draw(st.binary(min_size=values, max_size=values))
                  for _ in range(width if values else 1)]
        flags = [data.draw(st.booleans()) for _ in planes]
        chunks = [zlib.compress(p) if f else p for p, f in zip(planes, flags)]
        node.update(plane_lens=[len(c) for c in chunks], plane_zlib=flags,
                    data=np.frombuffer(b"".join(chunks), np.uint8))
        raw = np.frombuffer(b"".join(planes), np.uint8)
        if "width" not in node:     # the composition the decoder replaced
            want = byteplane_join(raw, dtype, values)
        else:
            want = zigzag_decode(byteplane_join(raw, f"<u{width}", values))
            want = np.cumsum(np.append(node["base"], want)) if delta else want
        got = decode_array(node)
        assert got.dtype == dtype and got.shape == shape
        assert got.tobytes() == want.astype(dtype, copy=False).tobytes()
        if hasattr(got, "increasing"):      # a proof must be true
            gaps = np.diff(got.reshape(-1).astype(np.int64))
            assert (gaps >= 0).all() and (gaps > 0).all() == got.increasing

    def test_one_record_decodes_with_no_copies_or_joins(self):
        check(("decode", "lossless"))

    @pytest.mark.parametrize("recover", [serial_recover, parallel_recover])
    def test_plane_of_the_wrong_length_truncates_recovery(self, recover):
        store = coded_chain()
        tree = serializer.unpack_tree(store.read_raw(store.diffs_after(0)[3]))
        node = tree["payload"]["entries"]["w"]["indices"]
        *head, _ = node["plane_lens"]       # last plane inflates a byte long
        tail = zlib.compress(zlib.decompress(node["data"][sum(head):]) + b"\0")
        node["data"] = np.append(node["data"][:sum(head)],
                                 np.frombuffer(tail, np.uint8))
        node["plane_lens"] = head + [len(tail)]
        record = store.save_diff_bytes(4, 4, 1, *serializer.pack_tree_with_crc(
            tree), codec="lossless")
        with pytest.raises(CorruptCheckpointError, match="wrong length"):
            CheckpointStore.decode_diff(record, store.read_raw(record))
        result = recover(store, Recorder(), Recorder())
        assert (result.step, result.corrupt_diffs_skipped) == (3, 1)
        assert store.quarantined == [record.key]


class TestEncodeInPlace:
    def test_one_record_encodes_with_no_copies_or_joins(self):
        check(("persist", "inline", 1, "lossless"))


def array_leaves(tree):
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from array_leaves(value)


@pytest.fixture(scope="module")
def adam_records():
    """Uncoded record trees of a trained Adam job: MLP 64→[256,256]→10, two
    workers, top-k 5 %, a full every 16 steps, 48 steps."""
    trainer = DataParallelTrainer(
        model_builder=lambda rank: MLP(64, [256, 256], 10, rng=Rng(0)),
        optimizer_builder=lambda model: Adam(model, lr=1e-3),
        loss_fn=CrossEntropyLoss(),
        dataset=SyntheticClassification(64, 10, batch_size=16, seed=1),
        num_workers=2, compressor_builder=lambda: TopKCompressor(0.05))
    store = CheckpointStore(InMemoryBackend())
    checkpointer = LowDiffCheckpointer(
        store, CheckpointConfig(full_every_iters=16, batch_size=1))
    checkpointer.attach(trainer)
    for _ in range(48):
        trainer.step()
    checkpointer.finalize()
    read = lambda record: serializer.unpack_tree(store.read_raw(record))
    return ({record.step: read(record) for record in store.fulls()},
            [read(record) for record in store.diffs_after(0)])


class TestEntropyGate:
    """The gate skips only planes deflate would not keep: it moves encode
    time, never a byte."""

    def test_gate_matches_the_deflate_every_plane_oracle(self, adam_records):
        fulls, diffs = adam_records
        quantized = UniformQuantizer(127).compress({"w": np.random.default_rng(
            2).normal(size=2**16)})
        trees = [fulls[16], fulls[48], *diffs,
                 payload_to_tree(quantized),
                 payload_to_tree(payload_cases()["quantized"]),
                 CheckpointStore.full_tree(0, {"w": np.zeros(2**18)},
                                           {"slots": {}})]
        trees += [CheckpointStore.diff_tree(step, step, 1, payload_to_tree(
            sparse_payload(n=2**18, k=2**14, seed=step))) for step in range(1, 7)]

        def packed():
            return [serializer.pack_tree(LosslessCodec().encode_tree(tree))
                    for tree in trees]

        gated = packed()
        with mock.patch.object(payload_codec, "_plane_compressible",
                               lambda plane: True):
            assert packed() == gated

    def test_tiled_byte_ramp_reads_eight_bits_and_stays_raw(self):
        """The limit the gate shares with its 7.4-bit full-plane predecessor:
        LZ repeats would deflate a tiled 0..255 ramp to ~1 %, but its
        order-0 entropy is 8 bits, so it is stored raw."""
        ramp = np.tile(np.arange(256, dtype=np.uint8), 256)
        assert len(zlib.compress(ramp, ZLIB_LEVEL_PLANE)) < ramp.size / 50
        assert not payload_codec._plane_compressible(ramp)
        arr = ramp.repeat(4).view(np.float32)   # every byte plane is the ramp
        assert encode_array(arr) is arr
        with mock.patch.object(payload_codec, "_plane_compressible",
                               lambda plane: True):
            assert isinstance(encode_array(arr), dict)

    def test_discarded_deflate_is_counted_and_small(self, adam_records):
        """Deflate whose output is then stored raw stays ≤ 1 % of a record's
        bytes, and no array at or below the size floor is deflated.  A
        trained full feeds deflate ≤ 15 % of its bytes: the exact zeros
        top-k leaves in Adam's moments are elided behind a mask, and the
        nonzero moments (order-0 entropy ≥ 5.6 bits) never reach deflate."""
        fulls, diffs = adam_records
        for tree in (fulls[16], fulls[48], diffs[0]):
            with obs.capture() as active:
                LosslessCodec().encode_tree(tree)
                deflated, discarded = (active.registry.counter(
                    f"codec.encode.deflate_{name}_bytes").value
                    for name in ("in", "discarded"))
            assert deflated > 0
            assert discarded <= 0.01 * logical_nbytes(tree)
            if tree is fulls[48]:
                assert deflated <= 0.15 * logical_nbytes(tree)
            small = [arr for arr in array_leaves(tree)
                     if arr.nbytes <= NODE_OVERHEAD_BYTES]
            with mock.patch.object(zlib, "compress") as compress:
                assert all(encode_array(arr) is arr for arr in small)
            assert small and compress.call_count == 0


def special_bits(dtype):
    """Nonzero bit patterns a byte-plane codec must keep exact: -0.0,
    ±inf, NaN payloads and subnormals (for floats), extremes (uint64)."""
    bits = 8 * dtype.itemsize
    if dtype.kind == "u":
        return [1, 2**bits - 1, 2**(bits - 1)]
    nmant = np.finfo(dtype).nmant
    sign = 1 << (bits - 1)
    inf = ((1 << (bits - 1 - nmant)) - 1) << nmant
    return [sign, inf, sign | inf, inf | 1, sign | inf | (1 << nmant - 1) | 5,
            1, sign | 1, (1 << nmant) - 1]


class TestZeroElision:
    """``"bp"`` nodes elide exact-zero elements behind a packed nonzero
    mask when the zeros outweigh the mask plus one node's overhead; every
    other array encodes as before."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64,
                                       np.uint64])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_roundtrip_is_bit_exact(self, dtype, data):
        dtype = np.dtype(dtype)
        shape = data.draw(st.sampled_from(
            [(0,), (0, 5), (1000,), (3000,), (64, 40), (3, 7, 50)]))
        count = math.prod(shape)
        # The most zeros that stay unmasked: the elision rule's boundary.
        threshold = (-(-count // 8) + NODE_OVERHEAD_BYTES) // dtype.itemsize
        zeros = min(count, data.draw(st.sampled_from(
            [0, threshold, threshold + 1, count])
            | st.integers(0, count)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = np.frombuffer(rng.bytes(count * dtype.itemsize),
                             f"u{dtype.itemsize}").copy()
        bits[bits == 0] = 1
        special = rng.random(count) < 0.3
        bits[special] = rng.choice(np.array(special_bits(dtype), bits.dtype),
                                   int(special.sum()))
        bits[rng.permutation(count)[:zeros]] = 0
        arr = bits.view(dtype).reshape(shape)
        node = encode_array(arr)
        masked = zeros * dtype.itemsize > -(-count // 8) + NODE_OVERHEAD_BYTES
        assert (isinstance(node, dict) and "mask" in node) == masked
        if isinstance(node, dict):
            node = serializer.unpack_tree(serializer.pack_tree({"x": node}))
            out = decode_array(node["x"])
        else:
            out = node
        assert out.dtype == dtype and out.shape == shape
        assert np.array_equal(out.view(np.uint8), arr.view(np.uint8))

    @staticmethod
    def masked_node(count=4099):
        rng = np.random.default_rng(4)
        arr = rng.normal(size=count) * (rng.random(count) < 0.4)
        node = encode_array(arr)
        assert "mask" in node and not node["mask_zlib"]
        return arr, node

    def test_mask_of_the_wrong_length_raises(self):
        _, node = self.masked_node()
        for mask in (node["mask"][:-1], np.append(node["mask"], 0)):
            with pytest.raises(ValueError, match="zero mask"):
                decode_array(dict(node, mask=mask))

    def test_mask_popcount_must_match_the_planes(self):
        arr, node = self.masked_node()
        flipped = node["mask"].copy()
        flipped[np.flatnonzero(flipped != 0xFF)[0]] = 0xFF     # more ones
        for mask in (flipped, np.zeros_like(flipped)):
            with pytest.raises(ValueError, match="wrong length|framing"):
                decode_array(dict(node, mask=mask))
        assert decode_array(node).tobytes() == arr.tobytes()

    def test_zero_slots_store_a_mask_and_no_values(self):
        arr = np.zeros((256, 256))
        node = encode_array(arr)
        assert node["mask_zlib"] and node["plane_lens"] == [0]
        assert node["mask"].nbytes + node["data"].nbytes < 100
        assert decode_array(node).tobytes() == arr.tobytes()

    def test_elision_starts_where_the_mask_pays_for_itself(self):
        """1050 elements end in a partial mask byte: ceil(1050 / 8) = 132."""
        most = (132 + NODE_OVERHEAD_BYTES) // 2     # float16: 578 zeros
        arr = np.ones(1050, np.float16)
        arr[:most] = 0
        assert set(encode_array(arr)) == {ENC_KEY, "dtype", "shape",
                                          "plane_lens", "plane_zlib", "data"}
        arr[most] = 0
        assert "mask" in encode_array(arr)


# ---------------------------------------------------------------------------
# Payload kind × dtype round trips through every registered codec
# ---------------------------------------------------------------------------

def sparse_payload(value_dtype=np.float32, index_dtype=np.int64,
                   n=20000, k=1500, seed=0):
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=k, replace=False)).astype(index_dtype)
    vals = rng.normal(size=k).astype(value_dtype)
    return SparseGradient({"w": (idx, vals)}, {"w": (n,)})


def payload_cases():
    cases = {}
    for vdt in (np.float32, np.float64):
        for idt in (np.int32, np.int64):
            cases[f"sparse-{np.dtype(vdt).name}-{np.dtype(idt).name}"] = \
                sparse_payload(vdt, idt)
    cases["sparse-empty"] = SparseGradient(
        {"w": (np.array([], np.int64), np.array([], np.float32))},
        {"w": (64,)})
    cases["sparse-one"] = SparseGradient(
        {"w": (np.array([7], np.int64), np.array([0.5], np.float32))},
        {"w": (64,)})
    rng = np.random.default_rng(3)
    cases["dense-f32"] = DenseGradient(
        {"w": rng.normal(size=(64, 32)).astype(np.float32)})
    cases["dense-f64"] = DenseGradient(
        {"b": rng.normal(size=500).astype(np.float64)})
    cases["quantized"] = QuantizedGradient(
        {"w": rng.integers(-127, 128, size=5000).astype(np.int16)},
        {"w": 0.01}, {"w": (5000,)}, 255)
    cases["state_delta"] = StateDelta(
        params=sparse_payload(seed=9),
        optimizer_slots={"m": rng.normal(size=512).astype(np.float32),
                         "v": rng.normal(size=512).astype(np.float64)},
        step_count_delta=3)
    return cases


class TestLosslessCodecRoundTrip:
    @pytest.mark.parametrize("name", sorted(payload_cases()))
    def test_bit_exact_every_payload_kind(self, name):
        payload = payload_cases()[name]
        codec = LosslessCodec()
        tree = payload_to_tree(payload)
        reference = copy.deepcopy(tree)
        encoded = codec.encode_tree(tree)
        assert encoded[CODEC_TAG] == "lossless"
        decoded = codec.decode_tree(encoded)
        assert_trees_bit_equal(decoded, reference)
        # And the payload object reconstructs.
        rebuilt = tree_to_payload(decoded)
        assert type(rebuilt) is type(payload)

    def test_quantized_levels_get_entropy_stage(self):
        payload = payload_cases()["quantized"]
        codec = LosslessCodec()
        tree = codec.encode_tree(payload_to_tree(payload))
        raw = logical_nbytes(payload_to_tree(payload))
        # int16 levels are highly compressible: expect a real reduction.
        assert len(serializer.pack_tree(tree)) < raw


class TestLossyCodec:
    """The error-bounded lossy codec is gone; these tests pin that the one
    codec left is exact on the inputs it used to quantize."""

    def test_values_within_bound_single_shot(self):
        codec = LosslessCodec()
        payload = sparse_payload()
        rebuilt = tree_to_payload(codec.decode_tree(
            codec.encode_tree(payload_to_tree(payload))))
        assert_trees_bit_equal(payload_to_tree(rebuilt),
                               payload_to_tree(payload))

    def test_error_feedback_bounds_accumulated_divergence(self):
        """The old telescoping loop: the sum of 64 decoded diffs now equals
        the sum of the true ones bit for bit — no divergence to bound."""
        codec = LosslessCodec()
        rng = np.random.default_rng(11)
        n = 4096
        true_sum = np.zeros(n)
        decoded_sum = np.zeros(n)
        for _ in range(64):
            k = 400
            idx = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
            vals = (rng.normal(size=k) * 0.01).astype(np.float32)
            payload = SparseGradient({"w": (idx, vals)}, {"w": (n,)})
            rebuilt = tree_to_payload(codec.decode_tree(
                codec.encode_tree(payload_to_tree(payload))))
            d_idx, d_vals = rebuilt.entries["w"]
            np.add.at(true_sum, idx, vals.astype(np.float64))
            np.add.at(decoded_sum, d_idx, d_vals.astype(np.float64))
        assert decoded_sum.tobytes() == true_sum.tobytes()

    def test_quantized_payloads_pass_through(self):
        codec = LosslessCodec()
        payload = payload_cases()["quantized"]
        rebuilt = tree_to_payload(codec.decode_tree(
            codec.encode_tree(payload_to_tree(payload))))
        assert type(rebuilt) is QuantizedGradient
        assert_trees_bit_equal(payload_to_tree(rebuilt),
                               payload_to_tree(payload))

    def test_make_codec_parameterizes_bound(self):
        assert make_codec(None) is None
        assert make_codec("none") is None
        assert isinstance(make_codec("lossless"), LosslessCodec)
        existing = LosslessCodec()
        assert make_codec(existing) is existing
        with pytest.raises(UnknownCodecError):
            make_codec("snappy-42")
        with pytest.raises(UnknownCodecError, match="'lossy'"):
            make_codec("lossy")


# ---------------------------------------------------------------------------
# Store integration: chains, recovery, compaction, async engine
# ---------------------------------------------------------------------------

def lossy_era_diff(step, tag="lossy"):
    """A packed diff as the retired error-bounded codec wrote it: values as
    a ``"q"`` node (integer levels × scale), the blob tagged ``tag``."""
    tree = CheckpointStore.diff_tree(step, step, 1, payload_to_tree(
        sparse_payload(seed=41, n=500, k=40)))
    entry = tree["payload"]["entries"]["w"]
    scale = 2e-3
    entry["values"] = {
        ENC_KEY: "q", "dtype": "float32", "shape": [40], "scale": scale,
        "levels": np.rint(entry["values"] / scale).astype(np.int32)}
    tree[CODEC_TAG] = tag
    return serializer.pack_tree_with_crc(tree)


class TestStoreCodecIntegration:
    def test_lossless_chain_recovery_bit_exact_vs_uncoded(self):
        plain_store, truth = build_chain(64, codec=None)
        coded_store, _ = build_chain(64, codec="lossless")
        for store in (plain_store, coded_store):
            result, model, optimizer = recover_fresh(store)
            assert result.step == 64
            assert_states_equal(model.state_dict(), truth[64][0])
            assert_optimizers_equal(optimizer.state_dict(), truth[64][1])
        # Tiny-tensor workload: nothing compresses past the per-node
        # overhead guard, so every array stays raw and the only cost is
        # the per-record codec tag — bounded, never ballooning.
        assert (coded_store.storage_bytes()["diff"]
                <= plain_store.storage_bytes()["diff"] * 1.03)

    def test_realistic_sparse_chain_shrinks_on_disk(self):
        """Large sparse diffs (the real workload shape) genuinely shrink:
        sorted int64 indices delta-varint to a few bits per entry."""
        plain = CheckpointStore(InMemoryBackend())
        coded = CheckpointStore(InMemoryBackend(), codec="lossless")
        for step in range(1, 9):
            payload = sparse_payload(n=2_000_000, k=60_000, seed=step)
            plain.save_diff(step, step, payload)
            coded.save_diff(step, step, payload)
        plain_bytes = plain.storage_bytes()["diff"]
        coded_bytes = coded.storage_bytes()["diff"]
        assert coded_bytes < plain_bytes / 1.4
        # And the encoded chain still decodes bit-exact.
        for plain_rec, coded_rec in zip(plain.diffs_after(0),
                                        coded.diffs_after(0)):
            a = plain.load_diff(plain_rec)
            b = coded.load_diff(coded_rec)
            assert_trees_bit_equal(payload_to_tree(a), payload_to_tree(b))

    def test_records_carry_codec_and_raw_bytes(self):
        store, _ = build_chain(4, codec="lossless")
        for record in store.diffs_after(0) + store.fulls():
            assert record.codec == "lossless"
            assert record.raw_nbytes > 0
        plain, _ = build_chain(2, codec=None)
        for record in plain.diffs_after(0):
            assert record.codec == "" and record.raw_nbytes == 0

    def test_reopen_is_codec_agnostic(self):
        store, truth = build_chain(8, codec="lossless")
        reopened = CheckpointStore(store.backend)  # no codec configured
        result, model, _ = recover_fresh(reopened)
        assert result.step == 8
        assert_states_equal(model.state_dict(), truth[8][0])

    def test_mixed_series_codec_switch_mid_chain(self):
        store, truth = build_chain(6, codec=None)
        store.set_codec("lossless")
        # Continue the chain encoded from step 7.
        _, model, optimizer = recover_fresh(store)
        compressor = TopKCompressor(0.25)
        grad_rng = np.random.default_rng(99)
        grads = {name: grad_rng.normal(size=v.shape).astype(np.float32)
                 for name, v in model.state_dict().items()}
        payload = compressor.compress(grads)
        optimizer.step_with(payload.decompress())
        store.save_diff(7, 7, payload)
        expected = copy.deepcopy(model.state_dict())
        codecs = {r.codec for r in store.diffs_after(0)}
        assert codecs == {"", "lossless"}
        result, model2, _ = recover_fresh(store)
        assert result.step == 7
        assert_states_equal(model2.state_dict(), expected)

    def test_legacy_manifest_without_codec_fields_loads(self):
        """Pre-PR manifests have no codec/raw_nbytes columns at all."""
        store, truth = build_chain(4, codec=None)
        raw = json.loads(store.backend.read("manifest.json").decode())
        for rec in raw["fulls"] + raw["diffs"]:
            rec.pop("codec", None)
            rec.pop("raw_nbytes", None)
        raw.pop("crc", None)  # legacy manifests may predate the body CRC
        store.backend.write("manifest.json", json.dumps(raw).encode())
        reopened = CheckpointStore(store.backend)
        result, model, _ = recover_fresh(reopened)
        assert result.step == 4
        assert_states_equal(model.state_dict(), truth[4][0])

    def test_lossy_chain_recovery_within_bound(self):
        """A store written with the retired ``"lossy"`` codec fails loudly
        and is never misread."""
        store, _ = build_chain(3, codec="lossless")
        store.save_diff_bytes(4, 4, 1, *lossy_era_diff(4), codec="lossy")
        with pytest.raises(UnknownCodecError) as excinfo:
            CheckpointStore(store.backend)
        assert "'lossy'" in str(excinfo.value)
        assert "'lossless'" in str(excinfo.value)

        # Under a manifest that does not name it, the in-blob tag still
        # refuses: verify flags the record and only its read raises.
        store, _ = build_chain(3, codec="lossless")
        store.save_diff_bytes(4, 4, 1, *lossy_era_diff(4), codec="")
        reopened = CheckpointStore(store.backend)
        *earlier, last = reopened.diffs_after(0)
        assert reopened.verify(deep=True)["unknown_codec"] == [last.key]
        reopened.load_full(reopened.fulls()[0])
        for record in earlier:
            reopened.load_diff(record)
        with pytest.raises(UnknownCodecError):
            reopened.load_diff(last)

        # A "q" node under a lossless tag is corruption: quarantined, and
        # recovery falls back to the record before it.
        store, _ = build_chain(3, codec="lossless")
        record = store.save_diff_bytes(4, 4, 1, *lossy_era_diff(4, "lossless"),
                                       codec="lossless")
        with pytest.raises(CorruptCheckpointError, match="'q'"):
            store.load_diff(record)
        result = serial_recover(store, Recorder(), Recorder())
        assert (result.step, result.corrupt_diffs_skipped) == (3, 1)
        assert store.quarantined == [record.key]

    def test_verify_deep_decodes_encoded_records(self):
        store, _ = build_chain(8, codec="lossless")
        report = store.verify(deep=True)
        assert report["checked"] == 9
        assert not report["missing"] and not report["corrupt"]
        assert not report["unknown_codec"]

    def test_manifest_rebuild_recovers_codec_ids(self):
        store, truth = build_chain(8, codec="lossless")
        store.backend.delete("manifest.json")
        rebuilt = CheckpointStore(store.backend)
        assert rebuilt.manifest_rebuilt
        assert all(r.codec == "lossless" for r in rebuilt.diffs_after(0))
        result, model, _ = recover_fresh(rebuilt)
        assert result.step == 8
        assert_states_equal(model.state_dict(), truth[8][0])


class TestUnknownCodecForwardCompat:
    def _store_with_alien_codec(self, manifest_codec="zstd-super-v9"):
        """A chain whose last diff was written by a 'newer build': its
        in-blob tag names an unknown codec, and so does its manifest
        record unless ``manifest_codec`` says otherwise."""
        from repro.storage.serializer import pack_tree_with_crc

        store, _ = build_chain(3, codec="lossless")
        payload = sparse_payload(seed=41, n=500, k=40)
        tree = CheckpointStore.diff_tree(4, 4, 1, payload_to_tree(payload))
        tree[CODEC_TAG] = "zstd-super-v9"
        data, crc = pack_tree_with_crc(tree)
        store.save_diff_bytes(4, 4, 1, data, crc, codec=manifest_codec)
        return store.backend

    def test_strict_open_raises_typed_actionable_error(self):
        backend = self._store_with_alien_codec()
        with pytest.raises(UnknownCodecError) as excinfo:
            CheckpointStore(backend)
        message = str(excinfo.value)
        assert "zstd-super-v9" in message
        assert "lossless" in message  # lists the registered codecs
        assert excinfo.value.codec_id == "zstd-super-v9"
        assert isinstance(excinfo.value, ValueError)

    def test_lenient_open_flags_instead_of_crashing(self):
        """A manifest that does not name the alien codec opens; the blob's
        own tag is flagged by verify, not treated as corrupt."""
        backend = self._store_with_alien_codec(manifest_codec="")
        store = CheckpointStore(backend)
        report = store.verify(deep=True)
        assert len(report["unknown_codec"]) == 1
        assert not report["corrupt"]
        # repair leaves the record (blob is intact, just unreadable here)
        store.verify(deep=True, repair=True)
        assert len(store.diffs_after(0)) == 4
        # Reading the affected record raises the typed error; others load.
        records = store.diffs_after(0)
        store.load_diff(records[0])
        with pytest.raises(UnknownCodecError):
            store.load_diff(records[3])


class TestEngineAndCompactionWithCodec:
    def test_async_engine_encodes_off_thread_bit_exact(self):
        plain, truth = build_chain(16, codec=None)
        store = CheckpointStore(InMemoryBackend(), codec="lossless")
        engine = AsyncCheckpointEngine(store, num_writers=3, queue_depth=4)
        model = model_factory()
        optimizer = Adam(model, lr=1e-2)
        compressor = TopKCompressor(0.25)
        grad_rng = np.random.default_rng(3)
        engine.save_full(0, model.state_dict(), optimizer.state_dict())
        for step in range(1, 17):
            grads = {name: grad_rng.normal(size=v.shape).astype(np.float32)
                     for name, v in model.state_dict().items()}
            payload = compressor.compress(grads)
            optimizer.step_with(payload.decompress())
            engine.save_diff(step, step, payload)
        engine.finalize()
        assert all(r.codec == "lossless" for r in store.diffs_after(0))
        result, model2, optimizer2 = recover_fresh(store)
        assert result.step == 16
        assert_states_equal(model2.state_dict(), truth[16][0])
        assert_optimizers_equal(optimizer2.state_dict(), truth[16][1])

    def test_async_engine_lossy_preencodes_in_submit_order(self):
        check(("persist", "thread", 1, "lossless"))

    @pytest.mark.parametrize("mode", ["merge", "rebase"])
    def test_compaction_with_codec_matches_uncoded(self, mode):
        """Compacting an encoded chain is bit-identical to compacting the
        same chain uncoded (merge replay itself is only bit-exact for
        linear optimizers, so the codec claim is coded == uncoded).  The
        pass rebases when given both state factories, else merges."""
        factories = {} if mode == "merge" else dict(
            model_factory=model_factory,
            optimizer_factory=lambda m: Adam(m, lr=1e-2))
        recovered = {}
        for codec in (None, "lossless"):
            store, truth = build_chain(64, codec=codec)
            policy = RetentionPolicy(max_chain_len=16, compact_run=8)
            report = store.compact(policy, **factories)
            assert (report.mode, report.runs_merged > 0,
                    report.new_full_step is not None) \
                == (mode, mode == "merge", mode == "rebase")
            assert policy.chain_records(store) <= 16
            if codec == "lossless":
                for record in store.diffs_after(store.latest_full().step):
                    assert record.codec == "lossless"
            result, model, optimizer = recover_fresh(store)
            assert result.step == 64
            recovered[codec] = (model.state_dict(), optimizer.state_dict())
            if mode == "rebase":
                # Rebase replays the original chain verbatim: bit-exact
                # against the uninterrupted run even for Adam.
                assert_states_equal(model.state_dict(), truth[64][0])
                assert_optimizers_equal(optimizer.state_dict(), truth[64][1])
        assert_states_equal(recovered[None][0], recovered["lossless"][0])
        assert_optimizers_equal(recovered[None][1], recovered["lossless"][1])

    def test_compaction_does_not_requantize_lossy_payloads(self):
        """Merge compaction re-encodes a coded SGD chain without changing a
        bit: each super-diff decodes to the exact ordered fold of the
        uncompacted records it replaced, and the compacted chain recovers
        bit-equal to the same chain compacted uncoded."""
        sgd = lambda m: SGD(m, lr=0.05)
        recovered = {}
        for codec in (None, "lossless"):
            store, truth = build_chain(64, codec=codec, optimizer_factory=sgd)
            originals = {r.start: store.load_diff(r)
                         for r in store.diffs_after(0)}
            ChainCompactor(store, RetentionPolicy(max_chain_len=16,
                                                  compact_run=8)).run_once()
            chain = store.diffs_after(0)
            assert len(chain) == 8
            for record in chain:
                assert record.codec == (codec or "")
                fold = ChainCompactor.merge_payloads_ordered(
                    [originals[s] for s in range(record.start, record.end + 1)])
                assert_trees_bit_equal(payload_to_tree(store.load_diff(record)),
                                       payload_to_tree(fold))
            model = model_factory()
            assert serial_recover(store, model, sgd(model)).step == 64
            # Merged replay differs from per-step replay only by float
            # association order.
            assert_states_equal(model.state_dict(), truth[64][0],
                                exact=False, atol=1e-6)
            recovered[codec] = model.state_dict()
        assert_states_equal(recovered["lossless"], recovered[None])

    def test_retention_policy_codec_decode_cost(self):
        policy = RetentionPolicy(load_full_s=1.0, replay_diff_s=0.5,
                                 codec_decode_s=0.5, max_recovery_cost_s=5.0)
        assert policy.recovery_cost_s(4) == pytest.approx(5.0)
        assert policy.chain_budget() == 4
        uncoded = RetentionPolicy(load_full_s=1.0, replay_diff_s=0.5,
                                  max_recovery_cost_s=5.0)
        assert uncoded.chain_budget() == 8


class TestConfigWiring:
    def test_checkpointer_applies_config_codec(self):
        config = CheckpointConfig(full_every_iters=8, batch_size=2,
                                  codec="lossless")
        store = CheckpointStore(InMemoryBackend())
        checkpointer = LowDiffCheckpointer(store, config)
        assert isinstance(store.codec, LosslessCodec)
        assert checkpointer.stats()["codec"]["codec"] == "lossless"

    def test_checkpointer_applies_lossy_bound(self):
        config = CheckpointConfig(full_every_iters=8, batch_size=2,
                                  codec="lossy")
        with pytest.raises(UnknownCodecError, match="'lossy'"):
            LowDiffCheckpointer(CheckpointStore(InMemoryBackend()), config)

    def test_default_config_stays_uncoded(self):
        config = CheckpointConfig(full_every_iters=8, batch_size=2)
        store = CheckpointStore(InMemoryBackend())
        LowDiffCheckpointer(store, config)
        assert store.codec is None

    def test_config_validates_bound(self):
        with pytest.raises(TypeError, match="lossy_error_bound"):
            CheckpointConfig(full_every_iters=8, batch_size=2,
                             lossy_error_bound=1e-3)


class TestSimCodecPricing:
    def test_neutral_defaults_match_uncoded(self):
        from repro.sim.strategies.lowdiff import LowDiffStrategy
        strategy = LowDiffStrategy()
        assert strategy.codec_ratio == 1.0
        assert strategy._codec_encode_s(1e9) == 0.0

    def test_set_codec_model_scales_bytes_and_cost(self):
        from repro.sim.strategies.lowdiff import LowDiffStrategy
        strategy = LowDiffStrategy().set_codec_model(
            ratio=4.0, encode_s_per_gb=2.0, decode_s_per_gb=1.0)
        assert strategy.codec_ratio == 4.0
        assert strategy._codec_encode_s(1e9) == pytest.approx(2.0)
        assert strategy._codec_decode_s(5e8) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            LowDiffStrategy().set_codec_model(ratio=0.0)

    def test_storage_bytes_per_iter_shrinks_by_ratio(self):
        from repro.sim.cluster import A100_CLUSTER
        from repro.sim.strategies.lowdiff import LowDiffStrategy
        from repro.sim.workload import Workload

        workload = Workload.create("gpt2_large", A100_CLUSTER, rho=0.01)
        plain = LowDiffStrategy()
        coded = LowDiffStrategy().set_codec_model(ratio=4.0)
        for strategy in (plain, coded):
            strategy.workload = workload
        assert coded.storage_bytes_per_iter() == pytest.approx(
            plain.storage_bytes_per_iter() / 4.0)
