"""Payload codec layer: tree mapping + bit-exact checkpoint compression.

Two responsibilities live here:

1. **Payload <-> tree mapping** (:func:`payload_to_tree` /
   :func:`tree_to_payload`): the serializer handles plain trees; this
   maps the payload classes (sparse / quantized / dense / state-delta)
   to tagged trees and back, so differential checkpoints written by one
   process can be reconstructed by the recovery process without pickling
   classes.

2. **The codec** (:class:`PayloadCodec`): it transforms serializable
   trees *before* the container serializer runs, replacing ndarray leaves
   with encoded nodes (``{"__enc__": ...}`` dicts whose payloads are
   ``uint8`` arrays).  The container framing, CRC integrity and zero-copy
   pack path are reused unchanged, and a blob's codec is self-describing
   (a ``__codec__`` tag on the root) so a rebuilt manifest can still pick
   the right decoder.  Encoding is stateless, so it runs wherever a
   record is packed.

One codec ships, ``"lossless"`` (:class:`LosslessCodec`): bit-exact on
round-trip for every payload kind.  Integer arrays go through
zigzag(+delta when sorted, e.g. sparse indices) + a smallest-width
downcast (the ``dz`` scheme: gaps stored at the narrowest fixed width
that fits, decoded with a handful of vectorized ops) + zlib; float arrays
through a byte-plane shuffle (the ``bp`` scheme: all the exponent bytes
together, all the mantissa bytes together — the compressible structure of
training floats) with per-plane zlib.  A ``bp`` array whose exact-zero
elements (by bit pattern, so ``-0.0`` and NaNs are values) outweigh a
packed nonzero mask plus ``NODE_OVERHEAD_BYTES`` — Adam's moments at the
coordinates top-k never selected — byte-planes only its nonzeros and
carries ``np.packbits`` of the nonzero flags as a ``mask`` plane, which
decoding scatters back into zeros.  A node without a mask decodes as it
always did; a build that predates masks rejects a masked node at decode
(its planes are shorter than the shape), so the change is one-way.  One
threshold rules: a deflated plane is kept only below
``ZLIB_KEEP_FRACTION`` of raw, so a plane whose sampled order-0 entropy
is at least 8× that many bits per byte is never deflated; an array is
stored raw when encoding does not beat it by ``NODE_OVERHEAD_BYTES``.
Encoding writes and decoding inflates (or views) each plane in place in
one buffer.
"""

from __future__ import annotations

import math
import time
import zlib

import numpy as np

from repro.compression.base import DenseGradient
from repro.compression.quantization import QuantizedGradient
from repro.compression.sparse import SortedIndices, SparseGradient
from repro.obs import OBS
from repro.storage.serializer import ENC_KEY
from repro.utils.pool import POOL

#: Root-tree key carrying the codec id inside encoded blobs, making them
#: self-describing (manifest rebuilds recover the right decoder).
CODEC_TAG = "__codec__"

#: Container-manifest bytes one encoded node costs beyond its data array
#: (the scheme/dtype/shape/plane_lens/plane_zlib entries serialize into
#: the container's JSON manifest — measured at ~840 B per node for the
#: 8-plane float64 layout).  An encoding must beat raw by at least this
#: margin or the array is stored raw — otherwise tiny-tensor workloads
#: would grow on disk while nominally "compressed".  So it is also the
#: size floor: an array of at most this many bytes is stored raw unread.
NODE_OVERHEAD_BYTES = 1024

#: zlib level for byte-planes that pass the entropy gate.  Level 3 keeps
#: nearly all of level 6's ratio on the repetitive planes (zero/constant
#: slots, exponent runs, quantized level grids) at a fraction of the
#: CPU; encode speed is the budget that matters on the writer pool.
ZLIB_LEVEL_PLANE = 3

#: The codec's one threshold.  A deflated plane is kept only when it
#: shrinks below this fraction of raw: a marginal win would tax every
#: recovery with a decompress whose output is the whole plane.  Times 8
#: it is the entropy gate: without long LZ repeats deflate cannot beat a
#: plane's order-0 byte entropy, so a plane at ≥ 5.6 bits/byte (Adam
#: ``m``/``v`` and weight mantissas) would be stored raw anyway and is
#: never deflated.
ZLIB_KEEP_FRACTION = 0.7

#: The gate reads every this-many-th byte of a plane.  Odd, so the sample
#: cannot alias a power-of-two period (row widths, tiled byte ramps).  A
#: sample reads at most log2 of its length bits, so a plane shorter than
#: 256 strides (a short masked plane) is read whole.
GATE_SAMPLE_STRIDE = 17


class UnknownCodecError(ValueError):
    """A manifest or blob names a codec this build does not provide.

    Raised instead of a bare ``KeyError`` so callers get an actionable
    message: which record, which codec id, and which ids *are*
    available.  Opening a store raises it; ``verify()`` flags a blob
    whose in-blob tag names such a codec under ``"unknown_codec"``
    without crashing (the blob is intact — this build just cannot read
    it).
    """

    def __init__(self, codec_id: str, context: str = ""):
        known = ", ".join(map(repr, sorted(CODECS)))
        where = f" ({context})" if context else ""
        super().__init__(
            f"unknown payload codec {codec_id!r}{where}: this build knows "
            f"[{known}]. Upgrade to a build that provides {codec_id!r}."
        )
        self.codec_id = codec_id


# ---------------------------------------------------------------------------
# Payload <-> tree mapping (the original shim, unchanged semantics)
# ---------------------------------------------------------------------------

def payload_to_tree(payload) -> dict:
    """Convert a payload object to a serializable tagged tree."""
    # Imported lazily: core.differential depends on compression, and the
    # core package imports storage — a module-level import here would cycle.
    from repro.core.differential import StateDelta

    if isinstance(payload, StateDelta):
        return {
            "kind": "state_delta",
            "params": payload_to_tree(payload.params),
            "optimizer_slots": dict(payload.optimizer_slots),
            "step_count_delta": payload.step_count_delta,
        }
    if isinstance(payload, SparseGradient):
        return {
            "kind": "sparse",
            "entries": {
                name: {"indices": indices, "values": values}
                for name, (indices, values) in payload.entries.items()
            },
            "shapes": {name: list(shape) for name, shape in payload.shapes.items()},
        }
    if isinstance(payload, QuantizedGradient):
        return {
            "kind": "quantized",
            "levels": dict(payload.levels),
            "scales": dict(payload.scales),
            "shapes": {name: list(shape) for name, shape in payload.shapes.items()},
            "num_levels": payload.num_levels,
        }
    if isinstance(payload, DenseGradient):
        return {"kind": "dense", "tensors": dict(payload.tensors)}
    raise TypeError(f"cannot encode payload of type {type(payload).__name__}")


def tree_to_payload(tree: dict):
    """Inverse of :func:`payload_to_tree`."""
    kind = tree.get("kind")
    if kind == "state_delta":
        from repro.core.differential import StateDelta

        return StateDelta(
            params=tree_to_payload(tree["params"]),
            optimizer_slots=tree["optimizer_slots"],
            step_count_delta=int(tree["step_count_delta"]),
        )
    shapes = {name: tuple(shape) for name, shape in tree.get("shapes", {}).items()}
    if kind == "sparse":    # decoded index runs go in as decoded
        return SparseGradient({name: (entry["indices"], entry["values"])
                               for name, entry in tree["entries"].items()},
                              shapes)
    if kind == "quantized":
        return QuantizedGradient(tree["levels"], tree["scales"], shapes,
                                 tree["num_levels"])
    if kind == "dense":
        return DenseGradient(tree["tensors"])
    raise ValueError(f"unknown payload kind in checkpoint: {kind!r}")


# ---------------------------------------------------------------------------
# Array transforms: zigzag / delta (ints), byte planes (floats)
# ---------------------------------------------------------------------------

def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map int64 to uint64 with small magnitudes staying small."""
    v = values.astype(np.int64, copy=False)
    return ((v.astype(np.uint64) << np.uint64(1))
            ^ (v >> np.int64(63)).astype(np.uint64))


def byteplane_split(arr: np.ndarray) -> np.ndarray:
    """Transpose an array's bytes so equal significance bytes are adjacent."""
    flat = np.ascontiguousarray(arr).reshape(-1)
    itemsize = flat.dtype.itemsize
    if flat.size == 0 or itemsize == 1:
        return flat.view(np.uint8).copy()
    return np.ascontiguousarray(
        flat.view(np.uint8).reshape(-1, itemsize).T)


def _is_sorted(values: np.ndarray) -> bool:
    return values.size < 2 or bool(np.all(values[1:] >= values[:-1]))


def _maybe_zlib(plane: np.ndarray) -> np.ndarray | None:
    """Deflate a contiguous plane; the result if it beats the keep bar."""
    compressed = zlib.compress(plane, ZLIB_LEVEL_PLANE)
    kept = len(compressed) < plane.size * ZLIB_KEEP_FRACTION
    if OBS.enabled:
        OBS.registry.inc("codec.encode.deflate_in_bytes", plane.size)
        OBS.registry.inc("codec.encode.deflate_discarded_bytes",
                         0 if kept else plane.size)
    return np.frombuffer(compressed, dtype=np.uint8) if kept else None


def _plane_compressible(plane: np.ndarray) -> bool:
    """Could deflate keep this plane?  Its sampled order-0 entropy must be
    below the keep bar's ``8 × ZLIB_KEEP_FRACTION`` bits per byte."""
    step = GATE_SAMPLE_STRIDE if plane.size >= 256 * GATE_SAMPLE_STRIDE else 1
    counts = np.bincount(plane[::step], minlength=256)
    probs = counts[counts > 0] / counts.sum()
    entropy = float(-(probs * np.log2(probs)).sum())
    return entropy < 8 * ZLIB_KEEP_FRACTION


def _encode_planes(planes: np.ndarray):
    """Per-plane selective deflate over a ``(planes, count)`` byte matrix.

    Only planes the entropy gate passes see zlib, and a deflated plane is
    kept only when it beats ``ZLIB_KEEP_FRACTION``; everything else is
    stored raw, keeping both encode and decode CPU proportional to the
    planes that carry structure.  Each plane lands in one buffer sized to
    the raw planes (a kept plane is smaller, so it always fits), then cut
    to the used prefix.  Returns ``(blob, plane_lens, plane_zlib)``.
    """
    out = np.empty(planes.size, dtype=np.uint8)
    plane_zlib: list[bool] = []
    plane_lens: list[int] = []
    used = 0
    for plane in planes:
        kept = _maybe_zlib(plane) if _plane_compressible(plane) else None
        data = plane if kept is None else kept
        out[used:used + data.size] = data
        used += data.size
        plane_lens.append(data.size)
        plane_zlib.append(kept is not None)
    out.resize(used, refcheck=False)    # in place: hands back the unused tail
    return out, plane_lens, plane_zlib


def _decode_planes(node: dict, count: int, itemsize: int) -> np.ndarray:
    """Inverse of :func:`_encode_planes` + :func:`byteplane_split`: each
    plane, inflated or raw, straight from the blob into its byte column of
    a ``(count, itemsize)`` matrix (an empty array has one empty plane)."""
    lens, flags = node["plane_lens"], node["plane_zlib"]
    blob = np.ravel(node["data"])
    if blob.dtype != np.uint8 or len(lens) != len(flags) \
            or len(lens) != (itemsize if count else 1) \
            or sum(lens) != blob.size:
        raise ValueError("byte-plane container framing mismatch")
    out = np.empty((count, itemsize), dtype=np.uint8)
    offset = 0
    for column, (length, compressed) in enumerate(zip(lens, flags)):
        plane = blob[offset:offset + length]
        offset += length
        if compressed:
            plane = np.frombuffer(zlib.decompress(plane), dtype=np.uint8)
        if plane.size != count:
            raise ValueError("byte plane has the wrong length")
        out[:, column] = plane
    return out


def encode_array(arr: np.ndarray) -> "np.ndarray | dict":
    """Losslessly encode one array; returns the array itself when raw is
    at least as small (store-raw fallback keeps tiny arrays cheap)."""
    if arr.nbytes <= NODE_OVERHEAD_BYTES:
        return arr
    kind = arr.dtype.kind
    if kind in ("i", "u") and arr.dtype.itemsize <= 8 \
            and arr.dtype != np.uint64:
        flat = arr.reshape(-1).astype(np.int64)
        delta = _is_sorted(flat)
        if delta:
            # The base element rides in the node so the delta stream's
            # width is set by the gaps, not by the absolute offset.
            base = int(flat[0])
            staged = np.diff(flat)
        else:
            base = 0
            staged = flat
        zz = zigzag_encode(staged)
        peak = int(zz.max()) if zz.size else 0
        width = next(w for w in (1, 2, 4, 8) if peak < 1 << (8 * w))
        fixed = zz.astype(f"<u{width}")
        planes = byteplane_split(fixed)
        if planes.ndim == 1:
            planes = planes.reshape(1, -1)
        blob, plane_lens, plane_zlib = _encode_planes(planes)
        if blob.nbytes + NODE_OVERHEAD_BYTES < arr.nbytes:
            return {
                ENC_KEY: "dz", "dtype": arr.dtype.name,
                "shape": list(arr.shape), "delta": bool(delta),
                "base": base, "width": width,
                "plane_lens": plane_lens, "plane_zlib": plane_zlib,
                "data": blob,
            }
        return arr
    if kind in ("f", "i", "u", "b"):
        # Elide exact zeros (by bit pattern: -0.0 and NaNs are values) when
        # they outweigh the packed nonzero mask plus one node's overhead.
        flat = arr.reshape(-1)
        nonzero = flat.view(f"u{arr.dtype.itemsize}") != 0
        zeros = flat.size - np.count_nonzero(nonzero)
        masked = zeros * arr.dtype.itemsize > -(-flat.size // 8) \
            + NODE_OVERHEAD_BYTES
        planes = byteplane_split(flat[nonzero] if masked else flat)
        if planes.ndim == 1:
            planes = planes.reshape(1, -1)
        blob, plane_lens, plane_zlib = _encode_planes(planes)
        node = {
            ENC_KEY: "bp", "dtype": arr.dtype.name,
            "shape": list(arr.shape), "plane_lens": plane_lens,
            "plane_zlib": plane_zlib, "data": blob,
        }
        stored = blob.nbytes
        if masked:
            node["mask"], _, (node["mask_zlib"],) = _encode_planes(
                np.packbits(nonzero).reshape(1, -1))
            stored += node["mask"].nbytes
        if stored + NODE_OVERHEAD_BYTES < arr.nbytes:
            return node
    return arr


def decode_array(node: dict) -> np.ndarray:
    """Decode one encoded array node (``dz``/``bp``).  A delta-coded
    ``dz`` run with no negative gap returns as :class:`SortedIndices`."""
    scheme = node[ENC_KEY]
    dtype = np.dtype(node["dtype"])
    shape = tuple(node["shape"])
    count = math.prod(shape)
    if scheme == "dz":
        width, delta = int(node["width"]), bool(node["delta"])
        zz = _decode_planes(node, count - delta, width) \
            .view(f"<u{width}").reshape(-1)
        negative = bool(np.bitwise_or.reduce(zz) & 1)   # any odd value
        signs = zz & 1 if negative else None
        staged = np.right_shift(zz, 1, out=zz).view(f"<i{width}")
        if negative:        # zigzag at the stored width: (u >> 1) ^ -(u & 1)
            staged ^= np.negative(signs.view(staged.dtype))
        if not delta:
            return staged.astype(dtype, copy=False).reshape(shape)
        out = np.empty(count, dtype=np.int64)
        out[0] = int(node["base"])
        np.cumsum(staged, dtype=np.int64, out=out[1:])
        out[1:] += out[0]
        decoded = out.astype(dtype, copy=False).reshape(shape)
        # Under 2**32 gaps in [0, 2**31): the int64 sum wrapped iff it ended
        # below its start, and with both ends in range the cast is exact.
        if not negative and width <= 4 and np.iinfo(dtype).min <= out[0] \
                <= out[-1] <= np.iinfo(dtype).max:
            decoded = decoded.view(SortedIndices)
            decoded.increasing = bool(staged.all())     # every gap > 0
        return decoded
    if scheme == "bp" and "mask" not in node:
        return _decode_planes(node, count, dtype.itemsize).view(dtype) \
            .reshape(shape)
    if scheme == "bp":      # planes hold the nonzeros; scatter them
        mask = np.ravel(node["mask"])
        if node["mask_zlib"]:
            mask = np.frombuffer(zlib.decompress(mask), dtype=np.uint8)
        if mask.dtype != np.uint8 or mask.size != -(-count // 8):
            raise ValueError("zero mask has the wrong length")
        nonzero = np.unpackbits(mask, count=count).view(bool)
        out = np.zeros(count, dtype=dtype)
        out[nonzero] = _decode_planes(node, np.count_nonzero(nonzero),
                                      dtype.itemsize).view(dtype).reshape(-1)
        return out.reshape(shape)
    raise ValueError(f"unknown array encoding scheme: {scheme!r}")


def logical_nbytes(tree) -> int:
    """Array payload bytes a tree logically carries, counting encoded
    nodes at their *decoded* size — the raw side of the compression
    ratio, computed without decoding anything."""
    if isinstance(tree, np.ndarray):
        return tree.nbytes
    if isinstance(tree, dict):
        if ENC_KEY in tree:
            return math.prod(tree["shape"]) * np.dtype(tree["dtype"]).itemsize
        return sum(logical_nbytes(v) for v in tree.values())
    if isinstance(tree, (list, tuple)):
        return sum(logical_nbytes(v) for v in tree)
    return 0


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------

class PayloadCodec:
    """Base codec: transforms serializable trees before/after the container
    serializer.  Stateless, so one instance serves every thread; a
    subclass sets ``codec_id``."""

    codec_id = ""

    def encode_tree(self, tree: dict) -> dict:
        """Byte-level transform of a record tree (ndarray leaves →
        encoded nodes).  Adds the self-describing ``__codec__`` tag."""
        started = time.perf_counter()
        out = self._walk_encode(tree)
        out[CODEC_TAG] = self.codec_id
        if OBS.enabled:
            OBS.registry.observe("codec.encode.s",
                                 time.perf_counter() - started)
        return out

    def decode_tree(self, tree: dict) -> dict:
        """Inverse of :meth:`encode_tree`: restores every array leaf, on the
        published pool (:data:`~repro.utils.pool.POOL`) if there is one."""
        started = time.perf_counter()
        decode = decode_array
        if (executor := POOL.get()) is not None:
            nodes: list[dict] = []
            self._walk_decode(tree, nodes.append)     # collect, then map
            done = dict(zip(map(id, nodes), executor.map(decode_array, nodes)))
            decode = lambda node: done[id(node)]    # noqa: E731
        out = self._walk_decode(tree, decode)
        out.pop(CODEC_TAG, None)
        if OBS.enabled:
            OBS.registry.observe("codec.decode.s",
                                 time.perf_counter() - started)
        return out

    def stats(self) -> dict:
        return {"codec": self.codec_id}

    # Tree walkers ----------------------------------------------------------
    def _walk_encode(self, node):
        if isinstance(node, np.ndarray):
            return encode_array(node)
        if isinstance(node, dict):
            return {key: self._walk_encode(value)
                    for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            items = [self._walk_encode(value) for value in node]
            return items if isinstance(node, list) else tuple(items)
        return node

    def _walk_decode(self, node, decode):
        if isinstance(node, dict):
            if ENC_KEY in node:
                return decode(node)
            return {key: self._walk_decode(value, decode)
                    for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            items = [self._walk_decode(value, decode) for value in node]
            return items if isinstance(node, list) else tuple(items)
        return node


class LosslessCodec(PayloadCodec):
    """The one (opt-in) codec: bit-exact round-trip, byte-level only."""

    codec_id = "lossless"


# ---------------------------------------------------------------------------
# The codec map
# ---------------------------------------------------------------------------

#: codec id -> its one shared instance (codecs are stateless).
CODECS: dict[str, PayloadCodec] = {LosslessCodec.codec_id: LosslessCodec()}


def get_codec(codec_id: str, context: str = "") -> PayloadCodec:
    """Codec lookup by id; raises :class:`UnknownCodecError`."""
    try:
        return CODECS[codec_id]
    except KeyError:
        raise UnknownCodecError(codec_id, context) from None


def make_codec(spec) -> PayloadCodec | None:
    """Resolve a codec spec: ``None``/``""``/``"none"`` (no codec), a codec
    id, or a :class:`PayloadCodec` instance (returned as-is)."""
    if spec is None or spec == "" or spec == "none":
        return None
    if isinstance(spec, PayloadCodec):
        return spec
    return get_codec(str(spec), "requested codec")
