"""Pickle-free binary serialization for checkpoint trees.

``torch.save`` pickles; pickles are neither portable nor safe to load from
untrusted storage.  This container keeps a JSON manifest describing an
arbitrary tree of dicts/lists/scalars/strings with NumPy arrays stored as
raw little-endian blobs after the manifest:

``[MAGIC 8B][manifest_len u64][total_len u64][manifest_crc u32]``
``[manifest JSON][blob 0][blob 1]...``

Integrity framing (the first line of defense in the resilience subsystem,
see ARCHITECTURE.md §6): ``total_len`` detects torn/truncated writes even
when the surviving prefix still parses, ``manifest_crc`` covers the JSON
index, and every blob carries its own CRC32 + length in the manifest.  Any
mismatch raises :class:`CorruptCheckpointError` — storage rot fails loudly
instead of silently corrupting a recovery.

Persist paths pack with :func:`pack_tree_parts` — the header, then a
zero-copy byte view of each blob array — and ``StorageBackend.write``
stores the parts back to back, so no container is built to be written.
:func:`pack_tree` joins them.  The process executor packs into its own
buffer (:func:`pack_tree_into`) and into the shared-memory ring
(:func:`pack_tree_into_view`).

Checksums are ``zlib.crc32`` and nothing else: one call per blob (kept
in the manifest, verified on read), one over the manifest, and the
whole-blob checksum the store indexes, chained over the parts
(``zlib.crc32(part, crc)``), which equals the CRC of the joined container
without building it.  A tree is walked once per pack
(:class:`PreparedTree`), and a container that only crosses the
shared-memory ring (:func:`prepare_transit`) carries no checksums at
all — nobody reads them there.

Arrays round-trip dtype and shape exactly; the sparse/quantized payload
classes serialize through their constituent arrays.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import NamedTuple

import numpy as np

MAGIC = b"LOWDIFF2"
_HEADER = struct.Struct("<8sQQI")

#: Marker key of an encoded array node of :mod:`repro.storage.payload_codec`.
ENC_KEY = "__enc__"

#: dtypes allowed in checkpoints (defensive allow-list for the reader).
_ALLOWED_DTYPES = {
    "float64", "float32", "float16",
    "int64", "int32", "int16", "int8",
    "uint64", "uint32", "uint16", "uint8",
    "bool",
}


class CorruptCheckpointError(ValueError):
    """A checkpoint failed an integrity check (magic, length, or CRC).

    Subclasses :class:`ValueError` so pre-existing callers that caught
    broad decode errors keep working; the recovery path catches this
    specifically to quarantine the blob and fall back.
    """


def _as_byte_view(array: np.ndarray) -> memoryview:
    """A flat byte view over a contiguous array — no copy."""
    return memoryview(array.reshape(-1)).cast("B")


def _encode(node, blobs: list[np.ndarray]):
    """Convert a tree node to its JSON-able description, collecting blob
    arrays as contiguous views (copies only when the source is not
    already contiguous)."""
    if isinstance(node, np.ndarray):
        dtype = node.dtype.name
        if dtype not in _ALLOWED_DTYPES:
            raise TypeError(f"unsupported array dtype in checkpoint: {dtype}")
        blob_index = len(blobs)
        blobs.append(np.ascontiguousarray(node))
        return {
            "__kind__": "ndarray",
            "dtype": dtype,
            "shape": list(node.shape),
            "blob": blob_index,
        }
    if isinstance(node, (np.integer,)):
        return {"__kind__": "int", "value": int(node)}
    if isinstance(node, (np.floating,)):
        return {"__kind__": "float", "value": float(node)}
    if isinstance(node, dict):
        for key in node:
            if not isinstance(key, str):
                raise TypeError(f"checkpoint dict keys must be str, got {type(key)}")
        return {
            "__kind__": "dict",
            "items": {key: _encode(value, blobs) for key, value in node.items()},
        }
    if isinstance(node, (list, tuple)):
        return {
            "__kind__": "list" if isinstance(node, list) else "tuple",
            "items": [_encode(value, blobs) for value in node],
        }
    if node is None or isinstance(node, (bool, int, float, str)):
        return {"__kind__": "scalar", "value": node}
    raise TypeError(f"cannot serialize object of type {type(node).__name__}")


def _decode(description, blobs: list[memoryview], codec_input: bool = False):
    """``codec_input``: inside a payload codec's encoded node, whose arrays
    its decoder reads once and drops — read-only views, no copy, when the
    container is immutable."""
    kind = description["__kind__"]
    if kind == "ndarray":
        dtype = description["dtype"]
        if dtype not in _ALLOWED_DTYPES:
            raise ValueError(f"refusing to load array dtype {dtype}")
        blob = blobs[description["blob"]]
        array = np.frombuffer(blob, dtype=dtype).reshape(description["shape"])
        return array if codec_input and blob.readonly else array.copy()
    if kind == "dict":
        items = description["items"]
        codec_input = codec_input or ENC_KEY in items
        return {key: _decode(val, blobs, codec_input)
                for key, val in items.items()}
    if kind == "list":
        return [_decode(val, blobs, codec_input) for val in description["items"]]
    if kind == "tuple":
        return tuple(_decode(val, blobs, codec_input)
                     for val in description["items"])
    if kind in ("scalar", "int", "float"):
        return description["value"]
    raise ValueError(f"unknown node kind in checkpoint: {kind}")


class PreparedTree(NamedTuple):
    """One walk of a tree: everything a pack needs except the destination."""

    blobs: list[np.ndarray]   # contiguous views (copies only if they had to be)
    manifest: bytes
    total_len: int
    checksummed: bool


def _prepare(tree, checksums: bool = True) -> PreparedTree:
    """Walk the tree once: blob arrays, manifest, total size — and, for
    every container that will be stored, one CRC32 per blob."""
    blobs: list[np.ndarray] = []
    index = {"root": _encode(tree, blobs),
             "blob_sizes": [blob.nbytes for blob in blobs]}
    if checksums:
        index["blob_crcs"] = [zlib.crc32(_as_byte_view(blob)) for blob in blobs]
    manifest = json.dumps(index, separators=(",", ":")).encode()
    total_len = _HEADER.size + len(manifest) + sum(index["blob_sizes"])
    return PreparedTree(blobs, manifest, total_len, checksums)


def prepare_transit(tree) -> PreparedTree:
    """Prepare ``tree`` for :func:`pack_tree_into_view` with checksums off.

    For bytes whose only reader is ``unpack_tree(verify=False)`` on the
    other side of the shared-memory ring.  The container omits
    ``blob_crcs`` and frames a zero manifest CRC, so a verified read of it
    fails loudly: it cannot pass for a stored checkpoint.
    """
    return _prepare(tree, checksums=False)


def pack_tree_parts(tree) -> tuple[list, int]:
    """Serialize a checkpoint tree as the parts of its container.

    Returns ``(parts, crc)``: the header and manifest as one ``bytes``,
    then a byte view of each blob array (no copy; the arrays must not
    change while the parts are in use), and ``zlib.crc32`` of the parts
    written back to back — the container.
    """
    blobs, manifest, total_len, _ = _prepare(tree)
    parts = [_HEADER.pack(MAGIC, len(manifest), total_len,
                          zlib.crc32(manifest)) + manifest]
    parts += map(_as_byte_view, blobs)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return parts, crc


def pack_tree_into(tree, buffer: bytearray) -> tuple[memoryview, int]:
    """Serialize a checkpoint tree into ``buffer``, the process executor
    worker's private container.

    ``buffer`` is grown (never shrunk) as needed, so a reused buffer
    converges to the largest checkpoint it has carried.  Returns
    ``(view, crc)``: a memoryview over the packed bytes inside ``buffer``
    and ``zlib.crc32`` of exactly those bytes.  The buffer must not be
    resized while the returned view is alive; call ``view.release()``
    when done.
    """
    prepared = _prepare(tree)
    if len(buffer) < prepared.total_len:
        buffer.extend(bytes(prepared.total_len - len(buffer)))
    view = memoryview(buffer)
    return view[:prepared.total_len], _pack_prepared(prepared, view)


def _pack_prepared(prepared: PreparedTree, view: memoryview) -> int | None:
    """Write a prepared tree into a writable view of sufficient size.

    Shared tail of :func:`pack_tree_into` (growable bytearray) and
    :func:`pack_tree_into_view` (fixed-capacity shared-memory region).
    Returns the CRC32 of the written container — the only place that is
    computed — or ``None`` for a transit container.
    """
    blobs, manifest, total_len, checksummed = prepared
    manifest_end = _HEADER.size + len(manifest)
    _HEADER.pack_into(view, 0, MAGIC, len(manifest), total_len,
                      zlib.crc32(manifest) if checksummed else 0)
    view[_HEADER.size:manifest_end] = manifest
    offset = manifest_end
    for blob in blobs:
        end = offset + blob.nbytes
        view[offset:end] = _as_byte_view(blob)
        offset = end
    return zlib.crc32(view[:total_len]) if checksummed else None


def pack_tree_into_view(tree, view: memoryview) -> tuple[int, int | None]:
    """Serialize a checkpoint tree into a fixed-capacity writable view.

    The shared-memory variant of :func:`pack_tree_into`: the destination
    (a slice of a ``multiprocessing.shared_memory`` segment) cannot grow,
    so this packer raises :class:`ValueError` rather than resize.  The
    ring's submit path passes a :func:`prepare_transit` result in place
    of ``tree``: it sized the region from that same walk, and the bytes
    cross unchecksummed.  Array payloads are memcpy'd straight from their
    contiguous source views into the shared segment — the pack *is* the
    snapshot copy; no intermediate ``bytes`` objects and no pickle
    round-trip.

    Returns ``(total_len, crc)`` — the packed byte count and
    ``zlib.crc32`` of those bytes (``None`` for a transit container).
    """
    prepared = tree if isinstance(tree, PreparedTree) else _prepare(tree)
    if len(view) < prepared.total_len:
        raise ValueError(
            f"destination view too small: need {prepared.total_len} bytes, "
            f"have {len(view)}")
    return prepared.total_len, _pack_prepared(prepared, view)


def pack_tree_with_crc(tree) -> tuple[bytes, int]:
    """Serialize to fresh ``bytes`` plus ``zlib.crc32`` of them: the
    joined :func:`pack_tree_parts`."""
    parts, crc = pack_tree_parts(tree)
    return b"".join(parts), crc


def pack_tree(tree) -> bytes:
    """Serialize a checkpoint tree to bytes.

    The header frames the payload with its total length and the manifest's
    CRC32; each blob additionally carries a CRC32 in the manifest, verified
    on read.
    """
    return pack_tree_with_crc(tree)[0]


def unpack_tree(data, verify: bool = True):
    """Deserialize bytes produced by :func:`pack_tree`.

    ``verify=False`` skips CRC verification (e.g. when the backend
    already authenticated the bytes); structural framing (magic, lengths)
    is always enforced.
    """
    if len(data) < _HEADER.size:
        raise CorruptCheckpointError("truncated checkpoint: missing header")
    magic, manifest_len, total_len, manifest_crc = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CorruptCheckpointError(f"bad checkpoint magic {magic!r}")
    if total_len != len(data):
        raise CorruptCheckpointError(
            f"torn checkpoint: framed length {total_len} != actual {len(data)}"
        )
    manifest_end = _HEADER.size + manifest_len
    if len(data) < manifest_end:
        raise CorruptCheckpointError("truncated checkpoint: manifest cut short")
    manifest_bytes = bytes(data[_HEADER.size:manifest_end])
    if verify and zlib.crc32(manifest_bytes) != manifest_crc:
        raise CorruptCheckpointError(
            "checkpoint corruption: manifest failed CRC check"
        )
    try:
        manifest = json.loads(manifest_bytes.decode())
        blob_sizes = manifest["blob_sizes"]
        blob_crcs = manifest.get("blob_crcs")
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as err:
        raise CorruptCheckpointError(f"unreadable checkpoint manifest: {err}") from err
    blobs: list[memoryview] = []
    view = memoryview(data)
    offset = manifest_end
    for index, size in enumerate(blob_sizes):
        if offset + size > len(data):
            raise CorruptCheckpointError("truncated checkpoint: blob cut short")
        blob = view[offset:offset + size]
        if verify and blob_crcs is not None:
            if zlib.crc32(blob) != blob_crcs[index]:
                raise CorruptCheckpointError(
                    f"checkpoint corruption: blob {index} failed CRC check"
                )
        blobs.append(blob)
        offset += size
    try:
        return _decode(manifest["root"], blobs)
    except (KeyError, IndexError, TypeError) as err:
        raise CorruptCheckpointError(f"malformed checkpoint tree: {err}") from err

