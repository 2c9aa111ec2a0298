"""What one persisted record costs, as counts — never as timings.

The persist path pays for bytes, not for blobs: every stored byte is
checksummed by ``zlib.crc32`` only, a record tree is walked once, and
bytes that only cross the shared-memory ring carry no checksum.  Calls
made on the submitting thread repeat exactly, so a shared CI host can gate
them (ROADMAP item 5's rule); the timings they stand for are the
``bench/run.py`` rows ``stall_ms_per_iter`` and
``storage.serializer.pack_mb_s``.
"""

import json
import pathlib
import re
import zlib

import pytest

import repro
from repro.compression import TopKCompressor
from repro.optim import SGD
from repro.storage import (
    CheckpointStore,
    InMemoryBackend,
    LocalDiskBackend,
    ShardedCheckpointStore,
    open_persist_engine,
)
from repro.storage import serializer
from repro.storage.payload_codec import payload_to_tree
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests.helpers import CallCounts


def sparse_payload(seed=1, tensors=6, rows=50, cols=50, rho=0.1):
    rng = Rng(seed)
    return TopKCompressor(rho).compress({
        f"layer{i}.w": rng.child("g", i).normal(size=(rows, cols))
        for i in range(tensors)})


def diff_record_tree(step=3):
    return CheckpointStore.diff_tree(step, step, 1,
                                     payload_to_tree(sparse_payload()))


def test_packing_a_sparse_diff_costs_bytes_not_blobs():
    """12 blobs, ~14 KB: a few hundred interpreter calls, and ``zlib.crc32``
    reads every blob byte twice — once for the blob's own CRC, once for the
    container's — plus the manifest and the header part.  The container CRC
    chains over the parts, so that pass is one call per part."""
    tree = diff_record_tree()
    blobs = 12
    with CallCounts() as counts:
        parts, crc = serializer.pack_tree_parts(tree)
    data = b"".join(parts)
    assert len(parts) == blobs + 1
    assert 13_000 < len(data) < 16_000 and crc == zlib.crc32(data)
    assert counts.builtin[zlib.crc32] == 2 * blobs + 2
    assert sum(counts.python.values()) <= 300
    assert counts.roots[serializer._encode.__code__] == 1
    assert counts.calls(json.dumps) == 1


def test_store_commit_encodes_the_manifest_once():
    store = CheckpointStore(InMemoryBackend())
    model = MLP(6, [8], 3, rng=Rng(0))
    store.save_full(0, model.state_dict(), SGD(model, lr=1e-2).state_dict())
    payload = sparse_payload()
    with CallCounts() as counts:
        store.save_diff(1, 1, payload)
    # One dumps for the container manifest, one for the store manifest.
    assert counts.calls(json.dumps) == 2
    assert counts.calls(json.loads) == 0
    with CallCounts() as counts:
        store._commit_manifest()
    assert counts.calls(json.dumps) == 1 and counts.calls(json.loads) == 0
    # ...and what it wrote is what every reader, old or new, verifies.
    reopened = CheckpointStore(store.backend)
    assert not reopened.manifest_rebuilt
    assert reopened.diffs() == store.diffs() and reopened.fulls() == store.fulls()


class IndexTally(InMemoryBackend):
    """Counts the bytes handed to ``write`` and ``append`` for index keys
    (the snapshot and its journals)."""

    def __init__(self):
        super().__init__()
        self.index_bytes = 0

    def _write(self, key, parts):
        if key.startswith("manifest"):
            self.index_bytes += sum(map(len, parts))
        super()._write(key, parts)

    def _append(self, key, data):
        self.index_bytes += len(data)
        super()._append(key, data)


def test_a_diff_commit_costs_the_same_at_16_and_1024_records():
    """The O(1) commit: a diff past the tail of a 16-record and of a
    1 024-record store writes the same index bytes (one journal line) with
    the same Python calls and ``json.dumps`` calls (the container manifest
    and the line) — nothing scans, sorts or re-encodes the index."""
    payload = sparse_payload(tensors=1, rows=4, cols=4)
    model = MLP(6, [8], 3, rng=Rng(0))
    costs = []
    for records in (16, 1024):
        # A full, then one diff per step, ending at step 1023 either way:
        # the measured diff and its journal line are byte-identical.
        store = CheckpointStore(IndexTally())
        store.save_full(1024 - records, model.state_dict(),
                        SGD(model, lr=1e-2).state_dict())
        for step in range(1025 - records, 1024):
            store.save_diff(step, step, payload)
        assert len(store.fulls() + store.diffs()) == records
        before = store.backend.index_bytes
        with CallCounts() as counts:
            store.save_diff(1024, 1024, payload)
        costs.append((store.backend.index_bytes - before,
                      sum(counts.python.values()), counts.calls(json.dumps)))
    assert costs[0] == costs[1] == (143, 74, 2)


@pytest.mark.shm
@pytest.mark.parametrize("shards", [1, 2])
def test_ring_transit_is_one_walk_and_no_checksums_but_stored_blobs_carry_them(
        shards, tmp_path):
    backend = LocalDiskBackend(str(tmp_path))
    store = CheckpointStore(backend) if shards == 1 \
        else ShardedCheckpointStore(backend, shards)
    engine = open_persist_engine(store, persist_mode="process",
                                 writer_threads=1, queue_depth=8, ring_mb=4.0)
    executors = getattr(engine, "engines", [engine])
    model = MLP(50, [50], 50, rng=Rng(0))
    try:
        engine.save_full(0, model.state_dict(),
                         SGD(model, lr=1e-2).state_dict())
        rng = Rng(7)
        for step in (1, 2, 3):
            payload = TopKCompressor(0.1).compress({
                name: rng.child("g", step, name).normal(size=p.shape)
                for name, p in model.named_parameters()})
            with CallCounts() as counts:
                engine.save_diff(step, step, payload)
            # Per ring: one walk, one manifest encode, nothing checksummed.
            assert counts.roots[serializer._encode.__code__] == len(executors)
            assert counts.calls(serializer._prepare) == len(executors)
            assert counts.calls(json.dumps) == len(executors)
            assert counts.builtin[zlib.crc32] == 0
    finally:
        engine.finalize()

    # The workers' own pack made every checksum a stored blob carries.
    parts = [store] if shards == 1 else store.part_stores
    stored = 0
    for part in parts:
        for record in part.fulls() + part.diffs():
            data = part.backend.read(record.key)
            assert zlib.crc32(data) == record.crc
            _, manifest_len, _, manifest_crc = serializer._HEADER.unpack_from(data)
            manifest = data[serializer._HEADER.size:
                            serializer._HEADER.size + manifest_len]
            assert zlib.crc32(manifest) == manifest_crc
            index = json.loads(manifest)
            assert len(index["blob_crcs"]) == len(index["blob_sizes"]) > 0
            serializer.unpack_tree(data, verify=True)
            stored += 1
    assert stored == 4 * shards


def test_no_crc_combine_left_in_src():
    """Replace, not fork: the pure-Python GF(2) combine is gone, not kept
    beside the one ``zlib.crc32`` over the finished container."""
    root = pathlib.Path(repro.__file__).parent
    pattern = re.compile(r"_gf2_|crc32_combine|_whole_crc")
    hits = [str(path) for path in root.rglob("*.py")
            if pattern.search(path.read_text())]
    assert not hits
