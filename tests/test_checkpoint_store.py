"""Tests for the checkpoint store: manifests, chains, retention."""

import json
import zlib

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.storage import (
    CheckpointStore,
    InMemoryBackend,
    LocalDiskBackend,
    ShardedCheckpointStore,
)
from repro.storage.checkpoint_store import MANIFEST_KEY, journal_key
from tests.test_crash_contract import replay


def payload(rng, size=10):
    return TopKCompressor(0.5).compress({"w": rng.normal(size=(size,))})


def full_states(rng):
    model = {"w": rng.normal(size=(10,))}
    opt = {"type": "Adam", "lr": 1e-3, "step_count": 0,
           "slots": {"w": {"m": np.zeros(10), "v": np.zeros(10)}}}
    return model, opt


class TestFullCheckpoints:
    def test_save_load_roundtrip(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(5, model, opt)
        record = store.latest_full()
        assert record.step == 5
        loaded_model, loaded_opt, step = store.load_full(record)
        assert step == 5
        np.testing.assert_array_equal(loaded_model["w"], model["w"])
        assert loaded_opt["step_count"] == 0

    def test_latest_full_picks_newest(self, store, rng):
        model, opt = full_states(rng)
        for step in (3, 10, 7):
            store.save_full(step, model, opt)
        assert store.latest_full().step == 10

    def test_latest_full_none_when_empty(self, store):
        assert store.latest_full() is None

    def test_resave_same_step_replaces(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(5, model, opt)
        store.save_full(5, model, opt)
        assert len(store.fulls()) == 1


class TestDiffCheckpoints:
    def test_save_load_diff(self, store, rng):
        p = payload(rng)
        store.save_diff(1, 1, p)
        record = store.diffs()[0]
        assert (record.start, record.end, record.count) == (1, 1, 1)
        loaded = store.load_diff(record)
        np.testing.assert_array_equal(loaded.decompress()["w"],
                                      p.decompress()["w"])

    def test_invalid_range_rejected(self, store, rng):
        with pytest.raises(ValueError):
            store.save_diff(5, 3, payload(rng))

    def test_diffs_after_contiguous_chain(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        for step in range(1, 6):
            store.save_diff(step, step, payload(rng))
        chain = store.diffs_after(0)
        assert [(r.start, r.end) for r in chain] == [(i, i) for i in range(1, 6)]
        assert [(r.start, r.end) for r in store.diffs_after(3)] == [(4, 4), (5, 5)]

    def test_diffs_after_gap_truncates(self, store, rng):
        store.save_diff(1, 1, payload(rng))
        store.save_diff(3, 3, payload(rng))  # 2 missing
        chain = store.diffs_after(0)
        assert [(r.start, r.end) for r in chain] == [(1, 1)]

    def test_diffs_after_batched_records(self, store, rng):
        store.save_diff(1, 2, payload(rng), count=2)
        store.save_diff(3, 4, payload(rng), count=2)
        chain = store.diffs_after(0)
        assert [(r.start, r.end) for r in chain] == [(1, 2), (3, 4)]
        assert sum(r.count for r in chain) == 4

    def test_diffs_after_misaligned_start(self, store, rng):
        store.save_diff(2, 3, payload(rng))
        assert store.diffs_after(0) == []


class TestManifestPersistence:
    def test_reopen_recovers_index(self, rng, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        store = CheckpointStore(backend)
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        store.save_diff(1, 2, payload(rng), count=2)
        # A new process opens the same storage.
        reopened = CheckpointStore(LocalDiskBackend(str(tmp_path)))
        assert reopened.latest_full().step == 0
        assert [(r.start, r.end) for r in reopened.diffs_after(0)] == [(1, 2)]

    def test_storage_bytes_accounting(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        store.save_diff(1, 1, payload(rng))
        sizes = store.storage_bytes()
        assert sizes["full"] > 0 and sizes["diff"] > 0
        # Full checkpoint (3 Psi of state) far exceeds the sparse diff.
        assert sizes["full"] > sizes["diff"]


class TestGarbageCollection:
    def test_gc_keeps_newest_fulls(self, store, rng):
        model, opt = full_states(rng)
        for step in (0, 10, 20):
            store.save_full(step, model, opt)
        deleted = store.gc(keep_fulls=2)
        assert deleted == 1
        assert [r.step for r in store.fulls()] == [10, 20]
        assert not store.backend.exists("full/0000000000.ckpt")

    def test_gc_drops_unreachable_diffs(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        for step in range(1, 11):
            store.save_diff(step, step, payload(rng))
        store.save_full(10, model, opt)
        store.save_full(20, model, opt)
        store.gc(keep_fulls=2)
        # Diffs at or before step 10 (the oldest retained full) are gone.
        remaining = store.diffs()
        assert all(r.end > 10 for r in remaining)

    def test_gc_noop_when_under_limit(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        assert store.gc(keep_fulls=2) == 0

    def test_gc_rejects_zero(self, store):
        with pytest.raises(ValueError):
            store.gc(keep_fulls=0)

    def test_gc_sweeps_tmp_debris(self, rng, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        store = CheckpointStore(backend)
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        # A hard kill mid-write strands a temp file the atomic rename
        # never consumed.
        debris = tmp_path / "full" / "stranded.tmp"
        debris.write_bytes(b"torn")
        store.gc(keep_fulls=2)
        assert not debris.exists()
        # The committed checkpoint survives the sweep.
        assert store.latest_full().step == 0

    def test_gc_deletes_unreferenced_keys(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        store.save_diff(1, 1, payload(rng))
        # Blobs written but never committed to the manifest (crash between
        # data write and manifest commit) are storage leaks.
        store.backend.write("full/0000000099.ckpt", b"uncommitted")
        store.backend.write("diff/0000000050_0000000050.ckpt", b"uncommitted")
        deleted = store.gc(keep_fulls=2)
        assert deleted == 2
        assert not store.backend.exists("full/0000000099.ckpt")
        assert not store.backend.exists("diff/0000000050_0000000050.ckpt")
        assert store.latest_full().step == 0
        assert len(store.diffs()) == 1

    def test_gc_keeps_unreferenced_when_disabled(self, store, rng):
        """The sweep spares exactly what the index names: the snapshot,
        the live journal and every committed blob."""
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        store.save_diff(1, 1, payload(rng))
        referenced = store.backend.list_keys()
        assert journal_key(store._gen) in referenced
        store.backend.write("full/0000000099.ckpt", b"uncommitted")
        store.backend.write(journal_key(store._gen + 1), b"stale")
        assert store.gc(keep_fulls=2) == 2
        assert store.backend.list_keys() == referenced


class TestOverlapGuard:
    def test_inconsistent_overlap_rejected(self, store, rng):
        store.save_diff(1, 4, payload(rng), count=4)
        # A partial overlap would leave two records claiming step 3.
        with pytest.raises(ValueError, match="overlap"):
            store.save_diff(3, 3, payload(rng))
        with pytest.raises(ValueError, match="overlap"):
            store.save_diff(3, 6, payload(rng), count=4)
        with pytest.raises(ValueError, match="overlap"):
            store.save_diff(0, 1, payload(rng), count=2)

    def test_exact_range_replace_allowed(self, store, rng):
        store.save_diff(1, 4, payload(rng), count=4)
        replacement = payload(rng)
        store.save_diff(1, 4, replacement, count=4)  # recovery re-covers it
        assert len(store.diffs()) == 1
        loaded = store.load_diff(store.diffs()[0])
        np.testing.assert_array_equal(loaded.decompress()["w"],
                                      replacement.decompress()["w"])

    def test_disjoint_ranges_coexist(self, store, rng):
        store.save_diff(1, 4, payload(rng), count=4)
        store.save_diff(5, 8, payload(rng), count=4)
        assert [(r.start, r.end) for r in store.diffs()] == [(1, 4), (5, 8)]


def journaled_store(rng, backend=None, diffs=4):
    """A full at step 0, then ``diffs`` single-step diffs past the tail."""
    store = CheckpointStore(backend or InMemoryBackend())
    store.save_full(0, *full_states(rng))
    for step in range(1, diffs + 1):
        store.save_diff(step, step, payload(rng))
    return store


def splice(body: bytes) -> bytes:
    """A snapshot as the store writes it: the CRC spliced on last."""
    return body[:-1] + b',"crc":%d}' % zlib.crc32(body)


def pre_journal_trusts(backend) -> bool:
    """The open-time check of a build without journals: it re-encodes
    ``fulls`` and ``diffs`` alone and compares the CRC; on a mismatch it
    rebuilds the index from the keys instead."""
    manifest = json.loads(backend.read(MANIFEST_KEY))
    body = json.dumps({"fulls": manifest["fulls"], "diffs": manifest["diffs"]},
                      separators=(",", ":"), sort_keys=True).encode()
    return zlib.crc32(body) == manifest["crc"]


def assert_same_records(store, other):
    assert other.fulls() == store.fulls() and other.diffs() == store.diffs()
    for record in store.diffs():
        np.testing.assert_array_equal(
            other.load_diff(record).decompress()["w"],
            store.load_diff(record).decompress()["w"])
    for record in store.fulls():
        np.testing.assert_array_equal(other.load_full(record)[0]["w"],
                                      store.load_full(record)[0]["w"])


class TestJournal:
    def test_a_diff_past_the_tail_appends_one_checksummed_line(self, rng):
        store = journaled_store(rng, diffs=0)
        snapshot = store.backend.read(MANIFEST_KEY)
        store.save_diff(1, 1, payload(rng))
        store.save_diff(2, 3, payload(rng), count=2)
        assert store.backend.read(MANIFEST_KEY) == snapshot  # untouched
        lines = store.backend.read(journal_key(1)).split(b"\n")
        assert lines.pop() == b""
        for line, record in zip(lines, store.diffs(), strict=True):
            body, crc = line.rsplit(b" ", 1)
            assert zlib.crc32(body) == int(crc)
            assert json.loads(body) == vars(record)
        assert_same_records(store, CheckpointStore(store.backend))

    def test_every_other_mutation_rewrites_the_snapshot(self, rng):
        store = journaled_store(rng)
        assert store.backend.list_keys("manifest.") == [
            "manifest.1.journal", MANIFEST_KEY]
        store.save_diff(4, 4, payload(rng))     # same-range replace
        store.save_diff(6, 6, payload(rng))     # past the tail: journaled
        store.save_full(6, *full_states(rng))   # a full
        store.gc(keep_fulls=1)                  # retention
        assert store.backend.list_keys("manifest.") == [MANIFEST_KEY]
        assert json.loads(store.backend.read(MANIFEST_KEY))["gen"] == 4
        assert_same_records(store, CheckpointStore(store.backend))

    def test_open_checks_the_snapshot_crc_without_reencoding(self, rng):
        """What an open costs: ``tests/test_costs.py``'s ``index`` rows."""
        store = journaled_store(rng)
        store.save_full(4, *full_states(rng))   # a snapshot of 6 records
        assert_same_records(store, CheckpointStore(store.backend))
        # A manifest that does not end in the spliced CRC is re-encoded.
        manifest = json.loads(store.backend.read(MANIFEST_KEY))
        store.backend.write(MANIFEST_KEY, json.dumps(
            manifest, separators=(",", ":"), sort_keys=True).encode())
        reopened = CheckpointStore(store.backend)
        assert not reopened.manifest_rebuilt
        assert_same_records(store, reopened)

    def test_corrupt_journal_line_rebuilds_from_keys(self, rng):
        """A complete line failing its CRC is not a torn append: nothing
        after it is dropped — the index is rebuilt from the blobs."""
        store = journaled_store(rng)
        data = bytearray(store.backend.read(journal_key(1)))
        data[5] ^= 0x01
        store.backend.write(journal_key(1), bytes(data))
        reopened = CheckpointStore(store.backend)
        assert reopened.manifest_rebuilt
        assert [(r.start, r.end) for r in reopened.diffs()] == [
            (s, s) for s in range(1, 5)]

    def test_a_failed_append_commits_the_next_diff_by_snapshot(self):
        """A fixed rule sequence of the crash-contract machine
        (``tests/test_crash_contract.py``): the append tears 7 bytes."""
        replay("persist 4; arm fail 1 7; persist 2; reopen")

    def test_a_failed_journal_delete_leaves_the_new_generation(self):
        replay("persist 4; arm fail 3; full; persist; reopen")

    def test_each_shard_journals_its_own_part(self, rng, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        store = ShardedCheckpointStore(backend, 2)
        store.save_full(0, *full_states(rng))
        for step in (1, 2):
            store.save_diff(step, step, payload(rng, size=10))
        assert [k for k in backend.list_keys() if "journal" in k] == [
            "shard-0000/manifest.1.journal", "shard-0001/manifest.1.journal"]
        reopened = ShardedCheckpointStore(LocalDiskBackend(str(tmp_path)), 2)
        assert [(r.start, r.end) for r in reopened.diffs_after(0)] == [
            (1, 1), (2, 2)]


class TestFormatCompatibility:
    """Index files are the only bytes this format changes: blobs stay
    as they were, and a store written before journals opens as it is."""

    def test_pre_journal_store_opens_bit_identically(self, rng):
        store = journaled_store(rng)
        # The same records under a pre-journal index: one manifest, no
        # generation, no journal.
        legacy = InMemoryBackend()
        for key in store.backend.list_keys():
            if not key.startswith("manifest."):
                legacy.write(key, store.backend.read(key))
        legacy.write(MANIFEST_KEY, splice(CheckpointStore._manifest_body(
            store.fulls(), store.diffs())))
        assert pre_journal_trusts(legacy)  # it is that build's own format
        reopened = CheckpointStore(legacy)
        assert not reopened.manifest_rebuilt
        assert_same_records(store, reopened)
        # Its first commit starts generation 1; the next one journals.
        reopened.save_diff(5, 5, payload(rng))
        assert not legacy.exists(journal_key(1))
        reopened.save_diff(6, 6, payload(rng))
        assert legacy.exists(journal_key(1))
        assert_same_records(reopened, CheckpointStore(legacy))

    def test_pre_journal_build_rebuilds_a_journaled_store(self, rng):
        """A build without journals never trusts this build's snapshot (its
        CRC covers the generation), so it rebuilds the index from the keys
        — journaled records included — and its gc purges none of them."""
        store = journaled_store(rng)
        assert not pre_journal_trusts(store.backend)
        rebuilt = CheckpointStore(store.backend)
        rebuilt._rebuild_manifest_from_keys()   # that build's fallback
        assert rebuilt.diffs() == store.diffs()
        assert rebuilt.gc(keep_fulls=1) == 0
        assert_same_records(store, CheckpointStore(store.backend))
