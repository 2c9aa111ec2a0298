"""Checkpoint store: full + differential series over a storage backend.

Manages the on-storage layout the recovery process reads:

* ``full/<step>.ckpt`` — full model state (parameters + optimizer), the
  ``C^F`` of Eq. (2);
* ``diff/<start>_<end>.ckpt`` — one (possibly batched) differential
  checkpoint covering optimizer steps ``start..end`` inclusive, the
  ``C^D``/``C^B`` of §IV.  A re-save of a record with other bytes goes
  under its other key, ``<key>.1.ckpt`` (or back), never over the bytes
  the index names;
* ``manifest.json`` + ``manifest.<g>.journal`` — the index: a snapshot
  of generation ``g``, rewritten atomically by every mutation but one, and
  its journal, to which a diff past the chain's tail commits as one
  appended, fsynced ``<record JSON> <crc32>\n`` line.  A crash between
  data write and index update leaves the previous consistent view;
* ``quarantine/...`` — blobs that failed an integrity check, moved aside
  (never deleted outright) so a post-mortem can inspect them.

Integrity: every record, the snapshot and each journal line carry a CRC32.
Reads are verified against the record checksum *and* the container's
internal framing; a mismatch raises
:class:`~repro.storage.serializer.CorruptCheckpointError`.  A corrupt or
stale index is rebuilt from a key listing instead of being trusted
blindly; an unterminated last journal line (a torn append) is dropped.

Retention: old fulls and the diffs they anchor can be garbage-collected
once newer fulls exist; ``gc`` also sweeps crash debris (orphaned ``.tmp``
files, backend keys no manifest references).  Long differential chains can
be *compacted* — adjacent diff records merged into consolidated super-diff
records — via :meth:`CheckpointStore.compact` and the policy machinery in
:mod:`repro.storage.compaction`.

Crash-ordering invariant (ARCHITECTURE.md §10): every mutation that
*removes* data commits the shrunk snapshot **before** deleting backend
keys, every mutation that *adds* data writes the blob **before** the
journal line or snapshot that references it, and a snapshot lands before
the journal it supersedes is deleted.  A crash at any point therefore
leaves either (a) the previous consistent view plus some unreferenced
blobs or journals (swept by ``gc``) or (b) the new consistent view —
never an index entry pointing at a missing key.
"""

from __future__ import annotations

import json
import re
import threading
import zlib
from dataclasses import dataclass

from repro.obs import OBS
from repro.storage.backends import StorageBackend, total_bytes
from repro.storage.payload_codec import (
    CODECS,
    CODEC_TAG,
    UnknownCodecError,
    get_codec,
    logical_nbytes,
    make_codec,
    payload_to_tree,
    tree_to_payload,
)
from repro.storage.serializer import (
    CorruptCheckpointError,
    pack_tree_parts,
    pack_tree_with_crc,  # noqa: F401 (no caller; the bench wraps it by name)
    unpack_tree,
)

MANIFEST_KEY = "manifest.json"
QUARANTINE_PREFIX = "quarantine/"

_FULL_KEY_RE = re.compile(r"^full/(\d{10})(\.1)?\.ckpt$")
_DIFF_KEY_RE = re.compile(r"^diff/(\d{10})_(\d{10})(\.1)?\.ckpt$")


def journal_key(gen: int) -> str:
    return f"manifest.{gen}.journal"


def full_key(step: int) -> str:
    return f"full/{step:010d}.ckpt"


def diff_key(start: int, end: int) -> str:
    return f"diff/{start:010d}_{end:010d}.ckpt"


def other_key(key: str) -> str:
    """The second key of a record's slot: ``x.ckpt`` <-> ``x.1.ckpt``."""
    stem = key[:-len(".ckpt")]
    return stem[:-2] + ".ckpt" if stem.endswith(".1") else stem + ".1.ckpt"


def encode_record_tree(codec, tree: dict):
    """Apply ``codec`` (``None`` = uncoded) to a record tree before packing.

    Stateless and store-less, so it runs wherever the record is packed: in
    the store, on a writer thread, or in a persist worker process.
    Returns ``(tree, codec_id, raw_nbytes)``.
    """
    if codec is None:
        return tree, "", 0
    return codec.encode_tree(tree), codec.codec_id, logical_nbytes(tree)


@dataclass(frozen=True)
class FullCheckpointRecord:
    step: int
    key: str
    nbytes: int
    crc: int = 0  # CRC32 of the serialized bytes; 0 = legacy record, unverified
    codec: str = ""      # payload codec id; "" = uncoded (pre-codec record)
    raw_nbytes: int = 0  # logical payload bytes before encoding; 0 = unknown


@dataclass(frozen=True)
class DiffCheckpointRecord:
    start: int  # first optimizer step covered (inclusive)
    end: int    # last optimizer step covered (inclusive)
    key: str
    nbytes: int
    count: int  # number of gradients accumulated into this diff
    crc: int = 0
    codec: str = ""
    raw_nbytes: int = 0


class CheckpointStore:
    """Full/differential checkpoint series with a checksummed manifest index.

    Parameters
    ----------
    backend:
        The storage backend holding blobs and the manifest.
    codec:
        Optional payload codec applied to every record this store writes:
        a codec id (``"lossless"``), a
        :class:`~repro.storage.payload_codec.PayloadCodec` instance, or
        ``None`` (default — uncoded, byte-identical with earlier
        revisions).  Reads are codec-agnostic: each record's decoder is
        selected from its manifest entry / in-blob tag, so mixed and
        legacy (uncoded) series stay readable regardless of this setting.

    Opening a store whose manifest names a codec id this build does not
    register raises a typed
    :class:`~repro.storage.payload_codec.UnknownCodecError` — failing at
    open beats failing mid-recovery.
    """

    def __init__(self, backend: StorageBackend, codec=None):
        self.backend = backend
        self.codec = make_codec(codec)
        #: Serializes every manifest-mutating operation (saves, gc,
        #: compaction, repair).  Without it, ``gc`` on the training thread
        #: can list keys while an async-engine writer sits between its
        #: blob write and its manifest commit — and purge the blob the
        #: manifest is about to reference.
        self._mutation_lock = threading.RLock()
        self._fulls: list[FullCheckpointRecord] = []
        self._diffs: list[DiffCheckpointRecord] = []
        #: Snapshot generation (0: none, or pre-journal) and the journal a
        #: diff may append to (None: the next commit rewrites the snapshot).
        self._gen, self._journal = 0, None
        #: True while a snapshot commit has not landed: the index in memory
        #: may be ahead of the durable one, so ``gc`` commits before it
        #: deletes what memory no longer names.
        self._unsaved = False
        #: Keys moved to quarantine over this store's lifetime.
        self.quarantined: list[str] = []
        #: True if the manifest had to be rebuilt from a key listing.
        self.manifest_rebuilt = False
        if backend.exists(MANIFEST_KEY):
            try:
                self._load_manifest()
            except (CorruptCheckpointError, ValueError, KeyError, TypeError,
                    json.JSONDecodeError, UnicodeDecodeError):
                self._rebuild_manifest_from_keys()
            else:
                self._drop_stale_records()
        elif backend.list_keys("full/") or backend.list_keys("diff/"):
            # Data without an index (manifest lost to a crash or tier
            # failure): reconstruct it rather than silently starting over.
            self._rebuild_manifest_from_keys()
        self._check_record_codecs()

    # Codec ----------------------------------------------------------------
    def set_codec(self, codec) -> None:
        """Switch the codec applied to subsequent writes (reads are
        unaffected — they always follow each record's own codec id)."""
        self.codec = make_codec(codec)

    def _check_record_codecs(self) -> None:
        unknown = sorted({r.codec for r in self._fulls + self._diffs
                          if r.codec and r.codec not in CODECS})
        if unknown:
            hit = [r.key for r in self._fulls + self._diffs
                   if r.codec == unknown[0]]
            raise UnknownCodecError(
                unknown[0],
                f"manifest references {len(hit)} record(s), e.g. {hit[0]}")

    @staticmethod
    def _count_storage_bytes(kind: str, encoded_nbytes: int,
                             raw_nbytes: int) -> None:
        """`storage.bytes.*` counters: raw (logical payload) vs encoded
        (container on disk) bytes per committed record."""
        if not OBS.enabled:
            return
        raw = raw_nbytes if raw_nbytes else encoded_nbytes
        OBS.registry.counter("storage.bytes.raw").inc(raw)
        OBS.registry.counter("storage.bytes.encoded").inc(encoded_nbytes)
        OBS.registry.counter(f"storage.bytes.{kind}.raw").inc(raw)
        OBS.registry.counter(
            f"storage.bytes.{kind}.encoded").inc(encoded_nbytes)

    # Manifest ------------------------------------------------------------
    @staticmethod
    def _manifest_body(fulls, diffs, gen: int = 0) -> bytes:
        return json.dumps(
            {"fulls": [vars(rec) for rec in fulls],
             "diffs": [vars(rec) for rec in diffs],
             **({"gen": gen} if gen else {})},
            separators=(",", ":"), sort_keys=True,
        ).encode()

    def _load_manifest(self) -> None:
        """The snapshot, then its journal in one pass.  A complete journal
        line failing its CRC is corruption (the caller rebuilds from keys);
        a torn last line was never acknowledged: rewriting the snapshot
        drops it before any append can extend it."""
        raw = self.backend.read(MANIFEST_KEY)
        manifest = json.loads(raw)
        fulls = [FullCheckpointRecord(**rec) for rec in manifest["fulls"]]
        diffs = [DiffCheckpointRecord(**rec) for rec in manifest["diffs"]]
        gen = manifest.get("gen", 0)
        if "crc" in manifest:
            # The CRC covers the body up to the spliced ``,"crc":N}``; only
            # a manifest that does not split that way is re-encoded.
            suffix = b',"crc":%d}' % manifest["crc"]
            body = raw[:-len(suffix)] + b"}" if raw.endswith(suffix) \
                else self._manifest_body(fulls, diffs, gen)
            if zlib.crc32(body) != manifest["crc"]:
                raise CorruptCheckpointError("manifest failed CRC check")
        self._fulls, self._diffs, self._gen = fulls, diffs, gen
        self._journal = journal_key(gen) if gen else None
        if not (gen and self.backend.exists(self._journal)):
            return
        *lines, torn = self.backend.read(self._journal).split(b"\n")
        bodies = [line.rpartition(b" ") for line in lines]
        if any(zlib.crc32(body) != int(crc) for body, _, crc in bodies):
            raise CorruptCheckpointError(f"{self._journal} failed CRC check")
        self._diffs += [DiffCheckpointRecord(**rec) for rec in json.loads(
            b"[%s]" % b",".join(body for body, _, _ in bodies))]
        if torn:
            self._commit_manifest()

    def _commit_manifest(self) -> None:
        gen, superseded = self._gen + 1, journal_key(self._gen)
        self._unsaved = True
        self.backend.delete(journal_key(gen))  # stale: must not replay
        # The CRC covers the body without itself; splicing it on as the
        # last key spares re-encoding every record on every commit.
        body = self._manifest_body(self._fulls, self._diffs, gen)
        self.backend.write(
            MANIFEST_KEY, body[:-1] + b',"crc":%d}' % zlib.crc32(body))
        self._gen, self._journal, self._unsaved = gen, journal_key(gen), False
        self.backend.delete(superseded)

    def _append_journal(self, record: DiffCheckpointRecord) -> None:
        line = json.dumps(vars(record), separators=(",", ":"),
                          sort_keys=True).encode()
        try:
            self.backend.append(self._journal,
                                b"%s %d\n" % (line, zlib.crc32(line)))
        except BaseException:
            self._journal = None  # a torn line may have landed
            raise
        self._diffs.append(record)

    def _drop_stale_records(self) -> None:
        """Drop manifest entries whose backing key no longer exists.

        A manifest can outlive its data (partial restore, tier loss,
        manual deletion); trusting such an entry would crash recovery or
        replay a hole.  Dropping it here means ``diffs_after`` sees the
        gap and truncates the chain honestly.
        """
        gone = {r.key for r in self._fulls + self._diffs
                if not self.backend.exists(r.key)}
        if gone:
            self._forget(gone)

    def _forget(self, keys: set) -> None:
        """Drop the records stored under ``keys`` and commit the snapshot."""
        self._fulls = [r for r in self._fulls if r.key not in keys]
        self._diffs = [r for r in self._diffs if r.key not in keys]
        self._commit_manifest()

    def _rebuild_manifest_from_keys(self) -> None:
        """Reconstruct the index by scanning and validating actual keys.

        Every blob is read and integrity-checked; corrupt blobs are
        quarantined rather than re-indexed.  Transient read errors leave
        the key out of the rebuilt manifest (it can be re-indexed by a
        later rebuild) without destroying it.
        """
        self.manifest_rebuilt = True
        fulls: list[FullCheckpointRecord] = []
        diffs: list[DiffCheckpointRecord] = []
        for key in sorted(self.backend.list_keys()):
            full_match = _FULL_KEY_RE.match(key)
            diff_match = _DIFF_KEY_RE.match(key)
            if not full_match and not diff_match:
                continue
            try:
                data = self.backend.read(key)
                tree = unpack_tree(data)
                # Codecs only transform array leaves, so the scalar
                # metadata (step/start/end/count) survives encoding and
                # the in-blob tag recovers each record's codec id.
                codec_id = str(tree.get(CODEC_TAG, ""))
                if full_match:
                    fulls.append(FullCheckpointRecord(
                        step=int(tree["step"]), key=key, nbytes=len(data),
                        crc=zlib.crc32(data), codec=codec_id))
                else:
                    diffs.append(DiffCheckpointRecord(
                        start=int(tree["start"]), end=int(tree["end"]), key=key,
                        nbytes=len(data), count=int(tree["count"]),
                        crc=zlib.crc32(data), codec=codec_id))
            except (CorruptCheckpointError, KeyError, TypeError):
                self._quarantine_key(key)
            except OSError:
                continue
        # Both keys of a slot survive only a crash between a re-save's
        # commit and its delete: either holds that record; keep one.
        fulls = sorted({r.step: r for r in fulls}.values(),
                       key=lambda r: r.step)
        diffs = sorted({(r.start, r.end): r for r in diffs}.values(),
                       key=lambda r: (r.start, r.end))
        self._fulls, self._diffs = fulls, diffs
        self._commit_manifest()

    # Quarantine ------------------------------------------------------------
    def _quarantine_key(self, key: str) -> None:
        try:
            self.backend.write(QUARANTINE_PREFIX + key, self.backend.read(key))
        except OSError:
            pass  # unreadable or quarantine tier down: removal still proceeds
        self.backend.delete(key)
        self.quarantined.append(key)

    def quarantine(self, record: FullCheckpointRecord | DiffCheckpointRecord
                   ) -> None:
        """Move a record's blob to quarantine and drop it from the index.

        Called by the recovery path when a blob fails verification; the
        bytes are preserved under ``quarantine/`` for post-mortems while
        the record disappears from the replayable series.

        Ordering: copy aside, commit the pruned manifest, *then* delete
        the original — a crash mid-quarantine never leaves the manifest
        referencing a missing key.  If the manifest commit itself fails
        (storage refusing writes must not abort a recovery) the original
        blob is left in place for the same reason.
        """
        with self._mutation_lock:
            try:
                self.backend.write(QUARANTINE_PREFIX + record.key,
                                   self.backend.read(record.key))
            except OSError:
                pass  # unreadable or quarantine tier down: removal proceeds
            try:
                self._forget({record.key})
            except OSError:
                pass  # the blob stays: the snapshot still references it
            else:
                self.backend.delete(record.key)
            self.quarantined.append(record.key)

    # Saving ------------------------------------------------------------------
    @staticmethod
    def full_tree(step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> dict:
        """The serializable tree of a full checkpoint (shared with the
        async engine, whose workers pack it off-thread)."""
        return {
            "step": int(step),
            "model": model_state,
            "optimizer": optimizer_state,
            "extra": extra or {},
        }

    @staticmethod
    def diff_tree(start: int, end: int, count: int, payload_tree) -> dict:
        """The serializable tree of a differential record."""
        return {
            "start": int(start),
            "end": int(end),
            "count": int(count),
            "payload": payload_tree,
        }

    def save_full(self, step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> FullCheckpointRecord:
        """Persist a full checkpoint ``C^F`` at optimizer step ``step``.

        ``step`` means: this state is the result of ``step`` optimizer
        updates; replaying diff ``step+1`` on it advances to ``step+1``.
        """
        tree, codec_id, raw_nbytes = encode_record_tree(
            self.codec,
            self.full_tree(step, model_state, optimizer_state, extra))
        parts, crc = pack_tree_parts(tree)
        return self.save_full_bytes(step, parts, crc, codec=codec_id,
                                    raw_nbytes=raw_nbytes)

    def save_full_bytes(self, step: int, data, crc: int, codec: str = "",
                        raw_nbytes: int = 0) -> FullCheckpointRecord:
        """Persist an already-serialized full checkpoint.

        ``data`` is the packed container (bytes, or ``pack_tree_parts``'s
        parts) and ``crc`` its CRC32, both produced by the serializer's
        single packing pass — this is the commit stage of the async
        persistence engine, and the point at which the record becomes
        visible in the manifest.
        """
        return self._commit_full(step, total_bytes(data), crc, codec,
                                 raw_nbytes, data)

    def _place_blob(self, key: str, data, crc: int, old=None) -> str:
        """First half of every commit: the blob is written here — or, when
        a worker process already wrote it (``data is None``), checked to
        exist — strictly before the manifest that references it.  Returns
        the key it is under.

        ``old`` is the indexed record this one supersedes.  Other bytes
        never overwrite the ones it names (a crash before the commit would
        leave its CRC naming them): they go under its slot's other key, and
        :meth:`_retire` deletes ``old``'s blob after the commit."""
        if data is None:
            if not self.backend.exists(key):
                raise ValueError(
                    f"cannot register {key}: blob not found in backend")
            return key
        if old is not None:
            key = old.key if old.crc == crc & 0xFFFFFFFF \
                else other_key(old.key)
        self.backend.write(key, data)
        return key

    def _retire(self, old, key: str) -> None:
        """After the commit naming ``key``: delete the blob it superseded
        (a crash first leaves it to ``gc``'s sweep)."""
        if old is not None and old.key != key:
            self.backend.delete(old.key)

    def _commit_full(self, step: int, nbytes: int, crc: int, codec: str,
                     raw_nbytes: int, data=None) -> FullCheckpointRecord:
        with self._mutation_lock:
            old = next((r for r in self._fulls if r.step == step), None)
            key = self._place_blob(full_key(step), data, crc, old)
            record = FullCheckpointRecord(step=int(step), key=key,
                                          nbytes=int(nbytes),
                                          crc=crc & 0xFFFFFFFF,
                                          codec=codec,
                                          raw_nbytes=int(raw_nbytes))
            self._fulls = [r for r in self._fulls if r.step != step] + [record]
            self._fulls.sort(key=lambda r: r.step)
            self._commit_manifest()
            self._retire(old, key)
        self._count_storage_bytes("full", int(nbytes), raw_nbytes)
        return record

    def save_diff(self, start: int, end: int, payload, count: int | None = None
                  ) -> DiffCheckpointRecord:
        """Persist a (batched) differential checkpoint covering steps [start, end].

        A diff whose range overlaps an existing record *without being equal
        to it* is rejected: the contiguous-chain logic of ``diffs_after``
        assumes ranges partition the step axis, and an inconsistent
        overlap (e.g. ``[5,8]`` coexisting with ``[6,7]``) would make the
        replay chain ambiguous.  Re-writing the exact same range replaces
        the previous record (the legitimate retry/resume path).
        """
        resolved_count = int(count if count is not None else end - start + 1)
        tree, codec_id, raw_nbytes = encode_record_tree(
            self.codec,
            self.diff_tree(start, end, resolved_count,
                           payload_to_tree(payload)))
        parts, crc = pack_tree_parts(tree)
        return self.save_diff_bytes(start, end, resolved_count, parts, crc,
                                    codec=codec_id, raw_nbytes=raw_nbytes)

    def save_diff_bytes(self, start: int, end: int, count: int, data, crc: int,
                        codec: str = "", raw_nbytes: int = 0
                        ) -> DiffCheckpointRecord:
        """Persist an already-serialized diff covering ``[start, end]``.

        Commit stage of the async persistence engine; range validation and
        manifest visibility happen here, after serialization (which may
        have run on a writer thread).
        """
        return self._commit_diff(start, end, count, total_bytes(data), crc,
                                 codec, raw_nbytes, data)

    def _commit_diff(self, start: int, end: int, count: int, nbytes: int,
                     crc: int, codec: str, raw_nbytes: int, data=None
                     ) -> DiffCheckpointRecord:
        if end < start:
            raise ValueError(f"diff range invalid: start={start} end={end}")
        with self._mutation_lock:
            for existing in () if self._extends_chain(start) else self._diffs:
                if (existing.start, existing.end) != (start, end) \
                        and start <= existing.end and end >= existing.start:
                    raise ValueError(
                        f"diff range [{start},{end}] overlaps existing record "
                        f"[{existing.start},{existing.end}] inconsistently"
                    )
            record = self._install_diff(start, end, count, nbytes, crc, codec,
                                        raw_nbytes, data)
        self._count_storage_bytes("diff", int(nbytes), raw_nbytes)
        return record

    def _extends_chain(self, start: int) -> bool:
        return not self._diffs or start > self._diffs[-1].end

    def _install_diff(self, start: int, end: int, count: int, nbytes: int,
                      crc: int, codec: str, raw_nbytes: int, data
                      ) -> DiffCheckpointRecord:
        """Blob, then record, then a journal line for a diff past the tail
        or the sorted snapshot for any other, which supersedes the
        same-range record (caller holds the mutation lock and has
        validated the range)."""
        extends = self._extends_chain(start)
        old = None if extends else next(
            (r for r in self._diffs if (r.start, r.end) == (start, end)), None)
        key = self._place_blob(diff_key(start, end), data, crc, old)
        record = DiffCheckpointRecord(
            start=int(start), end=int(end), key=key, nbytes=int(nbytes),
            count=int(count), crc=crc & 0xFFFFFFFF,
            codec=codec, raw_nbytes=int(raw_nbytes),
        )
        if self._journal and extends:
            self._append_journal(record)
            return record
        self._diffs = [
            r for r in self._diffs if (r.start, r.end) != (start, end)
        ] + [record]
        self._diffs.sort(key=lambda r: (r.start, r.end))
        self._commit_manifest()
        self._retire(old, key)
        return record

    def register_full_blob(self, step: int, nbytes: int, crc: int,
                           codec: str = "", raw_nbytes: int = 0
                           ) -> FullCheckpointRecord:
        """Commit a full checkpoint whose blob a worker process already wrote.

        The multi-process persistence engine's commit stage: the persist
        worker has written ``full/{step}.ckpt`` atomically (tmp + rename)
        in its own address space, so the parent only records it in the
        manifest.  The blob-before-manifest crash-ordering invariant is
        preserved across the process boundary — a crash between the
        worker's rename and this call leaves an unreferenced blob that
        ``gc`` sweeps, never a manifest entry pointing at missing bytes.
        """
        return self._commit_full(step, nbytes, crc, codec, raw_nbytes)

    def register_diff_blob(self, start: int, end: int, count: int, nbytes: int,
                           crc: int, codec: str = "", raw_nbytes: int = 0
                           ) -> DiffCheckpointRecord:
        """Commit a diff whose blob a worker process already wrote.

        Same validation (range sanity + overlap guard) as
        :meth:`save_diff_bytes`; an inconsistent overlap raises *before*
        the manifest commit, leaving the worker's blob unreferenced —
        debris for gc, never an ambiguous replay chain.
        """
        return self._commit_diff(start, end, count, nbytes, crc, codec,
                                 raw_nbytes)

    # Loading -----------------------------------------------------------------
    def latest_full(self) -> FullCheckpointRecord | None:
        return self._fulls[-1] if self._fulls else None

    def fulls(self) -> list[FullCheckpointRecord]:
        return list(self._fulls)

    def diffs(self) -> list[DiffCheckpointRecord]:
        return list(self._diffs)

    def diffs_after(self, step: int) -> list[DiffCheckpointRecord]:
        """Diff records strictly after optimizer step ``step``, in replay order.

        Only returns a *contiguous* chain starting at ``step + 1``; a gap
        (e.g. a diff lost to a failure) truncates the chain, because
        replaying past a gap would corrupt the state.
        """
        chain = []
        next_start = step + 1
        for record in self._diffs:
            if record.end <= step:
                continue
            if record.start == next_start:
                chain.append(record)
                next_start = record.end + 1
            elif record.start > next_start:
                break
        return chain

    def read_raw(self, record) -> bytes:
        """Fetch a record's raw bytes with no verification.

        Split out so parallel recovery can keep backend reads sequential
        (backends are not required to be thread-safe, and fault-injecting
        ones are deterministic only under a fixed read order) while the
        CPU-bound verify/decode work fans out to threads via
        :meth:`decode_full`/:meth:`decode_diff`.
        """
        return self.backend.read(record.key)

    @classmethod
    def _unpack(cls, record, data) -> dict:
        """Verify + unpack + codec-decode a record's bytes.  Each byte's
        CRC is checked once: the index CRC, when the record has one, was
        taken over exactly these bytes (at write time, or at an index
        rebuild after the per-part check), so the per-part CRCs are
        checked only without it.  Framing is checked either way."""
        if record.crc and zlib.crc32(data) != record.crc:
            raise CorruptCheckpointError(
                f"checkpoint {record.key} failed manifest CRC check"
            )
        return cls._codec_decode(record,
                                 unpack_tree(data, verify=not record.crc))

    @staticmethod
    def _codec_decode(record, tree: dict) -> dict:
        """Auto-select the decoder for a record's tree.

        The in-blob ``__codec__`` tag wins (self-describing blobs survive
        manifest rebuilds); the manifest record's ``codec`` field is the
        fallback.  Uncoded/legacy trees pass through untouched.  An
        unregistered id raises the typed :class:`UnknownCodecError`; any
        other decode failure is corruption (the CRC passed, the content
        did not) and raises :class:`CorruptCheckpointError` so recovery's
        quarantine-and-fall-back path applies.
        """
        codec_id = tree.get(CODEC_TAG) or getattr(record, "codec", "") or ""
        if not codec_id:
            return tree
        codec = get_codec(codec_id, context=f"record {record.key}")
        try:
            return codec.decode_tree(tree)
        except (ValueError, KeyError, TypeError, OverflowError,
                zlib.error) as err:
            raise CorruptCheckpointError(
                f"checkpoint {record.key} failed {codec_id} codec decode: "
                f"{err}") from err

    @classmethod
    def decode_full(cls, record: FullCheckpointRecord, data
                    ) -> tuple[dict, dict, int]:
        """Verify + deserialize raw full-checkpoint bytes (thread-safe)."""
        tree = cls._unpack(record, data)
        return tree["model"], tree["optimizer"], int(tree["step"])

    @classmethod
    def decode_diff(cls, record: DiffCheckpointRecord, data):
        """Verify + deserialize raw diff bytes (thread-safe)."""
        return tree_to_payload(cls._unpack(record, data)["payload"])

    def load_full(self, record: FullCheckpointRecord) -> tuple[dict, dict, int]:
        return self.decode_full(record, self.read_raw(record))

    def load_diff(self, record: DiffCheckpointRecord):
        return self.decode_diff(record, self.read_raw(record))

    # The reader protocol of repro.core.recovery, degenerate case: every
    # view is its own single part (the sharded store has one per shard).
    def parts(self, record) -> list[tuple]:
        return [(self, record)]

    @staticmethod
    def assemble_full(states: list[tuple[dict, dict]]) -> tuple[dict, dict]:
        return states[0]

    @staticmethod
    def assemble_payload(payloads: list):
        return payloads[0]

    @staticmethod
    def part_bounds() -> list:
        return [None]  # the one part spans the whole index space

    # The writer protocol, its mirror image: the stores a record lands
    # in.  This store is its own single part, so it cuts nothing (only
    # the sharded store splits a record, one part per shard).
    @property
    def part_stores(self) -> list["CheckpointStore"]:
        return [self]

    # Verification -------------------------------------------------------------
    def verify(self, deep: bool = True, repair: bool = False) -> dict:
        """Audit every record against storage.

        ``deep=True`` reads each blob, checks CRCs and decodes through the
        record's codec; ``deep=False`` only checks existence.
        ``repair=True`` quarantines corrupt blobs and drops missing
        records from the manifest.  Returns a report dict
        with ``checked``/``missing``/``corrupt``/``unknown_codec``
        entries.  A blob whose in-blob tag names an unregistered codec (the
        manifest, e.g. a rebuilt one, did not name it) is *flagged*, not
        treated as corrupt: the blob is intact, this build just cannot
        read it — so ``repair`` leaves it in place.
        """
        report = {"checked": 0, "missing": [], "corrupt": [],
                  "unknown_codec": []}
        for record in list(self._fulls) + list(self._diffs):
            report["checked"] += 1
            if not self.backend.exists(record.key):
                report["missing"].append(record.key)
                continue
            if not deep:
                continue
            try:
                self._unpack(record, self.read_raw(record))
            except FileNotFoundError:
                report["missing"].append(record.key)
            except UnknownCodecError:
                # In-blob tag names a codec the manifest did not (e.g. a
                # rebuilt manifest predating the codec column): flag it.
                report["unknown_codec"].append(record.key)
            except (CorruptCheckpointError, KeyError, TypeError):
                report["corrupt"].append(record.key)
        if repair and (report["missing"] or report["corrupt"]):
            with self._mutation_lock:
                corrupt = set(report["corrupt"])
                for record in list(self._fulls) + list(self._diffs):
                    if record.key in corrupt:
                        self.quarantine(record)
                if report["missing"]:
                    self._forget(set(report["missing"]))
        return report

    # Retention -----------------------------------------------------------------
    def gc(self, keep_fulls: int = 2) -> int:
        """Delete fulls beyond the newest ``keep_fulls`` and orphaned diffs.

        Returns the number of objects deleted.  Diffs at or before the
        oldest retained full's step are unreachable (recovery always
        starts from a retained full) and are removed.  Crash debris is
        also swept: orphaned ``.tmp`` files and ``full/``/``diff/`` keys
        and journals the index does not reference — both are left behind
        by writes a crash interrupted between data write and index commit.

        Ordering: the pruned manifest commits **before** any backend key
        is deleted.  A crash inside the delete loop leaves already-pruned
        (now unreferenced) blobs behind — swept by the next ``gc`` — but
        never a manifest entry referencing a deleted key.
        """
        if keep_fulls < 1:
            raise ValueError(f"keep_fulls must be >= 1, got {keep_fulls}")
        with self._mutation_lock:
            drop: list = []
            if len(self._fulls) > keep_fulls:
                drop.extend(self._fulls[:-keep_fulls])
                self._fulls = self._fulls[-keep_fulls:]
            if self._fulls:
                horizon = self._fulls[0].step
                keep = [r for r in self._diffs if r.end > horizon]
                drop.extend(r for r in self._diffs if r.end <= horizon)
                self._diffs = keep
            if drop or self._unsaved:
                self._commit_manifest()  # manifest-first, then delete
            deleted = 0
            for record in drop:
                self.backend.delete(record.key)
                deleted += 1
            deleted += self.backend.purge_debris()
            referenced = {r.key for r in self._fulls}
            referenced.update(r.key for r in self._diffs)
            referenced.update((MANIFEST_KEY, journal_key(self._gen)))
            for prefix in ("full/", "diff/", "manifest."):
                for key in self.backend.list_keys(prefix):
                    if key not in referenced:
                        self.backend.delete(key)
                        deleted += 1
        return deleted

    # Compaction ----------------------------------------------------------------
    def merge_diff_run(self, run: list[DiffCheckpointRecord], data, crc: int,
                       count: int | None = None, codec: str = "",
                       raw_nbytes: int = 0) -> DiffCheckpointRecord:
        """Commit one super-diff beside the contiguous run it folds: the
        first half of swapping a run for one record, :meth:`drop_diffs`
        the second.

        ``data``/``crc`` are the serialized consolidated record covering
        exactly ``[run[0].start, run[-1].end]``.  This bypasses
        :meth:`save_diff_bytes`'s overlap guard (the super-diff's range
        *deliberately* overlaps the singles) and orders its mutations for
        crashes:

        1. write the super-diff blob (unreferenced debris if we crash here);
        2. commit the manifest listing it beside the run.  Until the run is
           dropped, :meth:`diffs_after` still replays the run (the shorter
           record at a start wins), so every part of a sharded store can
           list its super-diff before any part drops its run.
        """
        if not run:
            raise ValueError("merge_diff_run requires a non-empty run")
        with self._mutation_lock:
            keys = {r.key for r in self._diffs}
            next_start = run[0].start
            for record in run:
                if record.key not in keys:
                    raise ValueError(
                        f"record {record.key} is not in the manifest")
                if record.start != next_start:
                    raise ValueError(
                        f"run is not contiguous at step {record.start} "
                        f"(expected start {next_start})")
                next_start = record.end + 1
            return self._install_diff(
                run[0].start, run[-1].end,
                count if count is not None else sum(r.count for r in run),
                total_bytes(data), crc, codec, raw_nbytes, data)

    def drop_diffs(self, records: list[DiffCheckpointRecord]) -> None:
        """Forget ``records`` in one manifest commit, then delete their
        blobs (a crash between leaves unreferenced blobs, swept by
        ``gc``)."""
        with self._mutation_lock:
            self._forget({r.key for r in records})
            for record in records:
                self.backend.delete(record.key)

    def compact(self, policy=None, *, model_factory=None,
                optimizer_factory=None):
        """Compact the diff chain under ``policy`` (see
        :mod:`repro.storage.compaction`).

        Convenience wrapper constructing a one-shot
        :class:`~repro.storage.compaction.ChainCompactor`.  Returns its
        :class:`~repro.storage.compaction.CompactionReport`.
        """
        from repro.storage.compaction import ChainCompactor, RetentionPolicy
        compactor = ChainCompactor(
            self, policy if policy is not None else RetentionPolicy(),
            model_factory=model_factory, optimizer_factory=optimizer_factory)
        return compactor.run_once()

    # Accounting ---------------------------------------------------------------
    def storage_bytes(self) -> dict[str, int]:
        """Current bytes held by full vs differential checkpoints."""
        return {
            "full": sum(r.nbytes for r in self._fulls),
            "diff": sum(r.nbytes for r in self._diffs),
        }
