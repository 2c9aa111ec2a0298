"""Sharded differential checkpointing with elastic restore.

LowDiff's native habitat (DeepSpeed/ZeRO) splinters model and optimizer
state across ranks; a checkpoint is not one blob but a set of per-rank
shards, and small-file metadata thrash dominates at scale.  This module
extends the one-blob-per-job :class:`~repro.storage.checkpoint_store.
CheckpointStore` to **per-shard full/diff chains under a single sharded
manifest**:

* :class:`ShardLayout` — a *stable global index space*: every parameter
  is flattened and laid out at a fixed offset (canonical name order, the
  same construction the sparse union-add kernel uses), and the total
  flat size is split into ``S`` balanced contiguous ranges.  The layout
  depends only on the model, never on the writing world size — which is
  what makes restore *elastic*.
* :class:`ShardedCheckpointStore` — a facade over ``S`` per-shard
  :class:`CheckpointStore` instances (each behind a
  :class:`~repro.storage.backends.PrefixBackend` namespace), exposing the
  familiar ``save_full``/``save_diff``/``gc``/``verify`` API.  Fulls are
  flat slices of model arrays + optimizer slots per shard range; diffs
  are per-shard restrictions of the sparse payload.
* **Crash consistency by manifest intersection** — the readable view is
  exactly the records present in *all* ``S`` per-shard manifests.  A
  crash between shard commits leaves a partial shard set that is simply
  invisible (swept by ``gc``); no root commit marker is needed, and each
  shard store keeps its own blob-before-manifest ordering.
* **The reader protocol of** :mod:`repro.core.recovery` — ``parts`` names
  the ``S`` per-shard blobs behind one view (``part_bounds`` their index
  ranges), ``assemble_full`` / ``assemble_payload`` reunite them, so
  ``serial_recover`` and ``parallel_recover`` restore a sharded series
  bit-equal to the unsharded series of the same run: reassembled
  payloads are bit-identical to the originals (disjoint sorted index
  ranges concatenate back losslessly) and each shard's merge tree has
  the same shape as the unsharded tree, so per-coordinate fold order —
  and therefore every fp32 rounding — is identical.
* :func:`elastic_restore` — recover a checkpoint written at world size N
  onto a trainer of world size M: nothing in the store depends on the
  world size, so restore is just recovery plus re-partitioning ownership
  over the stable index space (the ZeRO trainer re-derives ownership
  from its own active ranks).
* **The writer protocol**, its mirror image — ``part_stores`` /
  ``split_full`` / ``split_payload`` cut one record into its ``S``
  per-shard parts in exactly one place, so the synchronous save path,
  :class:`ShardedPersistGroup` (one persist engine per part) and the
  compactor (:class:`~repro.storage.compaction.ChainCompactor` merges
  every part of a run) never slice on their own.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.compression.sparse import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    SparseGradient,
    global_offsets,
)
from repro.obs import OBS, span as obs_span
from repro.storage.async_engine import AsyncCheckpointEngine
from repro.storage.backends import PrefixBackend, StorageBackend
from repro.storage.checkpoint_store import (
    CheckpointStore,
    DiffCheckpointRecord,
    FullCheckpointRecord,
)
from repro.storage.mp_engine import MultiprocessCheckpointEngine
from repro.storage.persist_engine import deadline_clock

#: Root manifest: static layout only (shard count + tensor shapes), written
#: once when the layout is first established.  Deliberately *not* a commit
#: marker — record visibility is governed by per-shard manifest
#: intersection, so this file is never on the crash-ordering critical path.
LAYOUT_KEY = "sharded.json"


def shard_prefix(shard: int) -> str:
    return f"shard-{shard:04d}/"


class ShardLayout:
    """Stable global index space over the model's parameters, partitioned
    into ``shards`` balanced contiguous ranges.

    Canonical order is the parameter-name order of the dict the layout was
    built from (module traversal order — identical on every rank and every
    world size).  Tensor ``name`` occupies global indices
    ``[offset(name), offset(name) + size(name))``; shard ``s`` owns
    ``[floor(s·total/S), floor((s+1)·total/S))``.
    """

    def __init__(self, shapes: dict[str, tuple], shards: int):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)
        self.shapes = {name: tuple(int(d) for d in shape)
                       for name, shape in shapes.items()}
        self.names = list(self.shapes)
        self.offsets, self.total = global_offsets(self.names, self.shapes)
        self.bounds = [
            (s * self.total // self.shards,
             (s + 1) * self.total // self.shards)
            for s in range(self.shards)
        ]

    def sizes(self) -> dict[str, int]:
        return {
            name: int(np.prod(shape)) if shape else 1
            for name, shape in self.shapes.items()
        }

    def _intersections(self, shard: int):
        """Yield ``(name, local_lo, local_hi)`` for tensors overlapping
        ``shard``'s global range (local = flat index within the tensor)."""
        lo, hi = self.bounds[shard]
        sizes = self.sizes()
        for name in self.names:
            off = self.offsets[name]
            size = sizes[name]
            a, b = max(lo, off), min(hi, off + size)
            if a < b:
                yield name, a - off, b - off

    # Full-state slicing -----------------------------------------------------
    def slice_full(self, model_state: dict, optimizer_state: dict,
                   shard: int) -> tuple[dict, dict]:
        """The shard's portion of a full checkpoint.

        Model arrays and same-shaped optimizer slots are flat slices over
        the shard's range; optimizer scalars (``type``/``lr``/
        ``step_count``) replicate into every shard record (they are the
        cross-shard consistency witness), and slot arrays whose shape does
        not match their parameter go verbatim under ``slots_raw`` (first
        shard's copy wins on reassembly).
        """
        shard_model: dict[str, np.ndarray] = {}
        sliced_slots: dict[str, dict] = {}
        raw_slots: dict[str, dict] = {}
        slots = optimizer_state.get("slots", {})
        for name, local_lo, local_hi in self._intersections(shard):
            array = np.asarray(model_state[name])
            shard_model[name] = array.reshape(-1)[local_lo:local_hi]
            param_shape = self.shapes[name]
            for slot_name, slot in slots.get(name, {}).items():
                slot = np.asarray(slot)
                if tuple(slot.shape) == param_shape:
                    sliced_slots.setdefault(name, {})[slot_name] = \
                        slot.reshape(-1)[local_lo:local_hi]
                else:
                    raw_slots.setdefault(name, {})[slot_name] = slot
        shard_opt = {
            "type": optimizer_state.get("type", ""),
            "lr": optimizer_state.get("lr", 0.0),
            "step_count": optimizer_state.get("step_count", 0),
            "slots": sliced_slots,
            "slots_raw": raw_slots,
        }
        return shard_model, shard_opt

    def assemble_full(self, shard_states: list[tuple[dict, dict]]
                      ) -> tuple[dict, dict]:
        """Inverse of :meth:`slice_full` over all ``S`` shard records."""
        sizes = self.sizes()
        flat_model: dict[str, np.ndarray] = {}
        flat_slots: dict[str, dict[str, np.ndarray]] = {}
        raw_slots: dict[str, dict[str, np.ndarray]] = {}
        base = None
        for shard, (shard_model, shard_opt) in enumerate(shard_states):
            if base is None:
                base = shard_opt
            for name, local_lo, local_hi in self._intersections(shard):
                piece = np.asarray(shard_model[name])
                target = flat_model.get(name)
                if target is None:
                    target = np.empty(sizes[name], dtype=piece.dtype)
                    flat_model[name] = target
                target[local_lo:local_hi] = piece
                for slot_name, slot in shard_opt.get("slots", {}).get(
                        name, {}).items():
                    slot_target = flat_slots.setdefault(name, {}).get(slot_name)
                    if slot_target is None:
                        slot_target = np.empty(sizes[name],
                                               dtype=np.asarray(slot).dtype)
                        flat_slots[name][slot_name] = slot_target
                    slot_target[local_lo:local_hi] = np.asarray(slot)
            for name, slots in shard_opt.get("slots_raw", {}).items():
                for slot_name, slot in slots.items():
                    raw_slots.setdefault(name, {}).setdefault(
                        slot_name, np.asarray(slot))
        model_state = {
            name: flat_model[name].reshape(self.shapes[name])
            for name in self.names if name in flat_model
        }
        assembled_slots: dict[str, dict] = {}
        for name in self.names:
            merged: dict[str, np.ndarray] = {}
            for slot_name, flat in flat_slots.get(name, {}).items():
                merged[slot_name] = flat.reshape(self.shapes[name])
            merged.update(raw_slots.get(name, {}))
            assembled_slots[name] = merged
        optimizer_state = {
            "type": base.get("type", ""),
            "lr": base.get("lr", 0.0),
            "step_count": base.get("step_count", 0),
            "slots": assembled_slots,
        }
        return model_state, optimizer_state

    # Diff-payload slicing ---------------------------------------------------
    def slice_payload(self, payload: SparseGradient, shard: int
                      ) -> SparseGradient:
        """Restrict a sparse payload to the shard's global index range.

        Every tensor name stays present (with empty entries outside the
        range) so each shard record carries the full parameter space and
        reassembly is pure concatenation.
        """
        lo, hi = self.bounds[shard]
        entries: dict[str, tuple] = {}
        empty_idx = np.array([], dtype=INDEX_DTYPE)
        empty_val = np.array([], dtype=VALUE_DTYPE)
        for name in self.names:
            indices, values = payload.entries[name]
            off = self.offsets[name]
            local_lo, local_hi = lo - off, hi - off
            if indices.size == 0 or local_hi <= 0:
                entries[name] = (empty_idx, empty_val)
                continue
            selector = (indices >= local_lo) & (indices < local_hi)
            entries[name] = (indices[selector], values[selector])
        return SparseGradient(entries, self.shapes)

    def assemble_payload(self, shard_payloads: list[SparseGradient]
                         ) -> SparseGradient:
        """Union of disjoint per-shard payloads — exact concatenation.

        Shard ranges are contiguous and ascending, and payload indices per
        tensor are sorted (compressor/merge output), so concatenating the
        per-shard pieces in shard order reproduces the original arrays
        bit-for-bit.
        """
        entries: dict[str, tuple] = {}
        for name in self.names:
            parts = [p.entries[name] for p in shard_payloads]
            entries[name] = (
                np.concatenate([idx for idx, _ in parts]) if parts
                else np.array([], dtype=INDEX_DTYPE),
                np.concatenate([val for _, val in parts]) if parts
                else np.array([], dtype=VALUE_DTYPE),
            )
        return SparseGradient(entries, self.shapes)

    # Persistence ------------------------------------------------------------
    def to_tree(self) -> dict:
        return {
            "version": 1,
            "shards": self.shards,
            "names": self.names,
            "shapes": {name: list(shape)
                       for name, shape in self.shapes.items()},
        }

    @classmethod
    def from_tree(cls, tree: dict) -> "ShardLayout":
        shapes = {name: tuple(tree["shapes"][name]) for name in tree["names"]}
        return cls(shapes, int(tree["shards"]))


# Readable-view records (synthesized from the per-shard manifests) ----------
@dataclass(frozen=True)
class ShardedFullView:
    """A full checkpoint committed in *every* shard manifest."""

    step: int
    records: tuple[FullCheckpointRecord, ...]

    @property
    def nbytes(self) -> int:
        return sum(r.nbytes for r in self.records)


@dataclass(frozen=True)
class ShardedDiffView:
    """A diff record committed with an identical range in every shard."""

    start: int
    end: int
    count: int
    records: tuple[DiffCheckpointRecord, ...]

    @property
    def nbytes(self) -> int:
        return sum(r.nbytes for r in self.records)


class ShardedCheckpointStore:
    """``S`` per-shard checkpoint stores behind one facade.

    The readable view is the **intersection** of the per-shard manifests:
    a full checkpoint exists iff every shard committed it, and the diff
    chain is the longest prefix on which every shard agrees about each
    record's ``(start, end)`` range.  A crash that commits only a subset
    of shards therefore never yields a readable inconsistent state — the
    partial records are invisible debris until ``gc`` sweeps them or a
    retried write completes the set.

    Inline saves and ``gc`` visit the shards in shard order on the
    calling thread; overlapping shard IO is the persist engine's job
    (:class:`ShardedPersistGroup`, one engine per shard).
    """

    def __init__(self, backend: StorageBackend, shards: int, codec=None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.backend = backend
        self.shards = int(shards)
        self.shard_stores = [
            CheckpointStore(PrefixBackend(backend, shard_prefix(s)),
                            codec=codec)
            for s in range(self.shards)
        ]
        self._layout: ShardLayout | None = None
        self._layout_lock = threading.Lock()
        if backend.exists(LAYOUT_KEY):
            self._layout = self._load_layout()

    # Layout -----------------------------------------------------------------
    def _load_layout(self) -> ShardLayout:
        tree = json.loads(self.backend.read(LAYOUT_KEY).decode())
        crc = tree.pop("crc", None)
        if crc is not None:
            body = json.dumps(tree, separators=(",", ":"),
                              sort_keys=True).encode()
            if zlib.crc32(body) != crc:
                raise ValueError("sharded layout manifest failed CRC check")
        layout = ShardLayout.from_tree(tree)
        if layout.shards != self.shards:
            raise ValueError(
                f"store was written with {layout.shards} shards, "
                f"opened with {self.shards}")
        return layout

    def _persist_layout(self, layout: ShardLayout) -> None:
        tree = layout.to_tree()
        body = json.dumps(tree, separators=(",", ":"), sort_keys=True).encode()
        tree["crc"] = zlib.crc32(body)
        self.backend.write(LAYOUT_KEY, json.dumps(tree).encode())

    @property
    def layout(self) -> ShardLayout | None:
        return self._layout

    def ensure_layout(self, shapes: dict[str, tuple]) -> ShardLayout:
        """Establish (and persist) the layout on first write; validate
        every later write against it."""
        with self._layout_lock:
            if self._layout is None:
                layout = ShardLayout(shapes, self.shards)
                self._persist_layout(layout)
                self._layout = layout
            else:
                expected = self._layout.shapes
                actual = {name: tuple(int(d) for d in shape)
                          for name, shape in shapes.items()}
                if actual != expected:
                    raise ValueError(
                        "checkpoint parameter space does not match the "
                        "sharded layout this store was created with")
            return self._layout

    # Codec ------------------------------------------------------------------
    def set_codec(self, codec) -> None:
        for sub in self.shard_stores:
            sub.set_codec(codec)

    @property
    def codec(self):
        return self.shard_stores[0].codec

    # Saving (the writer protocol) -------------------------------------------
    @property
    def part_stores(self) -> list[CheckpointStore]:
        return self.shard_stores

    def split_full(self, model_state: dict, optimizer_state: dict,
                   extra: dict | None = None) -> list[tuple]:
        """Per-shard ``(model, optimizer, extra)`` of one full checkpoint
        (views, not copies; ``extra`` rides with shard 0 only)."""
        layout = self.ensure_layout(
            {name: np.asarray(v).shape for name, v in model_state.items()})
        return [
            (*layout.slice_full(model_state, optimizer_state, shard),
             extra if shard == 0 else None)
            for shard in range(self.shards)
        ]

    def split_payload(self, payload) -> list[SparseGradient]:
        """Per-shard restrictions of one sparse differential payload."""
        if not isinstance(payload, SparseGradient):
            raise TypeError(
                "sharded stores persist sparse differential payloads only "
                f"(got {type(payload).__name__}); dense/state-delta series "
                "need the unsharded store")
        layout = self.ensure_layout(payload.shapes)
        return [layout.slice_payload(payload, shard)
                for shard in range(self.shards)]

    def save_full(self, step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> ShardedFullView:
        parts = self.split_full(model_state, optimizer_state, extra)
        records = self._save_parts(
            "full", {"step": step},
            lambda shard: self.shard_stores[shard].save_full(
                step, *parts[shard]))
        return ShardedFullView(step=int(step), records=records)

    def save_diff(self, start: int, end: int, payload,
                  count: int | None = None) -> ShardedDiffView:
        parts = self.split_payload(payload)
        resolved_count = int(count if count is not None else end - start + 1)
        records = self._save_parts(
            "diff", {"start": start, "end": end},
            lambda shard: self.shard_stores[shard].save_diff(
                start, end, parts[shard], count=resolved_count))
        return ShardedDiffView(start=int(start), end=int(end),
                               count=resolved_count, records=records)

    def _save_parts(self, kind: str, span_args: dict, save_part) -> tuple:
        """Run ``save_part(shard)`` over every shard; count the persist."""
        persist_t0 = time.perf_counter()
        with obs_span(f"persist_{kind}_sharded", "ckpt",
                      {**span_args, "shards": self.shards}):
            records = tuple(save_part(s) for s in range(self.shards))
        if OBS.enabled:
            registry = OBS.registry
            registry.set("ckpt.shard.count", self.shards)
            registry.counter(f"ckpt.shard.{kind}_records").inc(self.shards)
            registry.counter("ckpt.shard.bytes").inc(
                sum(record.nbytes for record in records))
            registry.observe(f"ckpt.shard.persist_{kind}.s",
                             time.perf_counter() - persist_t0)
        return records

    # Readable view (manifest intersection) ----------------------------------
    def common_full_steps(self) -> list[int]:
        """Full steps committed in *every* shard manifest."""
        common: set[int] | None = None
        for sub in self.shard_stores:
            steps = {r.step for r in sub.fulls()}
            common = steps if common is None else common & steps
        return sorted(common or ())

    def fulls(self) -> list[ShardedFullView]:
        by_step = [
            {r.step: r for r in sub.fulls()} for sub in self.shard_stores
        ]
        return [
            ShardedFullView(step=step,
                            records=tuple(m[step] for m in by_step))
            for step in self.common_full_steps()
        ]

    def latest_full(self) -> ShardedFullView | None:
        views = self.fulls()
        return views[-1] if views else None

    def diffs_after(self, step: int) -> list[ShardedDiffView]:
        """The committed chain after ``step``: the longest prefix on which
        every shard holds a record with an identical ``(start, end)``
        range.  A shard lagging (crash between shard commits) or diverging
        (independent compaction progress) truncates the readable chain —
        never yields a mixed-range replay."""
        chains = [sub.diffs_after(step) for sub in self.shard_stores]
        views: list[ShardedDiffView] = []
        for position in range(min(len(c) for c in chains)):
            records = tuple(chain[position] for chain in chains)
            ranges = {(r.start, r.end) for r in records}
            if len(ranges) != 1:
                break
            views.append(ShardedDiffView(
                start=records[0].start, end=records[0].end,
                count=records[0].count, records=records))
        return views

    # Loading (the reader protocol of repro.core.recovery) --------------------
    def parts(self, view) -> list[tuple]:
        """The ``(shard_store, shard_record)`` pairs behind one view."""
        return list(zip(self.shard_stores, view.records))

    def _require_layout(self) -> ShardLayout:
        if self._layout is None:
            raise FileNotFoundError(
                "sharded store has no layout manifest; nothing was written")
        return self._layout

    def assemble_full(self, shard_states: list[tuple[dict, dict]]
                      ) -> tuple[dict, dict]:
        return self._require_layout().assemble_full(shard_states)

    def assemble_payload(self, shard_payloads: list) -> SparseGradient:
        return self._require_layout().assemble_payload(shard_payloads)

    def part_bounds(self) -> list[tuple[int, int]]:
        """Global index range of each part, in :meth:`parts` order."""
        return self._require_layout().bounds

    def load_full(self, view: ShardedFullView) -> tuple[dict, dict, int]:
        """Reassemble a committed sharded full checkpoint."""
        model_state, optimizer_state = self.assemble_full(
            [sub.load_full(record)[:2] for sub, record in self.parts(view)])
        return model_state, optimizer_state, view.step

    def load_diff(self, view: ShardedDiffView) -> SparseGradient:
        """Reassemble a committed sharded diff payload (bit-exact)."""
        return self.assemble_payload(
            [sub.load_diff(record) for sub, record in self.parts(view)])

    # Maintenance ------------------------------------------------------------
    def gc(self, keep_fulls: int = 2) -> int:
        """Per-shard retention gc, budgeted against *committed* fulls.

        A partial full at the tip (crash mid-commit) must not consume a
        retention slot — with ``keep_fulls=1`` it would evict the last
        committed full from its shard and empty the readable view — so
        each shard's budget is widened by its count of
        newer-than-committed tip fulls.  The partials themselves survive
        the sweep: a retried ``save_full`` at the same step completes the
        missing shards and the step becomes committed."""
        common = self.common_full_steps()
        newest_common = common[-1] if common else None

        def sweep(shard: int) -> int:
            sub = self.shard_stores[shard]
            extra = 0
            if newest_common is not None:
                extra = sum(1 for r in sub.fulls() if r.step > newest_common)
            return sub.gc(keep_fulls=keep_fulls + extra)

        return sum(sweep(s) for s in range(self.shards))

    def verify(self, deep: bool = True, repair: bool = False) -> dict:
        report = {"checked": 0, "missing": [], "corrupt": [],
                  "unknown_codec": [], "shards": []}
        for shard, sub in enumerate(self.shard_stores):
            sub_report = sub.verify(deep=deep, repair=repair)
            report["checked"] += sub_report["checked"]
            for field in ("missing", "corrupt", "unknown_codec"):
                report[field].extend(
                    shard_prefix(shard) + key for key in sub_report[field])
            report["shards"].append(sub_report)
        return report

    def compact(self, policy=None, *, model_factory=None,
                optimizer_factory=None):
        """Compaction + retention gc over every shard chain: one
        :class:`~repro.storage.compaction.ChainCompactor` pass over the
        common view, merging every part of each run."""
        from repro.storage.compaction import ChainCompactor, RetentionPolicy
        compactor = ChainCompactor(
            self, policy if policy is not None else RetentionPolicy(),
            model_factory=model_factory, optimizer_factory=optimizer_factory)
        return compactor.run_once()

    def storage_bytes(self) -> dict[str, int]:
        totals = {"full": 0, "diff": 0}
        for sub in self.shard_stores:
            for kind, nbytes in sub.storage_bytes().items():
                totals[kind] += nbytes
        return totals

    @property
    def quarantined(self) -> list[str]:
        return [
            shard_prefix(shard) + key
            for shard, sub in enumerate(self.shard_stores)
            for key in sub.quarantined
        ]


# Recovery ------------------------------------------------------------------
def elastic_restore(store: ShardedCheckpointStore, trainer,
                    parallel: bool = False):
    """Restore a sharded checkpoint onto a trainer of *any* world size.

    The stable global index space makes the persisted series world-size-
    independent: the shard partition re-derives from the layout alone, so
    a checkpoint written at world size N recovers bit-exactly onto world
    size M.  The trainer's ``load_state`` then fans the assembled state
    out to every replica (the ZeRO trainer additionally re-partitions
    parameter ownership over its own active ranks).
    """
    from repro.core.recovery import parallel_recover, serial_recover  # circular-safe
    model, optimizer = trainer.model, trainer.optimizer
    recover = parallel_recover if parallel else serial_recover
    result = recover(store, model, optimizer)
    trainer.load_state(model.state_dict(), optimizer.state_dict(),
                       iteration=result.step)
    return result


# Persist engines: executor selection and shard fan-out -----------------------
#: ``CheckpointConfig.persist_mode`` → executor over one part store, built
#: from the config's ``(writer_threads, queue_depth, ring_mb)``.
EXECUTORS = {
    "thread": lambda store, writers, depth, ring_mb: AsyncCheckpointEngine(
        store, num_writers=writers, queue_depth=depth),
    "process": lambda store, writers, depth, ring_mb:
        MultiprocessCheckpointEngine(
            store, num_workers=writers, queue_depth=depth,
            ring_bytes=int(ring_mb * (1 << 20))),
}


def open_persist_engine(store, persist_mode: str = "thread",
                        writer_threads: int = 2, queue_depth: int = 8,
                        ring_mb: float = 64.0):
    """The persist engine for ``store``: the one place an executor is
    chosen.  A store that is its own single part (the identity writer
    protocol) gets the bare executor; anything else the group."""
    if store.part_stores == [store]:
        return EXECUTORS[persist_mode](store, writer_threads, queue_depth,
                                       ring_mb)
    return ShardedPersistGroup(store, persist_mode, writer_threads,
                               queue_depth, ring_mb)


class ShardedPersistGroup:
    """One persist engine per part of the store's writer protocol.

    A composition, not a driver: ``save_full``/``save_diff`` split on the
    submitting thread and hand each part to its engine.  A full's parts
    are views of the arrays the caller handed over, and each engine owns
    its views exactly as it would own whole arrays (the process executor
    packs them into its ring at submit; a writer thread serializes them
    in place), so the caller's copy is the only one.  Commit order
    *within* a shard is that engine's turnstile, and cross-shard skew is
    harmless because readers only trust the manifest intersection.
    Lifecycle calls visit
    **every** engine under one shared deadline and re-raise the first
    error, so one shard's fail-stop or stuck backend never leaves a
    sibling's threads, worker processes or shm ring behind.
    """

    def __init__(self, store: ShardedCheckpointStore,
                 persist_mode: str = "thread", writer_threads: int = 2,
                 queue_depth: int = 8, ring_mb: float = 64.0):
        self.store = store
        self.engines = [
            EXECUTORS[persist_mode](sub, writer_threads, queue_depth, ring_mb)
            for sub in store.part_stores
        ]

    def save_full(self, step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> list:
        parts = self.store.split_full(model_state, optimizer_state, extra)
        return [engine.save_full(step, *part)
                for engine, part in zip(self.engines, parts)]

    def save_diff(self, start: int, end: int, payload,
                  count: int | None = None) -> list:
        parts = self.store.split_payload(payload)
        return [engine.save_diff(start, end, part, count=count)
                for engine, part in zip(self.engines, parts)]

    def _each(self, call) -> None:
        first: BaseException | None = None
        for engine in self.engines:
            try:
                call(engine)
            except BaseException as error:
                first = first or error
        if first is not None:
            raise first

    def drain(self, timeout: float | None = None) -> None:
        remaining = deadline_clock(timeout)
        self._each(lambda engine: engine.drain(timeout=remaining()))

    def finalize(self, timeout: float | None = None) -> None:
        remaining = deadline_clock(timeout)
        # Close all first: every shard's workers wind down concurrently.
        self._each(lambda engine: engine.close())
        self._each(lambda engine: engine.finalize(timeout=remaining()))

    def abort(self) -> None:
        self._each(lambda engine: engine.abort())

    def raise_if_failed(self) -> None:
        for engine in self.engines:
            engine.raise_if_failed()

    def stats(self) -> dict:
        return {"shards": [engine.stats() for engine in self.engines]}
