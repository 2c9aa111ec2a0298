"""Diff-chain compaction with crash-safe retention (ARCHITECTURE.md §10).

LowDiff's optimal-configuration analysis (PAPER.md §Optimal Configuration)
bounds recovery cost by bounding how many differentials accumulate between
full checkpoints.  The live write path honours ``full_every``, but chains
still grow without bound whenever fulls are delayed (slow tier, failed
snapshot, operator pause) — so the store needs a *retention* side that
actively restores the bound.  This module provides it, log-structured-
compaction style:

* :class:`RetentionPolicy` — the declarative bound: keep-N fulls, a max
  chain length in records, and/or a max recovery-cost estimate derived
  from a simple ``load_full + n·replay_diff`` cost model.
* :class:`ChainCompactor` — enforces the policy in one of two passes,
  chosen by what the caller hands it:

  **merge** — adjacent runs of aged diff records are folded into one
  consolidated *super-diff* record covering their union range
  (:meth:`SparseGradient.merge_ordered` when every payload is sparse —
  bit-identical to the left fold ``reduce(add)`` recovery itself would
  perform — else a plain left fold of ``add``).  Replaying the super-diff
  is exactly the batched-record semantics recovery already supports
  (``count`` carries the represented gradient total): exact for linear
  optimizers and state deltas, gradient-accumulation semantics for Adam —
  the same approximation the batched writer makes on the live path.

  **rebase** (when both state factories are given) — the chain is
  replayed onto the newest full with the *real* recovery arithmetic
  (:func:`repro.core.recovery.serial_recover`) and the result persisted
  as a new full checkpoint at the chain's head, after which the replayed
  prefix is redundant and retention prunes it.  Because the replay is
  literally the recovery path, the new full is **bit-exact** for any
  optimizer — this is the pass the bounded-recovery acceptance drill
  exercises.

Crash ordering: every mutation goes through the store's manifest-first
primitives (``merge_diff_run``, ``drop_diffs``, ``save_full``, ``gc``) —
blob writes before the manifest commit that references them, manifest
commits before the deletes they orphan.  A crash at any point inside a
compaction leaves either the previous consistent view plus unreferenced
debris (swept by the next ``gc``) or the new view; never a manifest entry
naming a missing key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from repro.compression.sparse import SparseGradient
from repro.obs import OBS, span as obs_span
from repro.storage.checkpoint_store import (
    CheckpointStore,
    encode_record_tree,
)
from repro.storage.payload_codec import payload_to_tree
from repro.storage.serializer import (  # noqa: F401 (the bench wraps both)
    pack_tree_into,
    pack_tree_parts,
    pack_tree_with_crc,
)


@dataclass(frozen=True)
class RetentionPolicy:
    """Declarative bound on checkpoint retention and recovery cost.

    Attributes
    ----------
    keep_fulls:
        Newest full checkpoints to retain through ``gc`` (the Gemini-style
        tiered-retention knob; recovery can fall back across all of them).
    max_chain_len:
        Maximum diff *records* after the newest full before compaction
        triggers; ``None`` disables the length trigger.
    max_recovery_cost_s:
        Maximum estimated recovery time before compaction triggers, under
        the ``load_full_s + n·replay_diff_s`` cost model; ``None``
        disables the cost trigger.
    load_full_s / replay_diff_s:
        The cost model's coefficients (measured or from the sim workload).
    codec_decode_s:
        Extra per-record decode cost when the store persists encoded
        payloads (0 for uncoded stores); added to ``replay_diff_s`` in the
        cost model so a codec-enabled store compacts earlier when decode
        time eats into the recovery budget.
    compact_run:
        How many adjacent records one merge-mode pass folds into a single
        super-diff (the merge fan-in).
    """

    keep_fulls: int = 2
    max_chain_len: int | None = None
    max_recovery_cost_s: float | None = None
    load_full_s: float = 0.0
    replay_diff_s: float = 0.0
    codec_decode_s: float = 0.0
    compact_run: int = 8

    def __post_init__(self):
        if self.keep_fulls < 1:
            raise ValueError(f"keep_fulls must be >= 1, got {self.keep_fulls}")
        if self.max_chain_len is not None and self.max_chain_len < 1:
            raise ValueError(
                f"max_chain_len must be >= 1, got {self.max_chain_len}")
        if self.compact_run < 2:
            raise ValueError(
                f"compact_run must be >= 2, got {self.compact_run}")

    # Cost model ------------------------------------------------------------
    def recovery_cost_s(self, chain_records: int) -> float:
        """Estimated worst-case recovery time for a ``chain_records`` chain."""
        per_record = self.replay_diff_s + self.codec_decode_s
        return self.load_full_s + chain_records * per_record

    def chain_budget(self) -> int | None:
        """Max diff records tolerated after the newest full (``None`` = ∞)."""
        budgets = []
        if self.max_chain_len is not None:
            budgets.append(self.max_chain_len)
        per_record = self.replay_diff_s + self.codec_decode_s
        if self.max_recovery_cost_s is not None and per_record > 0:
            budgets.append(max(0, math.floor(
                (self.max_recovery_cost_s - self.load_full_s)
                / per_record)))
        return min(budgets) if budgets else None

    def chain_records(self, store: CheckpointStore) -> int:
        """Current intact-chain length (records) after the newest full."""
        latest = store.latest_full()
        if latest is None:
            return 0
        return len(store.diffs_after(latest.step))

    def apply_gc(self, store: CheckpointStore) -> int:
        """Prune fulls/diffs beyond the policy (manifest-first ``gc``)."""
        return store.gc(keep_fulls=self.keep_fulls)


@dataclass
class CompactionReport:
    """What one :meth:`ChainCompactor.run_once` pass did."""

    mode: str                      # "merge", "rebase", or "noop"
    runs_merged: int = 0           # super-diffs written (merge mode)
    records_before: int = 0        # chain records before the pass
    records_after: int = 0         # chain records after the pass
    reclaimed_bytes: int = 0       # blob bytes freed (merged + gc'd)
    gc_deleted: int = 0            # objects deleted by the retention gc
    new_full_step: int | None = None  # step of the rebased full, if any


class ChainCompactor:
    """Compactor enforcing a :class:`RetentionPolicy`, one pass at a time
    (``store.compact(...)`` delegates here)::

        report = ChainCompactor(store, policy).run_once()

    The pass rebases when both ``model_factory`` and ``optimizer_factory``
    are given — the drill-harness convention: ``model_factory()`` builds a
    blank model, ``optimizer_factory(model)`` binds a blank optimizer to
    it (their state is overwritten by the loaded full) — and merges
    otherwise.  A merged super-diff reaches the backend as
    :func:`~repro.storage.serializer.pack_tree_parts`'s parts, like every
    other record.  The caller settles in-flight writes first (an engine's
    ``drain()``), so compaction never races a write of the same chain.

    ``store`` may be sharded.  The pass then reads the **common** chain
    and merges *every* part of each run: after a drain every shard holds
    the identical record sequence, so each run merges identically on each
    and the chains stay aligned.
    """

    def __init__(self, store: CheckpointStore, policy: RetentionPolicy,
                 *, model_factory=None, optimizer_factory=None):
        self.store = store
        self.policy = policy
        self.model_factory = model_factory
        self.optimizer_factory = optimizer_factory

    # Public API ------------------------------------------------------------
    def run_once(self) -> CompactionReport:
        """One full compaction pass + retention gc, unconditionally."""
        mode = "merge" if self.model_factory is None \
            or self.optimizer_factory is None else "rebase"
        before = self.policy.chain_records(self.store)
        bytes_before = sum(self.store.storage_bytes().values())
        with obs_span("compact.run", "compaction",
                      {"mode": mode, "chain_records": before}):
            if self.store.latest_full() is None or before == 0:
                report = CompactionReport(mode="noop", records_before=before,
                                          records_after=before)
            elif mode == "rebase":
                report = self._rebase()
            else:
                report = self._merge()
            report.gc_deleted = self.policy.apply_gc(self.store)
            report.records_after = self.policy.chain_records(self.store)
        report.reclaimed_bytes = max(
            0, bytes_before - sum(self.store.storage_bytes().values()))
        if OBS.enabled:
            OBS.registry.counter("compact.passes").inc()
            OBS.registry.counter("compact.runs_merged").inc(report.runs_merged)
            OBS.registry.counter("compact.reclaimed_bytes").inc(
                report.reclaimed_bytes)
            OBS.registry.set("compact.chain_records", report.records_after)
        return report

    # Merge mode ------------------------------------------------------------
    @staticmethod
    def merge_payloads_ordered(payloads: list):
        """Fold ``payloads`` left-to-right, exactly as serial replay would.

        All-sparse runs take :meth:`SparseGradient.merge_ordered` — the
        single-pass k-way kernel that is bit-identical to the left fold —
        everything else (state deltas, dense, mixed-compatible) folds
        ``add`` pairwise in order.
        """
        if not payloads:
            raise ValueError("nothing to merge")
        if len(payloads) > 1 and all(isinstance(p, SparseGradient)
                                     for p in payloads):
            return SparseGradient.merge_ordered(payloads)
        return reduce(lambda a, b: a.add(b), payloads)

    def _merge(self) -> CompactionReport:
        """Fold aged runs of ``compact_run`` adjacent records into super-diffs.

        Chunks the intact chain oldest-first into runs of ``compact_run``
        records; every run of at least two merges into one.  Repeated
        passes keep folding (super-diffs merge with their neighbours too)
        until the budget is met or a pass stops making progress (e.g.
        ``add`` incompatibilities or a single-record chain).
        """
        policy, store = self.policy, self.store
        budget = policy.chain_budget()
        report = CompactionReport(mode="merge",
                                  records_before=policy.chain_records(store))
        while True:
            chain = store.diffs_after(store.latest_full().step)
            if budget is not None and len(chain) <= budget:
                break
            merged_any = False
            for offset in range(0, len(chain) - 1, policy.compact_run):
                run = chain[offset:offset + policy.compact_run]
                if len(run) < 2:
                    continue
                if self._merge_run(run):
                    report.runs_merged += 1
                    merged_any = True
            if not merged_any:
                break
            if budget is None:
                break  # unbounded policy: one consolidation pass is enough
        return report

    def _merge_run(self, run: list) -> bool:
        """Merge one contiguous run into a super-diff record, in every part
        store behind it (the reader protocol's ``parts``); False = skipped.

        Every part's merge is computed before any part is rewritten: a run
        one shard cannot fold is left alone in all of them, so per-shard
        chains never come apart."""
        with obs_span("compact.merge_run", "compaction",
                      {"start": run[0].start, "end": run[-1].end,
                       "records": len(run)}):
            columns = list(zip(*(self.store.parts(view) for view in run)))
            try:
                merged = [
                    self.merge_payloads_ordered(
                        [sub.load_diff(record) for sub, record in column])
                    for column in columns
                ]
            except Exception:
                return False  # unreadable or un-addable payloads: leave run
            count = sum(r.count for r in run)
            for column, payload in zip(columns, merged):
                sub = column[0][0]
                tree, codec_id, raw_nbytes = encode_record_tree(
                    sub.codec, CheckpointStore.diff_tree(
                        run[0].start, run[-1].end, count,
                        payload_to_tree(payload)))
                parts, crc = pack_tree_parts(tree)
                sub.merge_diff_run(
                    [record for _, record in column], parts, crc,
                    count=count, codec=codec_id, raw_nbytes=raw_nbytes)
            # Every part lists its super-diff before any drops its run: a
            # crash in between leaves the parts agreeing on one of the two.
            for column in columns:
                column[0][0].drop_diffs([record for _, record in column])
        return True

    # Rebase mode -----------------------------------------------------------
    def _rebase(self) -> CompactionReport:
        """Replay the chain onto the newest full; persist the result as a
        new full at the chain head.

        Uses :func:`repro.core.recovery.serial_recover` verbatim, so the
        rebased full is bit-exact with the state an actual recovery (or
        the uninterrupted run) would reach — for any optimizer.
        """
        from repro.core.recovery import serial_recover  # circular-safe
        from repro.storage.serializer import CorruptCheckpointError

        store = self.store
        report = CompactionReport(mode="rebase",
                                  records_before=self.policy.chain_records(store))
        model = self.model_factory()
        optimizer = self.optimizer_factory(model)
        with obs_span("compact.rebase", "compaction",
                      {"chain_records": report.records_before}):
            try:
                result = serial_recover(store, model, optimizer)
            except CorruptCheckpointError:
                # No verifiable base: compaction is opportunistic
                # maintenance, not the recovery of last resort — give up
                # this pass and leave the (corrupt) state for the real
                # recovery path's fallback/quarantine machinery.
                if OBS.enabled:
                    OBS.registry.counter("compact.rebase_aborted").inc()
                return report
            if result.step > result.full_step:
                store.save_full(result.step, model.state_dict(),
                                optimizer.state_dict())
                report.new_full_step = result.step
        return report
