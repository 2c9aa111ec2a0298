"""Recovery from full + differential checkpoints (Algorithm 1 lines 17-24,
and the parallel recovery module of §VI).

Serial recovery loads the latest full checkpoint and replays every stored
differential in order.  Parallel recovery instead merges the differential
payloads pairwise in a binary tree (differential addition is associative:
sparse union-add for reused gradients, plain addition for Naïve-DC state
deltas) and applies the single merged result — ``n-1`` merge operations
arranged at critical-path depth ``ceil(log2 n)`` instead of ``n``
sequential applications (Fig. "Parallel Fast Recovery").

One pipeline serves every store and executor (ARCHITECTURE.md §3).  A
store is read through a small *reader protocol*: ``fulls()`` and
``diffs_after(step)`` list the readable views, ``parts(view)`` names the
``(sub_store, record)`` blobs behind one view (one pair for
:class:`~repro.storage.checkpoint_store.CheckpointStore`, one per shard
for :class:`~repro.storage.sharded.ShardedCheckpointStore`), and
``assemble_full`` / ``assemble_payload`` put the decoded parts back
together.  Everything below — base walk, chain load, merge tree, apply —
is written once against that protocol.

Semantics note (also in DESIGN.md): merging ``k`` gradient payloads and
applying once is exact for linear optimizers (SGD without momentum) and
for state deltas; for Adam it has gradient-accumulation semantics — the
same approximation the batched writer already makes, embraced by the
paper's ``b/2`` lost-work model.

Corruption awareness (ARCHITECTURE.md §6): recovery never trusts a blob
blindly.  The base full is the *newest verifiable* one — corrupt or
missing fulls are quarantined and the next older tried; the differential
chain is replayed only up to the first unreadable record (a mid-chain
loss truncates, never skips).  Recovery therefore degrades to an older
bit-exact state instead of crashing or silently loading garbage.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce

from repro.compression.sparse import DenseScratch
from repro.core.differential import StateDelta, apply_state_delta
from repro.obs import OBS, span as obs_span
from repro.optim.optimizer import Optimizer
from repro.storage.serializer import CorruptCheckpointError
from repro.tensor.module import Module

#: Load failures recovery can route around by falling back/truncating.
_UNREADABLE = (CorruptCheckpointError, FileNotFoundError, KeyError, TypeError)


@dataclass
class RecoveryResult:
    """What recovery restored and what it cost."""

    step: int                 # optimizer step count after recovery
    full_step: int            # step of the full checkpoint used as base
    diffs_loaded: int         # differential records read from storage
    gradients_replayed: int   # per-iteration gradients represented by them
    merge_ops: int            # pairwise merge operations performed
    merge_depth: int          # critical-path depth of the merge tree
    apply_ops: int            # optimizer/state applications performed
    corrupt_fulls_skipped: int = 0   # unverifiable fulls passed over
    corrupt_diffs_skipped: int = 0   # chain truncations due to bad diffs


def merge_tree_depth(count: int) -> int:
    """Critical-path depth of a balanced pairwise merge over ``count`` leaves."""
    if count <= 0:
        return 0
    return math.ceil(math.log2(count)) if count > 1 else 0


# Loading ---------------------------------------------------------------------
def _readable_prefix(parts, attempts) -> list:
    """Results of ``attempts`` — one thunk per ``(sub_store, record)`` part,
    called in order — up to the first unreadable part, which is
    quarantined in its own sub-store.  A short result means "stop here":
    the caller falls back (fulls) or truncates (diffs), never skips."""
    done = []
    for (sub, record), attempt in zip(parts, attempts):
        try:
            done.append(attempt())
        except _UNREADABLE:
            sub.quarantine(record)
            break
    return done


def _load_base(store, model: Module, optimizer: Optimizer):
    """Load the newest *verifiable* full checkpoint.

    Walks fulls newest-first; one with any part missing or failing its
    integrity check has that part quarantined and the next older full is
    tried.  Returns ``(step, skipped)``.
    """
    fulls = store.fulls()
    if not fulls:
        raise FileNotFoundError("no full checkpoint available for recovery")
    skipped = 0
    for view in reversed(fulls):
        parts = store.parts(view)
        states = _readable_prefix(
            parts, [partial(sub.load_full, record) for sub, record in parts])
        if len(states) < len(parts):
            skipped += 1
            continue
        model_state, optimizer_state = store.assemble_full(
            [state[:2] for state in states])
        model.load_state_dict(model_state)
        optimizer.load_state_dict(optimizer_state)
        return view.step, skipped
    raise CorruptCheckpointError(
        f"no verifiable full checkpoint: all {len(fulls)} candidates failed "
        "integrity checks"
    )


def _load_parts(parts, executor=None, pooled_reads: bool = False) -> list:
    """Decoded diff payloads of ``parts``, up to the first unreadable one.

    With an ``executor``, the CPU-bound verify+decode of each blob fans
    out to the pool.  Backend reads also overlap on the pool — but only
    with ``pooled_reads``, i.e. when the backend declares
    ``thread_safe_reads`` (local disk, memory tier); fault-injecting
    wrappers keep it False, so their seeded RNG draws stay replayable
    under a deterministic sequential read order.  Failures surface in
    part order exactly like the inline path.
    """
    if executor is None:
        return _readable_prefix(
            parts, [partial(sub.load_diff, record) for sub, record in parts])
    if pooled_reads:
        reads = [executor.submit(sub.read_raw, record).result
                 for sub, record in parts]
    else:
        reads = [partial(sub.read_raw, record) for sub, record in parts]
    raws = _readable_prefix(parts, reads)
    decodes = [executor.submit(sub.decode_diff, record, raw).result
               for (sub, record), raw in zip(parts, raws)]
    # From here each raw blob lives only in its decode's work item and is
    # released as soon as that decode has run.
    del reads, raws
    return _readable_prefix(parts, decodes)


def _shard_major(store, chain) -> list[tuple]:
    """``chain`` transposed: per part (shard), its ``(sub_store, record)``
    pairs in chain order."""
    return list(zip(*(store.parts(view) for view in chain)))


def _load_chain(store, chain, executor=None):
    """Load the longest intact prefix of ``chain``, shard-major.

    Every shard is truncated at the first unreadable record of *any*
    shard (only that shard's blob is quarantined): replaying past a hole
    would corrupt the state.  Later shards never read past a hole an
    earlier shard found.  Returns ``(views, columns, truncated)`` with
    ``columns[part][position]`` the decoded payloads.
    """
    pooled_reads = executor is not None \
        and getattr(store.backend, "thread_safe_reads", False)
    limit = len(chain)
    columns = []
    for parts in _shard_major(store, chain):
        columns.append(_load_parts(parts[:limit], executor, pooled_reads))
        limit = len(columns[-1])
    return (chain[:limit], [payloads[:limit] for payloads in columns],
            int(limit < len(chain)))


# Merging ---------------------------------------------------------------------
def _add_pair(pair):
    return pair[0].add(pair[1])


def pairwise_merge(chains: list[list], executor=None):
    """Balanced pairwise reduction of every chain, level-synchronously.

    Merging ``[i, i+1]`` pairs per level with the odd leaf carried means
    the element at level ``k`` position ``j`` covers exactly leaves
    ``[j*2**k, min((j+1)*2**k, n))`` and depends only on that subrange —
    which is why segment workers (segments split at multiples of a power
    of two, :func:`~repro.storage.mp_engine.recover_chain_segments`)
    produce exactly the global tree's internal nodes, and the parent's
    continuation of the same loop is bit-identical to merging the whole
    chain in one process.  It is also why a sharded store restores
    bit-equal to an unsharded one: every coordinate lives in exactly one
    shard, and each shard's tree has the unsharded tree's shape, so the
    per-coordinate fp32 fold order is identical.

    Each level's pairs of *all* chains form one job list for
    ``executor.map`` — no pool task ever submits to the pool it runs on —
    and each pair merges in a fixed order, so the result is independent
    of thread scheduling.  Returns ``(roots, merge_ops, depth)``, one root
    per non-empty chain.
    """
    levels = [list(chain) for chain in chains]
    merge_ops = depth = 0
    while any(len(level) > 1 for level in levels):
        pairs = [(level[index], level[index + 1]) for level in levels
                 for index in range(0, len(level) - 1, 2)]
        with obs_span("recover.merge_level", "recovery",
                      {"level": depth, "pairs": len(pairs)}):
            if executor is not None and len(pairs) > 1:
                merged = list(executor.map(_add_pair, pairs))
            else:
                merged = [_add_pair(pair) for pair in pairs]
        merged = iter(merged)
        # Each chain takes back its own merges, then its odd leaf (if any).
        levels = [[next(merged) for _ in range(len(level) // 2)]
                  + level[len(level) // 2 * 2:] for level in levels]
        merge_ops += len(pairs)
        depth += 1
    return [level[0] for level in levels if level], merge_ops, depth


def _merge_in_processes(store, chain, processes: int):
    """The merge step on spawned worker processes, one shard at a time.

    Workers decode and pairwise-merge power-of-two chain segments; the
    parent finishes each tree, so the roots are bit-identical to the
    threaded path's.  ``None`` (backend not process-safe, chain too short
    to amortize a spawn, worker failure) sends the caller to the thread
    path, which owns quarantine/truncation.
    """
    from repro.storage.mp_engine import recover_chain_segments
    roots, merge_ops, depth = [], 0, 0
    with obs_span("recover.mp_segments", "recovery",
                  {"chain": len(chain), "processes": processes}):
        for parts in _shard_major(store, chain):
            merged = recover_chain_segments(
                parts[0][0], [record for _, record in parts], processes)
            if merged is None:
                return None
            roots.append(merged[0])
            merge_ops += merged[1]
            depth = max(depth, merged[2])
    return roots, merge_ops, depth


# Applying --------------------------------------------------------------------
class _ReplayScratch:
    """Reusable dense buffers threaded through a replay loop.

    Gradient payloads decompress into one shared :class:`DenseScratch`
    (allocated on first use, re-zeroed O(k) between diffs), so replaying a
    64-diff chain makes zero dense allocations after the first record —
    the same fast path (``decompress_into`` + fused ``step_with``) live
    training uses.
    """

    __slots__ = ("dense",)

    def __init__(self):
        self.dense: DenseScratch | None = None

    def buffers_for(self, payload) -> DenseScratch:
        if self.dense is None or self.dense.shapes != payload.shapes:
            self.dense = DenseScratch(payload.shapes)
        return self.dense


def _apply_payload(model: Module, optimizer: Optimizer, payload, count: int,
                   scratch: _ReplayScratch) -> None:
    """Apply one differential payload standing for ``count`` training
    steps to the live model/optimizer."""
    if isinstance(payload, StateDelta):
        new_model, new_optimizer = apply_state_delta(
            model.state_dict(), optimizer.state_dict(), payload
        )
        model.load_state_dict(new_model)
        optimizer.load_state_dict(new_optimizer)
        return
    if hasattr(payload, "decompress_into"):
        optimizer.step_with(payload.decompress_into(scratch.buffers_for(payload)))
    else:
        optimizer.step_with(payload.decompress())
    # One optimizer application for `count` gradients (a batched record, or
    # a whole merged chain): keep the step counter (and thus LR schedules)
    # aligned with training.
    optimizer.step_count += count - 1


def _observe(kind: str, recover_t0: float, loaded: int) -> None:
    if OBS.enabled:
        OBS.registry.counter(f"recover.{kind}.runs").inc()
        OBS.registry.counter("recover.diffs_replayed").inc(loaded)
        # Restore-path duration histogram: feeds the tail-latency table
        # (p50/p95/p99) in ``python -m repro.obs.report``.
        OBS.registry.observe(f"recover.{kind}.s",
                             time.perf_counter() - recover_t0)


# The paper's two algorithms ---------------------------------------------------
def serial_recover(store, model: Module, optimizer: Optimizer
                   ) -> RecoveryResult:
    """Replay differentials one by one — the traditional recovery process.

    Streams records lazily; the first unreadable diff truncates the chain
    (the state is already bit-exact at the last applied step).  On a
    sharded store each chain position reassembles its shard payloads into
    the original payload bit-exactly, so the restored state is
    bit-identical to the unsharded series of the same run.
    """
    recover_t0 = time.perf_counter()
    with obs_span("recover.load_full", "recovery"):
        full_step, fulls_skipped = _load_base(store, model, optimizer)
    loaded = gradients = truncated = 0
    scratch = _ReplayScratch()
    for view in store.diffs_after(full_step):
        parts = store.parts(view)
        payloads = _load_parts(parts)
        if len(payloads) < len(parts):
            truncated = 1
            break
        with obs_span("recover.replay_diff", "recovery",
                      {"start": view.start, "end": view.end,
                       "count": view.count}):
            _apply_payload(model, optimizer, store.assemble_payload(payloads),
                           view.count, scratch)
        gradients += view.count
        loaded += 1
    _observe("serial", recover_t0, loaded)
    return RecoveryResult(
        step=optimizer.step_count,
        full_step=full_step,
        diffs_loaded=loaded,
        gradients_replayed=gradients,
        merge_ops=0,
        merge_depth=0,
        apply_ops=loaded,
        corrupt_fulls_skipped=fulls_skipped,
        corrupt_diffs_skipped=truncated,
    )


def parallel_recover(store, model: Module, optimizer: Optimizer,
                     max_workers: int | None = None,
                     processes: int = 0) -> RecoveryResult:
    """Tree-merge all differentials on a thread pool, then apply once.

    Decoding (CRC verify + deserialize) and the pairwise merge tree run
    on a :class:`~concurrent.futures.ThreadPoolExecutor`; the hot kernels
    (CRC32, ``np.unique``/``np.bincount``) release the GIL, so levels
    genuinely overlap across cores.  The tree is the balanced pairwise
    reduction of :func:`pairwise_merge` — per shard, ``n-1`` merges at
    critical-path depth ``ceil(log2 n)``.  ``max_workers=1`` (or ``0``)
    forces single-threaded execution.

    ``processes >= 2`` fans decode + merge out to spawned worker
    *processes* instead (GIL-free; §VI's recovery module at process
    granularity), falling back to the thread path — bit-identically —
    whenever the backend is not process-safe, the chain is too short to
    amortize a spawn, or a worker fails.
    """
    if max_workers is None:
        max_workers = min(8, os.cpu_count() or 2)
    recover_t0 = time.perf_counter()
    with obs_span("recover.load_full", "recovery"):
        full_step, fulls_skipped = _load_base(store, model, optimizer)
    views, truncated = store.diffs_after(full_step), 0
    merged = None
    if processes and processes > 1 and views:
        merged = _merge_in_processes(store, views, processes)
    if merged is None:
        executor = ThreadPoolExecutor(max_workers=max_workers) \
            if max_workers > 1 else None
        try:
            with obs_span("recover.load_chain", "recovery"):
                views, columns, truncated = _load_chain(store, views, executor)
            merged = pairwise_merge(columns, executor)
        finally:
            if executor is not None:
                executor.shutdown(wait=True)
    roots, merge_ops, depth = merged
    gradients = sum(view.count for view in views)
    if views:
        with obs_span("recover.apply_merged", "recovery",
                      {"gradients": gradients}):
            _apply_payload(model, optimizer, store.assemble_payload(roots),
                           gradients, _ReplayScratch())
    _observe("parallel", recover_t0, len(views))
    return RecoveryResult(
        step=optimizer.step_count,
        full_step=full_step,
        diffs_loaded=len(views),
        gradients_replayed=gradients,
        merge_ops=merge_ops,
        merge_depth=depth,
        apply_ops=int(bool(views)),
        corrupt_fulls_skipped=fulls_skipped,
        corrupt_diffs_skipped=truncated,
    )


def merge_payloads(payloads: list):
    """Left-fold merge (serial order) — used by tests as the reference."""
    if not payloads:
        raise ValueError("nothing to merge")
    return reduce(lambda a, b: a.add(b), payloads)
