"""Recovery from full + differential checkpoints (Algorithm 1 lines 17-24,
and the parallel recovery module of §VI).

Serial recovery loads the latest full checkpoint and replays every stored
differential in order.  Parallel recovery instead merges the differential
payloads pairwise in a binary tree (differential addition is associative:
sparse union-add for reused gradients, plain addition for Naïve-DC state
deltas) and applies the single merged result — ``n-1`` merge operations
arranged at critical-path depth ``ceil(log2 n)`` instead of ``n``
sequential applications (Fig. "Parallel Fast Recovery").  The tree is
computed by one streaming fold, :class:`MergeFold`.

One pipeline serves every store and executor (ARCHITECTURE.md §3).  A
store is read through a small *reader protocol*: ``fulls()`` and
``diffs_after(step)`` list the readable views, ``parts(view)`` names the
``(sub_store, record)`` blobs behind one view (one pair for
:class:`~repro.storage.checkpoint_store.CheckpointStore`, one per shard
for :class:`~repro.storage.sharded.ShardedCheckpointStore`),
``part_bounds()`` the global index range of each part, and
``assemble_full`` / ``assemble_payload`` put the decoded parts back
together.  Everything below — base walk, stream and fold, apply — is
written once against that protocol.

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
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import repeat

import numpy as np

from repro.compression.sparse import (
    VALUE_DTYPE,
    DenseNode,
    SparseGradient,
    global_offsets,
)
from repro.core.differential import StateDelta, apply_state_delta
from repro.obs import OBS, span as obs_span
from repro.optim.optimizer import Optimizer
from repro.storage.serializer import CorruptCheckpointError
from repro.tensor.module import Module
from repro.utils.pool import published, usable_cpus

#: Load failures recovery can route around by falling back/truncating.
_UNREADABLE = (CorruptCheckpointError, FileNotFoundError, KeyError, TypeError)
#: Keys of :attr:`RecoveryResult.phase_s`: busy seconds summed over workers
#: (``load_chain`` = read + CRC + decode).
PHASES = ("load_full", "load_chain", "merge", "apply")
#: Mean decode weight per diff blob — stored bytes, ``CODED_DECODE_WEIGHT``
#: times that for a coded blob — from which the fan-out uses
#: threads.  Below it a record is too little GIL-free work (inflate,
#: copies) to pay the hand-offs between threads.  Paired alternating
#: restores, 2 threads / inline, 2-core host, 20 pairs per mean blob size
#: (median time ratio, pairs the threads won):
#:   uncoded  15 KB 1.08 (0), 62 KB 1.11 (0), 107 KB 1.05 (5),
#:            180 KB 1.05 (1), 263 KB 0.99 (13), 417 KB 0.90 (20);
#:   coded    38 KB 1.03 (4), 53 KB 0.95 (17), 69 KB 0.89 (19),
#:            107 KB 0.84 (19), 283 KB 0.70 (20).
FANOUT_MIN_RECORD_BYTES = 256 * 1024
#: Decode cost of a coded blob per stored byte, in uncoded bytes: the
#: measured crossovers above are ~256 KB uncoded and ~64 KB coded.
CODED_DECODE_WEIGHT = 4


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
    workers: int = 1          # fan-out actually used (1 = ran inline)
    phase_s: dict[str, float] = field(default_factory=dict)  # see PHASES


def merge_tree_depth(count: int) -> int:
    """Critical-path depth of a balanced pairwise merge over ``count`` leaves."""
    return math.ceil(math.log2(count)) if count > 1 else 0


@contextmanager
def _phase(phase_s: dict, phase: str, span: str | None = None, args=None):
    """Add the block's seconds to ``phase_s[phase]``, under an obs span."""
    started = time.perf_counter()
    with obs_span(span, "recovery", args) if span else nullcontext():
        yield
    phase_s[phase] += time.perf_counter() - started


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


def _recovery_pool():
    """One pool of the usable CPUs per recovery — none when pinned to one.
    The chain's segments fold on it; a base full decodes (zlib and NumPy's
    copies release the GIL) and the update applies with it published.  A
    diff decodes inline: its nodes are too small for the hand-offs (a
    128-diff serial restore's ``load_chain``: 0.15 and 0.22 s inline, 0.18
    and 0.25 s on the pool; 2-core host)."""
    usable = usable_cpus()
    return ThreadPoolExecutor(usable) if usable > 1 else nullcontext()


def _load_base(store, model: Module, optimizer: Optimizer, pool):
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
        with published(pool):
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


# Stream and fold --------------------------------------------------------------
def as_payload(node):
    """A fold node in payload form (a dense node turns sparse)."""
    return node.to_sparse() if isinstance(node, DenseNode) else node


class MergeFold:
    """The balanced pairwise merge tree over one chain, as a streaming fold
    (ARCHITECTURE.md §3).

    Leaves are pushed in chain order onto a binary-counter stack: a leaf
    enters at level 0 and, while the two top entries have equal level,
    they merge one level up; :meth:`root` folds the rest right to left.
    Node ``(k, j)`` thus covers leaves ``[j*2**k, min((j+1)*2**k, n))``,
    odd leaf carried — the tree a level-by-level pairwise reduction
    builds — with at most ``ceil(log2 n) + 1`` nodes alive.  The stacks of
    consecutive :func:`aligned_segments` compose through :meth:`extend`
    into the same tree, whoever folded them.  Sparse gradients merge into
    pooled :class:`~repro.compression.sparse.DenseNode` buffers over the
    part's index range; every other payload type with its own ``add``.
    """

    def __init__(self, bounds=None):
        self.bounds = bounds    # the part's global index range; None: all
        self.stack: list[tuple] = []    # (level, node), levels descending
        # Counters a segment hands on with its stack; seconds are busy time.
        self.stats = {"merge_ops": 0, "load_chain": 0.0, "merge": 0.0}
        self.buffers = 0        # node buffers allocated = most alive at once
        self._free: list = []

    @property
    def leaves(self) -> int:
        """Leaves pushed so far: a level-``k`` entry holds ``2**k``."""
        return sum(1 << level for level, _ in self.stack)

    def push(self, node, level: int = 0) -> None:
        with _phase(self.stats, "merge"):
            while self.stack and self.stack[-1][0] == level:
                node, level = self._merge(self.stack.pop()[1], node), level + 1
            self.stack.append((level, node))

    def extend(self, segment: "MergeFold") -> None:
        """Continue with the stack (and counters) of the next segment."""
        for level, node in segment.stack:
            self.push(node, level)
        for key, value in segment.stats.items():
            self.stats[key] += value

    def root(self):
        """Collapse the stack into the tree's root (``None`` when empty)."""
        node = None
        with _phase(self.stats, "merge"):
            for _, left in reversed(self.stack):
                node = left if node is None else self._merge(left, node)
        self.stack = []
        return node

    def _merge(self, left, right):
        self.stats["merge_ops"] += 1
        sparse = [node for node in (left, right)
                  if isinstance(node, SparseGradient)]
        nodes = [node for node in (left, right) if isinstance(node, DenseNode)]
        if len(sparse) + len(nodes) < 2:
            return left.add(right)
        if any(payload.has_duplicates() for payload in sparse):
            # Three or more addends on a coordinate: one float64 sum
            # rounded once, which only union-add computes.
            merged = as_payload(left).add(as_payload(right))
        else:   # fp32 addition commutes: sum into a side that is dense
            merged = nodes.pop(0) if nodes else self._zero_node(left.shapes)
            for payload in sparse:
                merged.accumulate(payload)
            for node in nodes:
                np.add(merged.buf, node.buf, out=merged.buf)
        for node in nodes:      # their sums moved on: back to the pool
            node.buf.fill(0.0)
            self._free.append(node.buf)
        return merged

    def _zero_node(self, shapes) -> DenseNode:
        lo, hi = self.bounds or (0, global_offsets(shapes, shapes)[1])
        if self._free:
            return DenseNode(shapes, lo, self._free.pop())
        self.buffers += 1
        return DenseNode(shapes, lo, np.zeros(hi - lo, dtype=VALUE_DTYPE))


def aligned_segments(count: int, workers: int) -> list[slice]:
    """``range(count)`` cut into at most ``workers`` segments at multiples
    of a power of two, where a segment's fold is a subtree of the chain's
    tree; one segment when fan-out cannot pay (< 2 workers, < 4 records)."""
    if workers < 2 or count < 4:
        return [slice(0, count)]
    size = 1 << max(1, math.ceil(math.log2(math.ceil(count / workers))))
    return [slice(start, start + size) for start in range(0, count, size)]


def fold_segment(parts, bounds=None, raws=None) -> MergeFold:
    """read → CRC → decode → push over one chain segment; every blob and
    payload dies as soon as it is pushed.  Stops at the first unreadable
    part and quarantines nothing: ``fold.leaves < len(parts)`` tells the
    caller where the hole is.  ``raws``: blobs read beforehand."""
    fold = MergeFold(bounds)
    raws = iter(raws) if raws is not None \
        else (sub.read_raw(record) for sub, record in parts)
    for sub, record in parts:
        started = time.perf_counter()
        try:
            payload = sub.decode_diff(record, next(raws))
        except _UNREADABLE:
            break
        fold.stats["load_chain"] += time.perf_counter() - started
        fold.push(payload)
    return fold


def _fold_part(parts, bounds, segments, executor, pooled_reads) -> MergeFold:
    """One part's chain: its segments folded — on the pool or inline — and
    their stacks pushed through one fold in order, up to the first hole."""
    chunks = [parts[segment] for segment in segments]
    raw_chunks = repeat(None)
    if executor is not None and not pooled_reads:
        # No ``thread_safe_reads`` (fault-injecting wrappers): read
        # here, in chain order, so seeded fault draws replay.
        raws = []
        with suppress(*_UNREADABLE):
            for sub, record in parts:
                raws.append(sub.read_raw(record))
        chunks = [parts[:len(raws)][segment] for segment in segments]
        raw_chunks = [raws[segment] for segment in segments]
    run = executor.map if executor is not None else map
    fold, expected = MergeFold(bounds), 0
    for chunk, segment in zip(chunks, run(fold_segment, chunks,
                                          repeat(bounds), raw_chunks)):
        fold.extend(segment)
        expected += len(chunk)
        if fold.leaves < expected:      # a hole: the rest is unreachable
            break
    return fold


def _fold_chain(store, chain, workers: int, pool):
    """Stream the longest intact prefix of ``chain`` through one fold per
    part, shard-major.  Returns ``(views, folds, truncated, fanout)``.

    Every shard is truncated at the first unreadable record of *any*
    shard (only that shard's blob is quarantined): replaying past a hole
    would corrupt the state.  Later shards never read past a known hole;
    one found later sends the earlier shards through the fold again over
    the shorter prefix (rare).
    """
    segments = aligned_segments(len(chain), workers)
    # Per part (shard): its (sub_store, record) pairs in chain order.
    columns = list(zip(zip(*(store.parts(view) for view in chain)),
                       store.part_bounds()))
    pooled_reads = store.backend.thread_safe_reads
    limit, folds = len(chain), [None] * len(columns)
    executor = pool if len(segments) > 1 else None
    while stale := [index for index, fold in enumerate(folds)
                    if fold is None or fold.leaves != limit]:
        parts, bounds = columns[stale[0]]
        fold = folds[stale[0]] = _fold_part(
            parts[:limit], bounds, segments, executor, pooled_reads)
        if fold.leaves < limit:
            limit = fold.leaves
            sub, record = parts[limit]
            sub.quarantine(record)
    return chain[:limit], folds, int(limit < len(chain)), len(segments)


# Applying --------------------------------------------------------------------
def _apply_payload(model: Module, optimizer: Optimizer, payload, count: int,
                   pool) -> None:
    """Apply one differential payload (or the dense gradients it stands
    for) covering ``count`` training steps, or a window (a list) of
    one-step payloads, to the live model/optimizer.  A gradient payload
    goes to ``step_with`` as is, exactly as the live step took it."""
    if isinstance(payload, StateDelta):
        new_model, new_optimizer = apply_state_delta(
            model.state_dict(), optimizer.state_dict(), payload
        )
        model.load_state_dict(new_model)
        optimizer.load_state_dict(new_optimizer)
        return
    with published(pool):
        optimizer.step_with(payload)
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

    One-step gradient diffs replay as ``step_with`` windows while their
    decoded bytes fit in one float64 per parameter; a batched record, a
    state delta, or a record under a ``sparse_exact`` optimizer, alone.
    """
    recover_t0 = time.perf_counter()
    phase_s = dict.fromkeys(PHASES, 0.0)
    loaded = gradients = truncated = 0
    budget = 0 if optimizer.sparse_exact else \
        8 * sum(param.data.size for param in optimizer.parameters())
    window: list = []

    def replay(payload, count: int = 1) -> None:
        with _phase(phase_s, "apply", "recover.replay_window"):
            _apply_payload(model, optimizer, payload, count, pool)

    with _recovery_pool() as pool:
        with _phase(phase_s, "load_full", "recover.load_full"):
            full_step, fulls_skipped = _load_base(store, model, optimizer,
                                                  pool)
        for view in store.diffs_after(full_step):
            parts = store.parts(view)
            with _phase(phase_s, "load_chain"):
                payloads = _readable_prefix(
                    parts,
                    [partial(sub.load_diff, record) for sub, record in parts])
                if len(payloads) < len(parts):
                    truncated = 1
                    break
                payload = store.assemble_payload(payloads)
            alone = view.count > 1 or isinstance(payload, StateDelta) \
                or not budget
            if window and (alone or payload.nbytes + sum(
                    held.nbytes for held in window) > budget):
                replay(window)
                window = []
            if alone:
                replay(payload, view.count)
            else:
                window.append(payload)
            gradients += view.count
            loaded += 1
        if window:
            replay(window)
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
        phase_s=phase_s,
    )


def parallel_recover(store, model: Module, optimizer: Optimizer
                     ) -> RecoveryResult:
    """Tree-merge all differentials, then apply once.

    Every shard's chain streams through one :class:`MergeFold`: the
    balanced pairwise tree, ``n-1`` merges at critical-path depth
    ``ceil(log2 n)``.  Aligned chain segments fold on the recovery's pool
    with a fan-out of ``min(8, usable CPUs, segments)`` for blobs of
    :data:`FANOUT_MIN_RECORD_BYTES` decode weight and up; lighter chains,
    a pinned process, or under four records fold inline: fan-out must
    never lose.  The result never depends on the fan-out.
    """
    recover_t0 = time.perf_counter()
    phase_s = dict.fromkeys(PHASES, 0.0)
    with _recovery_pool() as pool:
        with _phase(phase_s, "load_full", "recover.load_full"):
            full_step, fulls_skipped = _load_base(store, model, optimizer,
                                                  pool)
        views = store.diffs_after(full_step)
        # Plan: threads only where they can win.
        blobs = [record for view in views for _, record in store.parts(view)]
        weight = sum(record.nbytes * (CODED_DECODE_WEIGHT if record.codec
                                      else 1) for record in blobs)
        width = 8 if weight \
            >= max(1, len(blobs)) * FANOUT_MIN_RECORD_BYTES else 1
        with obs_span("recover.load_chain", "recovery"):
            views, folds, truncated, fanout = _fold_chain(
                store, views, min(width, usable_cpus()), pool)
        roots = [fold.root() for fold in folds]
        for fold in folds:
            phase_s["load_chain"] += fold.stats["load_chain"]
            phase_s["merge"] += fold.stats["merge"]
        gradients = sum(view.count for view in views)
        if views:
            with _phase(phase_s, "apply", "recover.apply_merged",
                        {"gradients": gradients}):
                if all(isinstance(root, DenseNode) for root in roots):
                    merged = DenseNode.tensors(roots)  # roots tile the space
                else:
                    merged = store.assemble_payload(
                        [as_payload(root) for root in roots])
                _apply_payload(model, optimizer, merged, gradients, pool)
    _observe("parallel", recover_t0, len(views))
    return RecoveryResult(
        step=optimizer.step_count,
        full_step=full_step,
        diffs_loaded=len(views),
        gradients_replayed=gradients,
        merge_ops=sum(fold.stats["merge_ops"] for fold in folds),
        merge_depth=merge_tree_depth(len(views)),
        apply_ops=int(bool(views)),
        corrupt_fulls_skipped=fulls_skipped,
        corrupt_diffs_skipped=truncated,
        workers=fanout,
        phase_s=phase_s,
    )


def merge_payloads(payloads: list):
    """Left-fold merge (serial order) — used by tests as the reference."""
    if not payloads:
        raise ValueError("nothing to merge")
    return reduce(lambda a, b: a.add(b), payloads)
