"""One train -> crash -> restore -> verify cycle through the public API.

A cycle = build the trainer from the seed -> ``attach()`` -> N timed
``trainer.step()`` -> ``finalize()`` (the "crash": everything the training
process held is then dropped) -> R serial and R parallel restores, each
opening a *new* store on the directory with a fresh, differently
initialised model -> verify.

Checks (any failure marks the run invalid):

* every record the checkpointer submitted is in the reopened store's
  manifest and its blob matches the manifest CRC;
* every restore lands on the crash step;
* serial restore is bit-equal to the live state at the crash;
* parallel restore applies the merged chain once, so it is compared
  (<= 1e-9 relative) with a reference built here from public calls:
  ``load_full`` + the same balanced pairwise ``add`` tree over
  ``load_diff`` of the chain + one ``step_with``.  (A left fold differs
  from the tree by ~3e-7: sparse values accumulate in fp32.)
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro import CheckpointStore, LocalDiskBackend, LowDiffCheckpointer
from repro.storage import unpack_tree

from bench.hostspeed import PhaseProbes, correction

PARALLEL_REL_TOL = 1e-9
# After compaction a serial restore applies 8-step super-diffs once each:
# exact for plain SGD up to fp32 accumulation of the merged values.
COMPACTED_REL_TOL = 1e-6
FRESH_INIT_SALT = 0x5EED


@dataclass
class TrainResult:
    seed: int
    directory: str
    build_s: float            # trainer + store + checkpointer (engine spawn)
    attach_s: float           # attach() incl. the initial full
    iter_s: list[float]
    synced_s: list[float]     # bracketed synced-gradient hook time / iter
    update_s: list[float]     # bracketed post-update hook time / iter
    loop_s: float
    finalize_s: float
    logical_bytes: int        # payload + full-state bytes handed to persist
    restore_logical_bytes: int  # newest full + the chain after it
    stats: dict               # checkpointer.stats() after finalize
    crash_step: int
    live_model: dict
    live_optimizer: dict
    disk: dict = field(default_factory=dict)   # directory walk after finalize
    # Host-speed probe readings (bench/hostspeed.py) of this cycle: the
    # two ends of the train phase, then those of its restore phases.
    probe_s: list[float] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.build_s + self.attach_s

    @property
    def stall_s(self) -> list[float]:
        return [a + b for a, b in zip(self.synced_s, self.update_s)]

    @property
    def correction(self) -> float:
        """Turns this cycle's timings into reference-host-speed readings."""
        return correction(self.probe_s)


class _StallBrackets:
    """Hooks registered immediately before and after ``attach()``: the time
    between a pair is training-thread time inside the checkpointer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.synced_s: list[float] = []
        self.update_s: list[float] = []
        self._span = None
        self._t0 = 0.0

    def pre_synced(self, iteration, payload):
        if self.tracer is not None:
            self._span = self.tracer.begin("core.lowdiff.synced_hook",
                                           iteration + 1)
        self._t0 = time.perf_counter()

    def post_synced(self, iteration, payload):
        elapsed = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end(self._span)
        self.synced_s.append(elapsed)

    def pre_update(self, iteration):
        if self.tracer is not None:
            self._span = self.tracer.begin("core.lowdiff.post_update_hook",
                                           iteration + 1)
        self._t0 = time.perf_counter()

    def post_update(self, iteration):
        elapsed = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end(self._span)
        self.update_s.append(elapsed)


def _set_phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


def _state_nbytes(model_state: dict, optimizer_state: dict) -> int:
    total = sum(v.nbytes for v in model_state.values())
    for slots in optimizer_state["slots"].values():
        total += sum(v.nbytes for v in slots.values())
    return total


def walk_directory(directory: str) -> dict:
    """Exact byte/file counts under the checkpoint directory (so blobs
    written by worker processes are included)."""
    total = blob_files = blob_bytes = 0
    shard_bytes: dict[str, int] = {}
    last_diff: dict[str, str] = {}   # diff dir -> its newest blob
    for dirpath, _, filenames in os.walk(directory):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            size = os.path.getsize(path)
            total += size
            if filename.endswith(".ckpt"):
                blob_files += 1
                blob_bytes += size
                if os.path.basename(dirpath) == "diff":
                    last_diff[dirpath] = max(last_diff.get(dirpath, ""), path)
            top = os.path.relpath(path, directory).split(os.sep)[0]
            if top.startswith("shard-"):
                shard_bytes[top] = shard_bytes.get(top, 0) + size
    return {"bytes": total, "blob_files": blob_files, "blob_bytes": blob_bytes,
            "shard_bytes": [shard_bytes[k] for k in sorted(shard_bytes)],
            "diff_overhead_bytes": sum(map(_container_overhead,
                                           last_diff.values()))}


def _container_overhead(path: str) -> int:
    """Bytes of one blob that are not array data (header, JSON manifest of
    the container, per-node framing)."""
    with open(path, "rb") as handle:
        data = handle.read()

    def array_bytes(node) -> int:
        if isinstance(node, np.ndarray):
            return node.nbytes
        if isinstance(node, dict):
            return sum(array_bytes(v) for v in node.values())
        if isinstance(node, (list, tuple)):
            return sum(array_bytes(v) for v in node)
        return 0

    return len(data) - array_bytes(unpack_tree(data))


def train_phase(spec, seed: int, directory: str, tracer=None,
                iterations: int | None = None) -> TrainResult:
    """Build, attach, run ``iterations`` timed steps, finalize."""
    iterations = spec.iterations if iterations is None else iterations
    _set_phase(tracer, "setup")
    probes = PhaseProbes()
    t0 = time.perf_counter()
    trainer = spec.trainer(seed)
    checkpointer = LowDiffCheckpointer(
        CheckpointStore(LocalDiskBackend(directory)), spec.config)
    t1 = time.perf_counter()
    try:
        brackets = _StallBrackets(tracer)
        trainer.register_synced_gradient_hook(brackets.pre_synced)
        trainer.register_post_update_hook(brackets.pre_update)
        checkpointer.attach(trainer)
        trainer.register_synced_gradient_hook(brackets.post_synced)
        trainer.register_post_update_hook(brackets.post_update)
        t2 = time.perf_counter()

        _set_phase(tracer, "train")
        iter_s: list[float] = []
        payload_nbytes: list[int] = []
        loop_t0 = time.perf_counter()
        for _ in range(iterations):
            start = time.perf_counter()
            record = trainer.step()
            iter_s.append(time.perf_counter() - start)
            payload_nbytes.append(record.payload.nbytes)
        loop_s = time.perf_counter() - loop_t0

        _set_phase(tracer, "finalize")
        start = time.perf_counter()
        checkpointer.finalize()
        finalize_s = time.perf_counter() - start
    except BaseException:
        # The persist engine owns threads or worker processes: stop and
        # join them on the way out rather than leaving them to atexit.
        checkpointer.abort()
        raise
    probes.close()
    _set_phase(tracer, "verify")

    stats = checkpointer.stats()
    live_model = trainer.model_state()
    live_optimizer = trainer.optimizer_state()
    state_nbytes = _state_nbytes(live_model, live_optimizer)
    crash_step = trainer.optimizer.step_count
    fcf = spec.config.full_every_iters
    return TrainResult(
        seed=seed, directory=directory, build_s=t1 - t0, attach_s=t2 - t1,
        iter_s=iter_s, synced_s=brackets.synced_s, update_s=brackets.update_s,
        loop_s=loop_s, finalize_s=finalize_s,
        logical_bytes=sum(payload_nbytes)
        + stats["full_checkpoints"] * state_nbytes,
        restore_logical_bytes=state_nbytes
        + sum(payload_nbytes[crash_step // fcf * fcf:]),
        stats=stats, crash_step=crash_step,
        live_model=live_model, live_optimizer=live_optimizer,
        disk=walk_directory(directory),
        probe_s=probes.readings,
    )


# Durability check --------------------------------------------------------------
def open_for_restore(spec, directory: str) -> LowDiffCheckpointer:
    """What a restarted job does first: a new store on the directory."""
    return LowDiffCheckpointer(CheckpointStore(LocalDiskBackend(directory)),
                               spec.restore_config())


def _backing_blobs(store, record) -> list[tuple]:
    """(sub-store, record) pairs behind one readable record (one per shard
    on a sharded store)."""
    subs = getattr(store, "shard_stores", None)
    if subs is None:
        return [(store, record)]
    return list(zip(subs, record.records))


def check_records(spec, train: TrainResult) -> tuple[int, int, list[str]]:
    """Records submitted vs committed-and-readable after reopening from disk
    alone.  Returns ``(attempted, failed, messages)``."""
    submitted_diffs = train.stats["gradients_submitted"]
    submitted_fulls = train.stats["full_checkpoints"]
    attempted = submitted_diffs + submitted_fulls
    store = open_for_restore(spec, train.directory).store
    readable = 0
    messages = []
    for record in store.fulls() + store.diffs_after(0):
        ok = True
        for sub, blob in _backing_blobs(store, record):
            try:
                ok &= zlib.crc32(sub.read_raw(blob)) == blob.crc
            except FileNotFoundError:
                ok = False
        if ok:
            readable += 1
        else:
            messages.append(f"record unreadable after reopen: {record}")
    failed = max(0, attempted - readable)
    if len(store.fulls()) != submitted_fulls:
        messages.append(f"{len(store.fulls())} fulls in manifest, "
                        f"{submitted_fulls} submitted")
    if len(store.diffs_after(0)) != submitted_diffs:
        messages.append(f"{len(store.diffs_after(0))} chain diffs in "
                        f"manifest, {submitted_diffs} submitted")
    return attempted, failed, messages


# Restore + verify --------------------------------------------------------------
def _fresh_model(spec, seed: int):
    model = spec.model(seed ^ FRESH_INIT_SALT)
    return model, spec.make_optimizer(model)


def _tree_merge(payloads: list):
    """Balanced pairwise merge — the fold order parallel recovery uses."""
    level = payloads
    while len(level) > 1:
        merged = [level[i].add(level[i + 1])
                  for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


def parallel_reference(spec, train: TrainResult) -> tuple[dict, dict]:
    """Expected state of a merged-chain restore, from public calls only."""
    store = open_for_restore(spec, train.directory).store
    model_state, optimizer_state, step = store.load_full(store.latest_full())
    chain = store.diffs_after(step)
    model, optimizer = _fresh_model(spec, train.seed)
    model.load_state_dict(model_state)
    optimizer.load_state_dict(optimizer_state)
    if chain:
        merged = _tree_merge([store.load_diff(record) for record in chain])
        optimizer.step_with(merged.decompress())
        optimizer.step_count += sum(record.count for record in chain) - 1
    return model.state_dict(), optimizer.state_dict()


def max_rel_diff(model, optimizer, ref_model: dict, ref_optimizer: dict
                 ) -> float:
    """Largest per-tensor ``max|a-b| / max|b|`` over parameters and
    optimizer slots; 0.0 means bit-equal."""
    pairs = [(model.state_dict()[name], ref) for name, ref in ref_model.items()]
    got_slots = optimizer.state_dict()["slots"]
    for name, slots in ref_optimizer["slots"].items():
        pairs.extend((got_slots[name][key], ref) for key, ref in slots.items())
    worst = 0.0
    for got, ref in pairs:
        if np.array_equal(got, ref):
            continue
        scale = float(np.max(np.abs(ref))) or 1.0
        worst = max(worst, float(np.max(np.abs(got - ref))) / scale)
    return worst


def restore_once(spec, train: TrainResult, parallel: bool, reference,
                 rel_tol: float, tracer=None, phase: str | None = None
                 ) -> dict:
    """One timed restore into a fresh model, verified against ``reference``
    (a ``(model_state, optimizer_state)`` pair).  Returns the restore row."""
    kind = "parallel" if parallel else "serial"
    model, optimizer = _fresh_model(spec, train.seed)
    _set_phase(tracer, phase or f"restore_{kind}")
    span = tracer.begin("restore", kind) if tracer is not None else None
    start = time.perf_counter()
    checkpointer = open_for_restore(spec, train.directory)
    result = checkpointer.recover(model, optimizer, parallel=parallel)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end(span)
    _set_phase(tracer, "verify")
    diff = max_rel_diff(model, optimizer, *reference)
    step_ok = (result.step == train.crash_step
               and optimizer.step_count == train.crash_step)
    return {
        "kind": kind, "seconds": seconds, "step": result.step,
        "diffs_loaded": result.diffs_loaded, "merge_ops": result.merge_ops,
        "merge_depth": result.merge_depth, "max_rel_diff": diff,
        "ok": bool(step_ok and diff <= rel_tol),
    }


def restore_phase(spec, train: TrainResult, parallel: bool, tracer=None
                  ) -> list[dict]:
    """R serial (or R parallel) restores of the crashed directory."""
    if parallel:
        reference, rel_tol = parallel_reference(spec, train), PARALLEL_REL_TOL
    else:
        reference, rel_tol = (train.live_model, train.live_optimizer), 0.0
    probes = PhaseProbes()
    rows = []
    for _ in range(spec.restores):
        rows.append(restore_once(spec, train, parallel, reference, rel_tol,
                                 tracer))
        probes.sample_done()
    probes.close()
    train.probe_s += probes.readings
    return rows


def compaction_step(spec, train: TrainResult, tracer) -> dict:
    """One ``store.compact(max_chain_len=16)`` on the crashed directory,
    then one verified serial restore (layer-only; traced run)."""
    from repro.storage import RetentionPolicy
    _set_phase(tracer, "compact")
    store = CheckpointStore(LocalDiskBackend(train.directory))
    written_before = store.backend.bytes_written
    start = time.perf_counter()
    report = store.compact(RetentionPolicy(max_chain_len=16))
    seconds = time.perf_counter() - start
    row = restore_once(spec, train, False,
                       (train.live_model, train.live_optimizer),
                       COMPACTED_REL_TOL, tracer, phase="restore_compacted")
    return {
        "seconds": seconds,
        "bytes_rewritten": store.backend.bytes_written - written_before,
        "records_before": report.records_before,
        "records_after": report.records_after,
        "restore": row,
    }
