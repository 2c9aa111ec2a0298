"""What a persisted record, a restore and a live step cost, as counts.

The paper prices a record as a fixed cost plus bytes over bandwidth; this
file pins the fixed part, never a timing (those are ``bench/run.py``'s
``stall_ms_per_iter`` and ``restore_*_s``).  ``COSTS`` is the one table:
each cell runs one tiny seeded cycle, once per test run, and its counts
must equal its row, so a change that moves a cost changes a row.  Counts taken
under :class:`~tests.helpers.CallCounts` are the calling thread's; index
bytes, fsyncs, pools, threads and the spied calls are the process's.
"""

import functools
import json
import os
import subprocess
import sys
import tempfile
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

import repro
from repro.compression import SparseGradient, TopKCompressor
from repro.compression.sparse import DenseScratch
from repro.core import CheckpointConfig, LowDiffCheckpointer, recovery
from repro.distributed import collectives
from repro.optim import SGD, Adam, Optimizer
from repro.storage import CheckpointStore, InMemoryBackend, LocalDiskBackend
from repro.storage import ShardedCheckpointStore, open_persist_engine
from repro.storage import async_engine, checkpoint_store
from repro.storage import payload_codec, serializer
from repro.storage.backends import total_bytes
from repro.storage.checkpoint_store import MANIFEST_KEY, encode_record_tree
from repro.tensor.models import MLP
from repro.utils.pool import POOL
from repro.utils.rng import Rng
from tests.helpers import BoundLowDiffPlus, CallCounts, fresh_model_opt
from tests.helpers import assert_optimizers_equal, assert_states_equal
from tests.helpers import make_mlp_trainer, populate_store, tree_merge

COLUMNS = {
    # The last diff of a full and one-step diffs up to step 1024 (16
    # records unless the key says), drained: Python calls above the
    # backend, index bytes, json and zlib calls, fsyncs, ndarray copies;
    # threads started over the cycle, engine included; and the full's
    # handoff: copies (``copy``, ``np.copyto``), record trees encoded in
    # this process, and encoded arrays that are not the one handed over
    # or a view of it.
    "persist": ("calls", "index", "dumps", "loads", "crc32", "compress",
                "fsync", "copy", "tobytes", "concatenate", "threads",
                "full_copies", "encodes", "foreign"),
    # ``CheckpointStore.decode_diff`` of that diff.
    "decode": ("calls", "decompress", "copy", "tobytes", "concatenate"),
    # Six one-step diffs of an MLP(128, [512], 10) (2 * BLOCK elements and
    # more; odd steps' indices shuffled) past a coded full at 0, the fulls
    # at 2 and 4 corrupt: ``step_with`` calls, fused-kernel calls and
    # those on a pool thread, ``subtract.at``/``add.at``, calls into the
    # dense reference paths (``_update_param``, ``DenseScratch``,
    # ``decompress_into``), the optimizer's scratch arrays, the calling
    # thread's sorts and the elements they sort, ``SparseGradient.add``,
    # merges and the fold's most node buffers, pools built, tensor decodes
    # on a pool thread, calls on a pool thread that saw a pool published,
    # ``zlib.decompress``, fulls skipped, and whether the restored state
    # is bit-equal to its reference: the live run for a serial replay, one
    # apply of the chain's balanced pairwise ``add`` for a merge-tree one.
    "restore": ("step_with", "fused", "fused_pooled", "at", "reference",
                "scratch", "sorts", "sorted", "adds", "merges", "buffers",
                "pools", "decodes_pooled", "nested", "decompress", "skipped",
                "exact"),
    # A trainer's second step (``make_mlp_trainer``'s six tensors, or
    # under LowDiff an Adam MLP whose update a published pool would split):
    # copies, means; threads started over its first three steps (a full and
    # diffs under LowDiff); each optimizer's scratch arrays.
    "step": ("copy", "array", "astype", "allreduce_mean", "threads",
             "scratch"),
    # Opening a store's index (its snapshot as committed, or re-encoded by
    # hand), or committing a snapshot.
    "index": ("dumps", "loads", "bodies", "rebuilt"),
    # A job in a fresh interpreter: the ``repro.*`` modules loaded once
    # ``attach()`` returned (a restart: once ``recover()`` did), without
    # the ``repro.`` prefix; whether ``multiprocessing`` is loaded; and the
    # modules its next three steps, ``finalize()`` and ``recover()`` load
    # (a restart: its next, parallel, ``recover()``).
    "imports": ("modules", "multiprocessing", "later"),
}

COSTS = {
    # executor, shards, codec[, records]
    ("persist", "inline", 1, "none"):       (74, 143, 2, 0, 7, 0, 2, 0, 0, 0, 0, 0, 1, 0),
    ("persist", "inline", 1, "none", 1024): (74, 143, 2, 0, 7, 0, 2, 0, 0, 0, 0, 0, 1, 0),
    ("persist", "inline", 1, "lossless"):   (217, 153, 2, 0, 7, 2, 2, 1, 0, 0, 0, 1, 1, 0),
    ("persist", "inline", 2, "none"):       (185, 288, 4, 0, 14, 0, 4, 0, 0, 0, 0, 0, 2, 0),
    ("persist", "inline", 2, "lossless"):   (433, 310, 4, 0, 14, 4, 4, 2, 0, 0, 0, 2, 2, 0),
    ("persist", "thread", 1, "none"):       (13, 143, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 1, 0),
    ("persist", "thread", 1, "lossless"):   (13, 153, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 1, 0),
    ("persist", "thread", 2, "none"):       (44, 288, 0, 0, 0, 0, 4, 0, 0, 0, 2, 0, 2, 0),
    ("persist", "thread", 2, "lossless"):   (44, 310, 0, 0, 0, 0, 4, 0, 0, 0, 2, 0, 2, 0),
    ("persist", "process", 1, "none"):      (78, 143, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0),
    ("persist", "process", 2, "none"):      (174, 288, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0),
    # codec
    ("decode", "lossless"):                 (108, 2, 0, 0, 0),
    # recovery, optimizer, usable CPUs
    ("restore", "serial", "sgd", 1):        (6, 0, 0, 24, 0, 0, 12, 106767, 0, 0, 0, 0, 0, 0, 30, 2, True),
    ("restore", "serial", "sgd", 2):        (6, 0, 0, 24, 0, 0, 12, 106767, 0, 0, 0, 1, 3, 0, 30, 2, True),
    ("restore", "serial", "momentum", 1):   (2, 8, 0, 30, 0, 2, 12, 53385, 0, 0, 0, 0, 0, 0, 27, 2, True),
    ("restore", "serial", "momentum", 2):   (2, 8, 2, 18, 0, 4, 12, 53385, 0, 0, 0, 1, 6, 0, 27, 2, True),
    ("restore", "serial", "adam", 1):       (2, 8, 0, 30, 0, 2, 12, 53385, 0, 0, 0, 0, 0, 0, 30, 2, True),
    ("restore", "serial", "adam", 2):       (2, 8, 2, 18, 0, 4, 12, 53385, 0, 0, 0, 1, 9, 0, 30, 2, True),
    ("restore", "parallel", "sgd", 1):      (1, 4, 0, 0, 0, 2, 12, 106767, 0, 5, 2, 0, 0, 0, 30, 2, True),
    ("restore", "parallel", "sgd", 2):      (1, 4, 1, 0, 0, 4, 0, 0, 0, 5, 2, 1, 27, 0, 30, 2, True),
    ("restore", "parallel", "adam", 1):     (1, 4, 0, 0, 0, 2, 12, 53385, 0, 5, 2, 0, 0, 0, 30, 2, True),
    ("restore", "parallel", "adam", 2):     (1, 4, 1, 0, 0, 4, 0, 0, 0, 5, 2, 1, 27, 0, 30, 2, True),
    # trainer
    ("step", "dense"):                      (0, 0, 12, 1, 0, 2),
    ("step", "compressed"):                 (18, 0, 40, 0, 0, 2),
    ("step", "lowdiff_plus"):               (0, 0, 12, 1, 0, 2),
    ("step", "lowdiff"):                    (24, 0, 30, 0, 0, 2),
    ("index", "open"):                      (0, 1, 0, False),
    ("index", "open_reencoded"):            (1, 1, 1, False),
    ("index", "snapshot"):                  (1, 0, 1, False),
    # executor, shards, codec; or a restart that opens and recovers
    ("imports", "inline", 1, "none"): (
        "compression compression.base compression.quantization "
        "compression.sparse compression.topk core core.batched_writer "
        "core.checkpointer core.config core.differential core.lowdiff "
        "core.recovery core.reusing_queue distributed distributed.collectives "
        "distributed.data distributed.trainer distributed.worker obs "
        "obs.metrics obs.trace optim optim.adam optim.optimizer storage "
        "storage.backends storage.checkpoint_store storage.payload_codec "
        "storage.serializer storage.sharded tensor tensor.initializers "
        "tensor.layers tensor.loss tensor.models tensor.models.mlp "
        "tensor.module tensor.parameter utils utils.exports utils.pool "
        "utils.rng utils.validation",
        False, ""),
    ("imports", "thread", 1, "lossless"): (
        "compression compression.base compression.quantization "
        "compression.sparse compression.topk core core.batched_writer "
        "core.checkpointer core.config core.differential core.lowdiff "
        "core.recovery core.reusing_queue distributed distributed.collectives "
        "distributed.data distributed.trainer distributed.worker obs "
        "obs.metrics obs.trace optim optim.adam optim.optimizer storage "
        "storage.async_engine storage.backends storage.checkpoint_store "
        "storage.payload_codec storage.persist_engine storage.serializer "
        "storage.sharded tensor tensor.initializers tensor.layers tensor.loss "
        "tensor.models tensor.models.mlp tensor.module tensor.parameter utils "
        "utils.exports utils.pool utils.rng utils.validation",
        False, ""),
    ("imports", "process", 2, "none"): (
        "compression compression.base compression.quantization "
        "compression.sparse compression.topk core core.batched_writer "
        "core.checkpointer core.config core.differential core.lowdiff "
        "core.recovery core.reusing_queue distributed distributed.collectives "
        "distributed.data distributed.trainer distributed.worker obs "
        "obs.flight obs.metrics obs.trace optim optim.adam optim.optimizer "
        "storage storage.backends storage.checkpoint_store storage.mp_engine "
        "storage.payload_codec storage.persist_engine storage.serializer "
        "storage.sharded tensor tensor.initializers tensor.layers tensor.loss "
        "tensor.models tensor.models.mlp tensor.module tensor.parameter utils "
        "utils.exports utils.pool utils.rng utils.validation",
        True, ""),
    ("imports", "restart"): (
        "compression compression.base compression.quantization "
        "compression.sparse compression.topk core core.batched_writer "
        "core.checkpointer core.config core.differential core.lowdiff "
        "core.recovery core.reusing_queue obs obs.metrics obs.trace optim "
        "optim.adam optim.optimizer storage storage.backends "
        "storage.checkpoint_store storage.payload_codec storage.serializer "
        "storage.sharded tensor tensor.initializers tensor.layers "
        "tensor.models tensor.models.mlp tensor.module tensor.parameter utils "
        "utils.exports utils.pool utils.rng utils.validation",
        False, ""),
}


class Tally(LocalDiskBackend):
    """Counts the index bytes it is handed; its own I/O makes no call the
    calling thread's profile sees."""

    index = 0

    def _write(self, key, parts):
        self.index += total_bytes(parts) if "manifest" in key else 0
        quiet(super()._write, key, parts)

    def _append(self, key, data):
        self.index += len(data)
        quiet(super()._append, key, data)


def quiet(io, *args):
    profile = sys.getprofile()
    sys.setprofile(None)
    try:
        io(*args)
    finally:
        sys.setprofile(profile)


def starts(started):
    """Appends each thread started in the block to ``started``, but for
    ``multiprocessing``'s queue feeders (when those start is timing)."""
    start = threading.Thread.start

    def counted(thread):
        if not getattr(thread._target, "__module__", "").startswith(
                "multiprocessing"):
            started.append(thread.name)
        start(thread)
    return mock.patch.object(threading.Thread, "start", counted)


def diff_payload():
    """A 128 x 128 tensor's top 10 %: the codec deflates a plane of each
    of its two arrays."""
    return TopKCompressor(0.1).compress({"w": Rng(1).normal(size=(128, 128))})


def arrays(tree):
    if isinstance(tree, np.ndarray):
        yield tree
    for value in tree.values() if isinstance(tree, dict) else ():
        yield from arrays(value)


def persist(executor, shards, codec, records=16):
    codec = {"none": None}.get(codec, codec)
    payload, handed = diff_payload(), np.zeros((128, 128))
    started, encoded = [], []

    def spied(codec_, tree):
        encoded.append(tree)
        return encode_record_tree(codec_, tree)

    with tempfile.TemporaryDirectory() as root, starts(started):
        backend = Tally(root)
        store = CheckpointStore(backend, codec=codec) if shards == 1 \
            else ShardedCheckpointStore(backend, shards, codec=codec)
        writer = store if executor == "inline" else open_persist_engine(
            store, executor, writer_threads=1, ring_mb=4.0)
        drain = getattr(writer, "drain", lambda: None)
        try:
            with mock.patch.object(np, "copyto", wraps=np.copyto) as copyto, \
                    mock.patch.object(async_engine, "encode_record_tree",
                                      spied), \
                    mock.patch.object(checkpoint_store, "encode_record_tree",
                                      spied):
                with CallCounts() as full:
                    writer.save_full(1025 - records, {"w": handed}, {
                        "type": "sgd", "step_count": 0, "slots": {}})
                drain()
            for step in range(1026 - records, 1024):
                writer.save_diff(step, step, payload)
            drain()
            index = backend.index
            with mock.patch.object(os, "fsync", wraps=os.fsync) as fsync, \
                    mock.patch.object(np, "concatenate",
                                      wraps=np.concatenate) as concatenate:
                with CallCounts() as counts:
                    writer.save_diff(1024, 1024, payload)
                drain()
        finally:
            if writer is not store:
                writer.finalize()
        assert store.diffs_after(1025 - records)[-1].end == 1024
        for part in store.part_stores:      # every blob carries its CRCs
            for record in part.fulls() + part.diffs():
                data = part.backend.read(record.key)
                assert zlib.crc32(data) == record.crc
                serializer.unpack_tree(data, verify=True)
    return (sum(counts.python.values()), backend.index - index,
            counts.calls(json.dumps), counts.calls(json.loads),
            counts.builtin[zlib.crc32], counts.builtin[zlib.compress],
            fsync.call_count, counts.builtin_named("copy"),
            counts.builtin_named("tobytes"), concatenate.call_count,
            len(started), full.builtin_named("copy") + copyto.call_count,
            len(encoded), sum(leaf is not handed and leaf.base is not handed
                              for tree in encoded for leaf in arrays(tree)))


def decode(codec):
    store = CheckpointStore(InMemoryBackend(), codec=codec)
    record = store.save_diff(1, 1, diff_payload())
    data = store.read_raw(record)
    with mock.patch.object(np, "concatenate", wraps=np.concatenate) \
            as concatenate, CallCounts() as counts:
        payload = CheckpointStore.decode_diff(record, data)
    assert [array.tobytes() for array in payload.entries["w"]] \
        == [array.tobytes() for array in diff_payload().entries["w"]]
    return (sum(counts.python.values()), counts.builtin[zlib.decompress],
            counts.builtin_named("copy"), counts.builtin_named("tobytes"),
            concatenate.call_count)


OPTIMIZERS = {"sgd": (SGD, {}, 0.5), "adam": (Adam, {}, 0.25),
              "momentum": (SGD, {"momentum": 0.9}, 0.25)}
SORTS = {"sort", "argsort"}   # what np.sort, np.unique and np.argsort call


def restore(recover, optimizer, cpus):
    cls, kwargs, rho = OPTIMIZERS[optimizer]
    model = MLP(128, [512], 10, rng=Rng(0))
    live = cls(model, lr=1e-2, **kwargs)
    store = CheckpointStore(InMemoryBackend(), codec="lossless")
    store.save_full(0, model.state_dict(), live.state_dict())
    rng, shuffle, payloads = Rng(1), np.random.default_rng(0), []
    for step in range(1, 7):
        payload = TopKCompressor(rho).compress({
            name: rng.child("g", step, name).normal(size=p.shape)
            for name, p in model.named_parameters()})
        if step % 2:
            payload = SparseGradient({
                name: (indices[order], values[order])
                for name, (indices, values) in payload.entries.items()
                for order in [shuffle.permutation(indices.size)]},
                payload.shapes)
        live.step_with(payload)
        store.save_diff(step, step, payload)
        payloads.append(payload)
        if step in (2, 4):
            store.save_full(step, model.state_dict(), live.state_dict())
    for view in store.fulls()[1:]:
        raw = bytearray(store.backend.read(view.key))
        raw[len(raw) // 2] ^= 0xFF
        store.backend.write(view.key, bytes(raw))
    restored = MLP(128, [512], 10, rng=Rng(2))
    restored_opt = cls(restored, lr=1e-2, **kwargs)
    seen, inflated, buffers = [], [], [0]

    def spy(function, calls, then=lambda result: result):
        def spied(*args):
            calls.append((function.__name__, threading.current_thread()
                          .name.startswith("ThreadPoolExecutor"),
                          POOL.get() is not None))
            return then(function(*args))
        return spied

    with mock.patch.object(os, "sched_getaffinity",
                           lambda pid: set(range(cpus)), create=True), \
            mock.patch.object(recovery, "ThreadPoolExecutor",
                              wraps=ThreadPoolExecutor) as pools, \
            mock.patch.object(zlib, "decompress",
                              spy(zlib.decompress, inflated)), \
            mock.patch.object(payload_codec, "decode_array",
                              spy(payload_codec.decode_array, seen)), \
            mock.patch.object(cls, "_update_param_fused",
                              spy(cls._update_param_fused, seen)), \
            mock.patch.object(recovery, "fold_segment", spy(
                recovery.fold_segment, [],
                lambda fold: buffers.append(fold.buffers) or fold)), \
            CallCounts() as counts:
        result = getattr(recovery, f"{recover}_recover")(
            store, restored, restored_opt)
    sorts = [(function, count) for function, count in counts.builtin.items()
             if getattr(function, "__name__", None) in SORTS]
    if recover == "parallel":   # one apply of the balanced pairwise sum
        model = MLP(128, [512], 10, rng=Rng(0))
        live = cls(model, lr=1e-2, **kwargs)
        live.step_with(tree_merge(payloads))
        live.step_count += len(payloads) - 1
    exact = True
    try:
        assert_states_equal(restored.state_dict(), model.state_dict())
        assert_optimizers_equal(restored_opt.state_dict(), live.state_dict())
    except AssertionError:
        exact = False
    fused = [pooled for name, pooled, _ in seen if name != "decode_array"]
    return (counts.calls(Optimizer.step_with), len(fused), sum(fused),
            counts.builtin_named("at"),
            counts.calls(cls._update_param) + counts.calls(
                DenseScratch.__init__) + counts.calls(
                SparseGradient.decompress_into),
            len(restored_opt._scratch or ()),
            sum(count for _, count in sorts),
            sum(count * function.__self__.size for function, count in sorts
                if isinstance(function.__self__, np.ndarray)),
            counts.calls(SparseGradient.add), result.merge_ops, max(buffers),
            pools.call_count,
            sum(pooled for name, pooled, _ in seen if name == "decode_array"),
            sum(pooled and published for _, pooled, published in seen),
            len(inflated), result.corrupt_fulls_skipped, exact)


def step(kind):
    if kind == "lowdiff":
        trainer = make_mlp_trainer(seed=0, dims=(128, [512], 10))
        checkpointer = LowDiffCheckpointer(
            CheckpointStore(InMemoryBackend()),
            CheckpointConfig(full_every_iters=2, batch_size=1))
    else:
        trainer = make_mlp_trainer(rho=0.1 if kind == "compressed" else None)
        checkpointer = BoundLowDiffPlus(CheckpointStore(InMemoryBackend()),
                                        persist_every=100)
    if kind in ("lowdiff", "lowdiff_plus"):
        checkpointer.attach(trainer)
    started = []
    with starts(started):
        trainer.step()
        with CallCounts() as counts:
            trainer.step()
        trainer.step()
    if kind in ("lowdiff", "lowdiff_plus"):
        checkpointer.finalize()
    scratch, = {len(worker.optimizer._scratch) for worker in trainer.workers}
    return (counts.builtin_named("copy"), counts.builtin_named("array"),
            counts.builtin_named("astype"),
            counts.calls(collectives.allreduce_mean), len(started), scratch)


SRC = os.path.dirname(os.path.dirname(repro.__file__))
JOB = """
import sys, tempfile
from repro import (Adam, CheckpointConfig, CheckpointStore, LocalDiskBackend,
                   LowDiffCheckpointer, MLP, Rng)

def loaded():
    return {name for name in sys.modules if name.startswith("repro.")}

if __name__ == "__main__":
    root, executor, shards, codec = sys.argv[1:]
    checkpointer = LowDiffCheckpointer(
        CheckpointStore(LocalDiskBackend(root)), CheckpointConfig(
            full_every_iters=2, batch_size=1, shards=int(shards),
            codec=None if codec == "none" else codec,
            async_persist=executor in ("thread", "process"),
            persist_mode="process" if executor == "process" else "thread",
            writer_threads=1, ring_mb=1.0))
    model = MLP(8, [16], 4, rng=Rng(1))
    if executor == "restart":
        checkpointer.recover(model, Adam(model))
        first = loaded()
        checkpointer.recover(model, Adam(model), parallel=True)
    else:
        from repro import (CrossEntropyLoss, DataParallelTrainer,
                           SyntheticClassification, TopKCompressor)
        trainer = DataParallelTrainer(
            model_builder=lambda rank: MLP(8, [16], 4, rng=Rng(0)),
            optimizer_builder=lambda model: Adam(model),
            loss_fn=CrossEntropyLoss(),
            dataset=SyntheticClassification(8, 4, batch_size=4, seed=1),
            num_workers=2, compressor_builder=lambda: TopKCompressor(0.5))
        checkpointer.attach(trainer)
        first = loaded()
        for _ in range(3):
            trainer.step()
        checkpointer.finalize()
        checkpointer.recover(model, Adam(model))
    print(" ".join(sorted(name[6:] for name in first)))
    print("multiprocessing" in sys.modules)
    print(" ".join(sorted(name[6:] for name in loaded() - first)))
"""


def imports(executor, shards=1, codec="none"):
    """``JOB`` in a fresh interpreter; a restart first has an inline job
    of its shape write the store it recovers."""
    def job(executor):
        return subprocess.run(
            [sys.executable, "-c", JOB, root, executor, str(shards), codec],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC}).stdout.split("\n")

    with tempfile.TemporaryDirectory() as root:
        if executor == "restart":
            job("inline")
        modules, multiprocessing, later = job(executor)[:3]
    return modules, multiprocessing == "True", later


def index(kind):
    store = CheckpointStore(InMemoryBackend())
    model, optimizer = fresh_model_opt()
    populate_store(store, model, optimizer, Rng(0), steps=4)
    store.save_full(4, model.state_dict(), optimizer.state_dict())
    if kind == "open_reencoded":
        manifest = json.loads(store.backend.read(MANIFEST_KEY))
        store.backend.write(MANIFEST_KEY, json.dumps(
            manifest, separators=(",", ":"), sort_keys=True).encode())
    with CallCounts() as counts:
        if kind == "snapshot":
            store._commit_manifest()
        else:
            CheckpointStore(store.backend)
    reopened = CheckpointStore(store.backend)
    assert (reopened.diffs(), reopened.fulls()) \
        == (store.diffs(), store.fulls())
    return (counts.calls(json.dumps), counts.calls(json.loads),
            counts.calls(CheckpointStore._manifest_body),
            reopened.manifest_rebuilt)


@functools.cache
def measure(cell):
    cycles = {"persist": persist, "decode": decode, "restore": restore,
              "step": step, "index": index, "imports": imports}
    return cycles[cell[0]](*cell[1:])


def check(cell):
    """``cell``'s counts equal its row (its cycle runs once per test run)."""
    columns = COLUMNS[cell[0]]
    assert dict(zip(columns, measure(cell))) == dict(zip(columns, COSTS[cell]))


@pytest.mark.parametrize("cell", [
    pytest.param(cell, marks=pytest.mark.shm) if "process" in cell else cell
    for cell in COSTS], ids=lambda cell: "-".join(map(str, cell)))
def test_cell(cell):
    check(cell)
