"""The four benchmark workloads.

Every workload runs the same train -> crash -> restore -> verify cycle
through the same public API and reports the same end-to-end metrics; they
differ only in which layer of the persistence stack does the work.  The
``why`` strings are the record of why each exists (they are also the
``why`` of ``BENCHMARK.json``).

All workloads: MLP 64 -> hidden -> 10, two data-parallel workers, top-k
sparsification, batching size 1 (so serial recovery must be bit-exact),
``SyntheticClassification`` batches of 16.  The workload seed drives model
initialisation and data; the crash step is fixed per workload because one
iteration more or less moves ``disk_bytes_per_iter`` by ~0.4 %, on top of
the ~1 % the seed already moves it (top-k overlap between the workers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import (
    Adam,
    CheckpointConfig,
    CrossEntropyLoss,
    DataParallelTrainer,
    MLP,
    Rng,
    SyntheticClassification,
    TopKCompressor,
)
from repro.optim import SGD

IN_FEATURES = 64
NUM_CLASSES = 10
BATCH = 16
NUM_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    hidden: tuple[int, ...]
    rho: float
    optimizer: str            # "adam" | "sgd"
    config: CheckpointConfig  # the persist path under test
    iterations: int           # timed trainer.step() calls per cycle (crash step)
    restores: int             # serial restores per cycle (and as many parallel)
    tail_percentile: float    # iter_tail_ms percentile, supported by a full run
    compaction: bool = False  # traced run ends with one compact() + restore
    cores: int | None = None  # pin the run to this many cores (None: all)

    def quick(self) -> "Workload":
        """Small sizes for ``--selftest``; artifacts carry ``quick: true``."""
        iterations = 3 * 8 - 1
        fcf = self.config.full_every_iters
        if fcf <= self.iterations:  # an attach-time-full-only shape stays one
            fcf = 8
        return replace(
            self,
            hidden=tuple(min(width, 128) for width in self.hidden),
            config=replace(self.config, full_every_iters=fcf, ring_mb=8.0),
            iterations=iterations,
            restores=2,
        )

    # Builders ---------------------------------------------------------------
    def model(self, seed: int) -> MLP:
        return MLP(IN_FEATURES, list(self.hidden), NUM_CLASSES, rng=Rng(seed))

    def make_optimizer(self, model):
        if self.optimizer == "adam":
            return Adam(model, lr=1e-3)
        return SGD(model, lr=1e-2)

    def trainer(self, seed: int) -> DataParallelTrainer:
        return DataParallelTrainer(
            model_builder=lambda rank: self.model(seed),
            optimizer_builder=self.make_optimizer,
            loss_fn=CrossEntropyLoss(),
            dataset=SyntheticClassification(IN_FEATURES, NUM_CLASSES,
                                            batch_size=BATCH, seed=seed + 1),
            num_workers=NUM_WORKERS,
            compressor_builder=lambda: TopKCompressor(self.rho),
        )

    def restore_config(self) -> CheckpointConfig:
        """What a restarted job opens the directory with: same chain shape,
        no persistence engine (recovery needs none)."""
        return CheckpointConfig(
            full_every_iters=self.config.full_every_iters, batch_size=1,
            shards=self.config.shards)

    def params(self) -> dict:
        config = self.config
        return {
            "model": f"MLP {IN_FEATURES}->{list(self.hidden)}->{NUM_CLASSES}",
            "workers": NUM_WORKERS, "batch": BATCH, "rho": self.rho,
            "optimizer": self.optimizer,
            "full_every_iters": config.full_every_iters,
            "batch_size": config.batch_size,
            "persist": ("inline" if not config.async_persist
                        else config.persist_mode),
            "writer_threads": config.writer_threads,
            "queue_depth": config.queue_depth,
            "codec": config.codec, "shards": config.shards,
            "iterations_per_cycle": self.iterations,
            "restores_per_cycle": {"serial": self.restores,
                                   "parallel": self.restores},
            "tail_percentile": self.tail_percentile,
            "cores": self.cores,
        }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="small_sync",
        why="15 KB diffs persisted inline: per-record fixed cost (two fsyncs, "
            "manifest rewrite, pack overhead) is the whole stall; codec and "
            "engines idle; runs on one core",
        hidden=(256, 256), rho=0.01, optimizer="adam",
        config=CheckpointConfig(full_every_iters=50, batch_size=1),
        iterations=149, restores=3, tail_percentile=99.0,
        # Nothing here needs a second core but the recovery pool, whose
        # 17 KB tasks cost less than a cross-core thread wake-up -- and that
        # costs 12 us or 50-70 us on this host depending on its recent
        # two-core load, a state that outlasts runs: restore_parallel_s read
        # 30 ms or 46-55 ms for whole sets of the same commit.  On one core
        # it reads 30 ms in both states; no other metric moves.
        cores=1,
    ),
    Workload(
        name="large_codec_thread",
        why="MB-sized records through the thread engine with the lossless "
            "codec: time goes to encode, pack and GIL/core contention, and "
            "to decode on restore; fixed per-record cost is noise",
        hidden=(1024, 1024, 1024), rho=0.05, optimizer="adam",
        config=CheckpointConfig(full_every_iters=16, batch_size=1,
                                async_persist=True, writer_threads=2,
                                queue_depth=8, codec="lossless"),
        iterations=111, restores=5, tail_percentile=90.0,
    ),
    Workload(
        name="large_sharded_process",
        why="same bytes as large_codec_thread but two shards on two worker "
            "processes, no codec: work moves to ring copy, cross-process "
            "turnaround, shard slicing, drain and sharded recovery",
        hidden=(1024, 1024, 1024), rho=0.05, optimizer="sgd",
        config=CheckpointConfig(full_every_iters=16, batch_size=1,
                                async_persist=True, persist_mode="process",
                                shards=2, writer_threads=1),
        iterations=111, restores=6, tail_percentile=90.0,
    ),
    Workload(
        name="long_chain_restore",
        why="one full then a 128-diff chain restored 20+20 times: drives the "
            "storage layers in the read direction (read, CRC, decode, merge "
            "tree, optimizer apply) so a write-side gain that costs reads "
            "shows",
        hidden=(512, 512), rho=0.05, optimizer="sgd",
        config=CheckpointConfig(full_every_iters=1_000_000, batch_size=1,
                                codec="lossless"),
        iterations=128, restores=20, tail_percentile=90.0, compaction=True,
    ),
)}
