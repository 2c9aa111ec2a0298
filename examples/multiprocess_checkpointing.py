"""Real multi-process checkpointing, like the paper's spawned process.

The training process hands synchronized compressed gradients to a spawned
persist-worker process through a shared-memory ring
(``CheckpointConfig(async_persist=True, persist_mode="process")``); the
worker encodes and writes them to a shared directory, entirely off the
training critical path. A completely fresh store handle then recovers
from that directory — the full production topology of the paper's
design, executed for real.

Run: ``python examples/multiprocess_checkpointing.py``
"""

import tempfile

import numpy as np

from repro import (
    Adam,
    CheckpointConfig,
    CrossEntropyLoss,
    DataParallelTrainer,
    LowDiffCheckpointer,
    MLP,
    Rng,
    SyntheticClassification,
    TopKCompressor,
)
from repro.core.recovery import serial_recover
from repro.storage import CheckpointStore, LocalDiskBackend


def build_trainer():
    return DataParallelTrainer(
        model_builder=lambda rank: MLP(8, [32, 32], 4, rng=Rng(21)),
        optimizer_builder=lambda model: Adam(model, lr=1e-3),
        loss_fn=CrossEntropyLoss(),
        dataset=SyntheticClassification(8, 4, batch_size=8, seed=9),
        num_workers=2,
        compressor_builder=lambda: TopKCompressor(0.1),
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as ckpt_dir:
        # --- Process 1: training; process 2: the persist worker. --------
        trainer = build_trainer()
        checkpointer = LowDiffCheckpointer(
            CheckpointStore(LocalDiskBackend(ckpt_dir)),
            CheckpointConfig(full_every_iters=10, batch_size=1,
                             async_persist=True, persist_mode="process",
                             writer_threads=1))
        checkpointer.attach(trainer)
        records = trainer.run(24)
        # Drains the ring and joins the worker: every submitted record is
        # committed (in submission order) before recovery looks.
        checkpointer.finalize()
        stats = checkpointer.stats()
        print(f"training process: 24 iterations, loss "
              f"{records[0].loss:.3f} -> {records[-1].loss:.3f}; "
              f"{stats['engine']['committed']} records committed by the "
              f"worker process")

        # --- Process 3: recovery from the shared directory. -------------
        store = CheckpointStore(LocalDiskBackend(ckpt_dir))
        print(f"storage: {len(store.fulls())} fulls, "
              f"{len(store.diffs())} diffs on disk")
        model = MLP(8, [32, 32], 4, rng=Rng(0))
        optimizer = Adam(model, lr=1e-3)
        result = serial_recover(store, model, optimizer)
        live = trainer.model_state()
        exact = all(np.array_equal(live[name], model.state_dict()[name])
                    for name in live)
        print(f"recovery process: restored to step {result.step} "
              f"(full@{result.full_step} + {result.diffs_loaded} diffs); "
              f"bit-exact: {exact}")
        assert exact


if __name__ == "__main__":
    main()
