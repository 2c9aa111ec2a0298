"""Side-by-side functional comparison of all five checkpointing methods.

Runs the same miniature workload under torch.save-style full
checkpointing, CheckFreq, Gemini, Naive DC and LowDiff, then reports what
each wrote to storage, how it recovers, and how far the recovered state
sits from the live one — the functional analogue of Exps. 1/5/7.

Run: ``python examples/checkpointer_comparison.py``
"""

import numpy as np

from repro import (
    Adam,
    CheckFreqCheckpointer,
    CheckpointConfig,
    CheckpointStore,
    CrossEntropyLoss,
    DataParallelTrainer,
    FullCheckpointer,
    GeminiCheckpointer,
    InMemoryBackend,
    LowDiffCheckpointer,
    MLP,
    NaiveDCCheckpointer,
    Rng,
    SyntheticClassification,
    TopKCompressor,
)

ITERATIONS = 30


def build_trainer(rho):
    return DataParallelTrainer(
        model_builder=lambda rank: MLP(8, [32, 32], 4, rng=Rng(7)),
        optimizer_builder=lambda model: Adam(model, lr=1e-3),
        loss_fn=CrossEntropyLoss(),
        dataset=SyntheticClassification(8, 4, batch_size=8, seed=3),
        num_workers=2,
        compressor_builder=(lambda: TopKCompressor(rho)) if rho else None,
    )


def drift(live, recovered):
    return max(np.abs(live[k] - recovered[k]).max() for k in live)


def main() -> None:
    arms = [
        # (label, rho, make_checkpointer)
        ("torch.save (every 10)", None,
         lambda s: FullCheckpointer(s, every=10)),
        ("CheckFreq (every 10)", None,
         lambda s: CheckFreqCheckpointer(s, every=10)),
        ("Gemini (mem 1 / disk 10)", None,
         lambda s: GeminiCheckpointer(s, memory_every=1, storage_every=10)),
        ("Naive DC (diff 1 / full 30)", None,
         lambda s: NaiveDCCheckpointer(s, full_every=30, diff_every=1,
                                       rho=0.01)),
        ("LowDiff (diff 1 / full 10)", 0.01,
         lambda s: LowDiffCheckpointer(
             s, CheckpointConfig(full_every_iters=10, batch_size=1))),
    ]
    header = (f"{'method':28s} {'ckpt freq':>10s} {'stored B':>10s} "
              f"{'recovered step':>14s} {'param drift':>12s}")
    print(header)
    print("-" * len(header))
    for label, rho, make_ckpt in arms:
        trainer = build_trainer(rho)
        store = CheckpointStore(InMemoryBackend())
        checkpointer = make_ckpt(store)
        checkpointer.attach(trainer)
        trainer.run(ITERATIONS)
        checkpointer.finalize()
        live = trainer.model_state()

        model = MLP(8, [32, 32], 4, rng=Rng(99))
        optimizer = Adam(model, lr=1e-3)
        result = checkpointer.recover(model, optimizer)
        sizes = store.storage_bytes()
        total = sizes["full"] + sizes["diff"]
        freq = "1 iter" if "diff 1" in label or "mem 1" in label else "10 iters"
        print(f"{label:28s} {freq:>10s} {total:>10,} "
              f"{result.step:>14d} {drift(live, model.state_dict()):>12.2e}")

    print()
    print("Reading the table: LowDiff checkpoints every iteration, stores")
    print("the least, and recovers to the exact live state (drift 0);")
    print("Naive DC stores ~2/3 of a full state per diff and drifts (lossy")
    print("top-k on parameter deltas); the full-state methods are exact but")
    print("can only recover to their last (coarse) checkpoint.")


if __name__ == "__main__":
    main()
