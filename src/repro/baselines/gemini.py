"""Gemini (Wang et al., SOSP'23): checkpointing to CPU memory.

Gemini raises checkpoint frequency by writing snapshots to the CPU memory
of peer machines (fast tier) and letting a slower path persist to durable
storage.  Failures that leave the memory tier intact recover from memory;
losing the machine falls back to the storage tier — the same two-tier
split LowDiff+ later exploits with its CPU replica.
"""

from __future__ import annotations

from repro.core.checkpointer import Checkpointer
from repro.core.recovery import RecoveryResult, serial_recover
from repro.obs import OBS
from repro.optim.optimizer import Optimizer
from repro.storage.backends import InMemoryBackend
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.serializer import CorruptCheckpointError
from repro.tensor.module import Module

#: Memory-tier conditions the two-tier ladder degrades past: an empty or
#: wiped tier (no fulls), a corrupt one (every candidate fails its CRC),
#: or records whose blobs vanished with a lost peer.
_MEMORY_TIER_FAILURES = (CorruptCheckpointError, FileNotFoundError, KeyError)


class GeminiCheckpointer(Checkpointer):
    """Snapshot to a memory tier every ``memory_every`` iterations, persist
    to the durable store every ``storage_every``.

    The memory tier keeps the newest ``MEMORY_FULLS`` snapshots (Gemini
    keeps a small ring of recent snapshots — memory is the scarce
    resource).
    """

    MEMORY_FULLS = 2

    def __init__(self, store: CheckpointStore, memory_every: int = 1,
                 storage_every: int = 50):
        if memory_every < 1 or storage_every < 1:
            raise ValueError("checkpoint intervals must be >= 1")
        self.store = store
        self.memory_tier = CheckpointStore(InMemoryBackend())
        self.memory_every = int(memory_every)
        self.storage_every = int(storage_every)
        self.memory_checkpoints = 0
        self.storage_checkpoints = 0
        self.memory_tier_losses = 0
        self.recoveries_by_tier = {"memory": 0, "storage": 0}

    def _save_base(self, step, model_state, optimizer_state) -> None:
        """Both tiers get a base at the (resumed) step."""
        self.store.save_full(step, model_state, optimizer_state)
        self.memory_tier.save_full(step, model_state, optimizer_state)
        self.storage_checkpoints += 1
        self.memory_checkpoints += 1

    def _on_post_update(self, iteration: int) -> None:
        step = iteration + 1
        if step % self.memory_every == 0:
            # Traffic-scheduled in the real system; numerically a full copy
            # into the memory tier.
            self.memory_tier.save_full(
                step, self._trainer.model_state(), self._trainer.optimizer_state()
            )
            self.memory_checkpoints += 1
            self.memory_tier.gc(keep_fulls=self.MEMORY_FULLS)
        if step % self.storage_every == 0:
            self.store.save_full(
                step, self._trainer.model_state(), self._trainer.optimizer_state()
            )
            self.storage_checkpoints += 1

    # Two-tier recovery ----------------------------------------------------
    def recover_memory(self, model: Module, optimizer: Optimizer) -> RecoveryResult:
        """Machine survived: restore from the CPU-memory tier."""
        return serial_recover(self.memory_tier, model, optimizer)

    def recover_storage(self, model: Module, optimizer: Optimizer) -> RecoveryResult:
        """Machine lost: restore from durable storage."""
        return serial_recover(self.store, model, optimizer)

    def recover(self, model: Module, optimizer: Optimizer,
                parallel: bool = False) -> RecoveryResult:
        """Restore from the cheapest *valid* tier: memory, then storage.

        The memory tier is tried first (it holds the freshest snapshots)
        but an empty, corrupt, or correlated-loss-wiped tier falls back
        to durable storage instead of failing the recovery outright.
        ``stats()["last_recovery_tier"]`` records which tier served.
        """
        try:
            result = self.recover_memory(model, optimizer)
        except _MEMORY_TIER_FAILURES:
            result = self.recover_storage(model, optimizer)
            tier = "storage"
        else:
            tier = "memory"
        self.last_recovery_tier = tier
        self.recoveries_by_tier[tier] += 1
        if OBS.enabled:
            OBS.registry.counter(f"ckpt.gemini.recover.{tier}").inc()
        return result

    def lose_memory_tier(self) -> None:
        """Correlated peer failure: every replica holder died, taking the
        CPU-memory tier with them.  The tier is replaced by an empty one
        (the durable store is untouched), so the next ``recover`` falls
        back to storage."""
        self.memory_tier = CheckpointStore(InMemoryBackend())
        self.memory_tier_losses += 1
        if OBS.enabled:
            OBS.registry.counter("ckpt.gemini.memory_tier_losses").inc()

    def stats(self) -> dict:
        return {
            "memory_checkpoints": self.memory_checkpoints,
            "storage_checkpoints": self.storage_checkpoints,
            "memory_bytes": self.memory_tier.storage_bytes(),
            "storage_bytes": self.store.storage_bytes(),
            "memory_tier_losses": self.memory_tier_losses,
            "last_recovery_tier": self.last_recovery_tier,
            "recoveries_by_tier": dict(self.recoveries_by_tier),
        }
