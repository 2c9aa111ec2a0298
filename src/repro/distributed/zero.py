"""ZeRO-1-style optimizer-state sharding (Rajbhandari et al.).

DeepSpeed — the framework LowDiff is implemented on — shards optimizer
state across data-parallel ranks: every rank holds the full parameters
but only ``1/N`` of the Adam moments, applies the update for its shard,
and broadcasts the refreshed parameters.  This trainer reproduces that
execution model so LowDiff can be exercised in its native habitat:

* the synchronized compressed gradient is still produced once per
  iteration (the reusable payload is unchanged — sharding is orthogonal
  to gradient reuse);
* ``optimizer_state()`` *assembles* the sharded moments into the standard
  full state dict, so checkpointing and recovery code is identical to the
  unsharded path (a full checkpoint is still ``3 Psi``).

The trainer reuses the parent :meth:`DataParallelTrainer.step` wholesale
and overrides only the update seam (``_apply_synced_update``), so the
collective gates (fault injection), degraded-world ``active_ranks``
handling and obs tracing all apply to ZeRO steps too.  Ownership is
derived over the *active* ranks and re-partitioned on every
deactivate/reactivate: a dropped owner's shard migrates to a survivor
(its optimizer slots are copied from the dead rank's still-resident
worker — the peer-memory shard handoff), and owned updates run through
``step_with(names=...)`` — the fused allocation-free kernels, not the
per-parameter reference loop.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.distributed.trainer import DataParallelTrainer
from repro.optim.optimizer import Optimizer
from repro.tensor.module import Module
from repro.utils.rng import derive_seed


def shard_owner(name: str, num_shards: int) -> int:
    """Stable parameter→shard assignment (hash of the dotted name)."""
    return derive_seed(0, "zero-shard", name) % num_shards


class ZeroDataParallelTrainer(DataParallelTrainer):
    """Data-parallel training with ZeRO-1 optimizer-state sharding.

    Construction mirrors :class:`DataParallelTrainer`; the
    ``optimizer_builder`` is called once per rank with the rank's model
    and must build the *full* optimizer — this trainer then restricts
    each rank's updates to its owned shard and broadcasts parameters.
    """

    def __init__(self, model_builder: Callable[[int], Module],
                 optimizer_builder: Callable[[Module], Optimizer],
                 loss_fn: Callable, dataset, num_workers: int = 2,
                 compressor_builder=None, comm_stats=None):
        super().__init__(model_builder, optimizer_builder, loss_fn, dataset,
                         num_workers=num_workers,
                         compressor_builder=compressor_builder,
                         comm_stats=comm_stats)
        # Ownership map over the canonical parameter names, derived over
        # the active ranks (all of them at construction).  At full world
        # this reduces to the historical shard_owner(name, num_workers).
        self._owners: dict[str, int] = {}
        self._owned_by: dict[int, list[str]] = {}
        self._repartition_owners()

    def owned_names(self, rank: int) -> list[str]:
        return [name for name, owner in self._owners.items() if owner == rank]

    # Ownership over the active world --------------------------------------
    def _repartition_owners(self) -> None:
        """(Re)derive parameter ownership over the current active ranks.

        On a membership change, a parameter whose owner changed has its
        optimizer slots copied from the previous owner's worker — the
        only replica whose moments for that shard are current.  A
        deactivated rank's worker object stays resident, so its shard
        state is still available for this handoff (the in-memory
        peer-recovery tier); a reactivated rank inherits fresh slots the
        same way from whichever survivor covered its shard meanwhile.
        """
        active = sorted(self.active_ranks)
        new_owners = {
            name: active[shard_owner(name, len(active))]
            for name in self.workers[active[0]].optimizer.param_names
        }
        if self._owners:
            for name, owner in new_owners.items():
                previous = self._owners.get(name, owner)
                if previous == owner:
                    continue
                source = self.workers[previous].optimizer._slots(name)
                target = self.workers[owner].optimizer._slots(name)
                for key, value in source.items():
                    np.copyto(target[key], value)
        self._owners = new_owners
        self._owned_by = {rank: [] for rank in active}
        for name, owner in new_owners.items():
            self._owned_by[owner].append(name)

    def deactivate_worker(self, rank: int) -> None:
        super().deactivate_worker(rank)
        self._repartition_owners()

    def reactivate_worker(self, rank: int, sync_from: int | None = None) -> None:
        super().reactivate_worker(rank, sync_from=sync_from)
        self._repartition_owners()

    # Update phase ------------------------------------------------------------
    def _apply_synced_update(self, active: list[int], update_grads) -> None:
        """ZeRO-1 update: every rank steps only the parameters it owns,
        then refreshed parameters broadcast from owner to the other
        *active* ranks (the ZeRO allgather).

        Owned updates hand the synced payload to ``step_with(names=...)``
        — the same kernels as the unsharded step — and the step counter
        advances exactly once per rank, keeping bias correction aligned
        across shards.
        """
        for rank in active:
            self.workers[rank].optimizer.step_with(
                update_grads, names=self._owned_by[rank])
        broadcast_bytes = 0
        param_maps = {
            rank: dict(self.workers[rank].model.named_parameters())
            for rank in active
        }
        for name, owner in self._owners.items():
            source = param_maps[owner][name]
            for rank in active:
                if rank == owner:
                    continue
                np.copyto(param_maps[rank][name].data, source.data)
            broadcast_bytes += source.nbytes * (len(active) - 1)
        self.comm_stats.record("zero_param_allgather", broadcast_bytes)

    # Checkpoint-facing state -------------------------------------------------
    def optimizer_state(self) -> dict:
        """Assemble the sharded moments into one full optimizer state."""
        assembled = self.workers[self.active_ranks[0]].optimizer.state_dict()
        for name, owner in self._owners.items():
            assembled["slots"][name] = {
                key: value.copy()
                for key, value in self.workers[owner].optimizer._slots(name).items()
            }
        return assembled

    def load_state(self, model_state: dict, optimizer_state: dict,
                   iteration: int) -> None:
        """Restore replicas; every rank loads the full assembled state (its
        non-owned slots are refreshed too, so a later re-partition can
        hand any shard to any rank without a stale-moment hazard)."""
        super().load_state(model_state, optimizer_state, iteration)

    def shard_state_bytes(self, rank: int) -> int:
        """Bytes of optimizer state rank ``rank`` actually owns (~2 Psi / N)."""
        worker = self.workers[rank]
        total = 0
        for name in self.owned_names(rank):
            for array in worker.optimizer._slots(name).values():
                total += array.nbytes
        return total
