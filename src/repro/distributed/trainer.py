"""Synchronous data-parallel trainer with gradient-reuse hook points.

One ``step()`` is the paper's four-phase iteration (§II-A): forward,
backward, gradient synchronization, model update.  With a compressor the
synchronization path is compress → sparse allreduce, and the *synchronized
compressed gradient* — the exact payload the update consumes — is handed
to every registered ``synced-gradient`` hook, then as is to every
replica's ``optimizer.step_with``.  That payload is what LowDiff enqueues
as a differential checkpoint and recovery hands to the same ``step_with``,
which is why recovery replay is bit-exact.

Without a compressor, layer hooks get the one dense mean layer by layer
after the collective gates (Algorithm 2's stream for LowDiff+); hooks and
optimizers share those arrays and must not mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.compression.base import CompressedGradient, Compressor, DenseGradient
from repro.distributed.collectives import (
    CommStats,
    allreduce_mean,
    sparse_allreduce,
)
from repro.distributed.worker import SimWorker
from repro.obs import OBS
from repro.optim.optimizer import Optimizer
from repro.tensor.module import Module
from repro.utils.rng import Rng


@dataclass
class IterationRecord:
    """What one training step produced."""

    iteration: int
    loss: float
    payload: CompressedGradient | None  # synchronized compressed gradient
    comm_bytes: int


class DataParallelTrainer:
    """Drives ``num_workers`` replicas through synchronous data parallelism.

    Parameters
    ----------
    model_builder / optimizer_builder:
        Callables ``(rank) -> Module`` and ``(model) -> Optimizer``; every
        rank must build bit-identical replicas (verified at construction).
    loss_fn:
        ``(logits, targets) -> (loss, grad_seed)``.
    dataset:
        ``batch(worker, iteration) -> (inputs, targets)``.
    compressor_builder:
        Optional ``() -> Compressor``; one instance per worker (so
        stateful wrappers like error feedback stay rank-local).  ``None``
        trains dense (the LowDiff+ scenario).
    """

    def __init__(self, model_builder: Callable[[int], Module],
                 optimizer_builder: Callable[[Module], Optimizer],
                 loss_fn: Callable, dataset, num_workers: int = 2,
                 compressor_builder: Callable[[], Compressor] | None = None,
                 comm_stats: CommStats | None = None):
        if num_workers <= 0:
            raise ValueError(f"num_workers must be > 0, got {num_workers}")
        self.num_workers = num_workers
        self.comm_stats = comm_stats if comm_stats is not None else CommStats()
        self.workers: list[SimWorker] = []
        self.compressors: list[Compressor] | None = (
            [compressor_builder() for _ in range(num_workers)]
            if compressor_builder is not None
            else None
        )
        for rank in range(num_workers):
            model = model_builder(rank)
            optimizer = optimizer_builder(model)
            self.workers.append(SimWorker(rank, model, optimizer, loss_fn, dataset))
        signatures = {worker.state_signature() for worker in self.workers}
        if len(signatures) != 1:
            raise ValueError(
                "worker replicas differ at initialization; model_builder must "
                "be rank-independent (same seed for every rank)"
            )
        self.iteration = 0
        self._synced_hooks: list[Callable[[int, CompressedGradient], None]] = []
        self._layer_hooks: list[Callable[[int, str, dict], None]] = []
        self._update_hooks: list[Callable[[int], None]] = []
        self._collective_gates: list[Callable[[int], None]] = []
        # Layer order for the layer hooks: modules owning trainable
        # parameters, reversed — a valid reverse topological order.
        model = self.workers[0].model
        model.parameters()  # assigns the dotted parameter names
        layers = ((name, [p.name for p in module._parameters.values()
                          if p.requires_grad])
                  for name, module in reversed(list(model.named_modules())))
        self._layers = [(name, params) for name, params in layers if params]
        # Degraded-world membership (supervisor-driven): every rank starts
        # active and owns exactly its own data shard.  When a rank is
        # deactivated its shard is re-partitioned across the survivors and
        # the allreduce mean rescales to the surviving world size.
        self.active_ranks: list[int] = list(range(num_workers))
        self._shard_map: dict[int, tuple[int, ...]] = {
            rank: (rank,) for rank in range(num_workers)
        }
        self.degraded_steps = 0
        self.resyncs = 0

    # Hook registration -------------------------------------------------------
    def register_synced_gradient_hook(self, hook: Callable[[int, CompressedGradient], None]) -> None:
        """``hook(iteration, payload)`` after gradient synchronization.

        ``payload`` is a :class:`CompressedGradient` (sparse when a
        compressor is configured, dense otherwise); decompressing it yields
        exactly the gradient the model update used.
        """
        self._synced_hooks.append(hook)

    def register_layer_gradient_hook(self, hook: Callable[[int, str, dict], None]) -> None:
        """``hook(iteration, layer_name, {param: grad})`` per layer.

        Fires after the collective gates, in reverse layer order, with
        slices of the synchronized mean — the arrays the update consumes,
        which a hook may keep but must not mutate.  Dense trainers only.
        """
        if self.compressors is not None:
            raise ValueError("layer gradient hooks need a dense trainer: a "
                             "compressed update consumes no dense mean")
        self._layer_hooks.append(hook)

    def register_post_update_hook(self, hook: Callable[[int], None]) -> None:
        """``hook(iteration)`` after every worker applied the update."""
        self._update_hooks.append(hook)

    def register_collective_gate(self, hook: Callable[[int], None]) -> None:
        """``hook(iteration)`` at the entry of the gradient collective.

        This is the collectives-layer fault-injection point: the hook runs
        after every active rank computed its local gradient but before the
        allreduce, exactly where a real NCCL group discovers a dead peer.
        A raising gate aborts the step *before any state mutates* — no
        hook fires, no update is applied, ``self.iteration`` does not
        advance — so the aborted step can simply be re-executed.
        """
        self._collective_gates.append(hook)

    def clear_checkpoint_hooks(self) -> None:
        """Detach a quiesced checkpointer's hooks before attaching its
        replacement (supervised recovery).  A quiesced checkpointer's queue
        is closed — leaving its hooks registered would poison the next
        step.  Collective gates (fault injection) are deliberately kept."""
        self._synced_hooks.clear()
        self._update_hooks.clear()
        self._layer_hooks.clear()

    # Training -----------------------------------------------------------------
    def step(self) -> IterationRecord:
        """Run one synchronous data-parallel iteration.

        Instrumented per phase (forward+backward / compress / allreduce /
        hooks / step) through the obs layer; with observability disabled
        each phase boundary costs one branch.
        """
        iteration = self.iteration
        bytes_before = self.comm_stats.total_bytes
        active = self.active_ranks
        degraded = len(active) != self.num_workers
        if degraded:
            self.degraded_steps += 1
        scale = len(active) / self.num_workers

        obs_on = OBS.enabled
        if obs_on:
            tracer = OBS.tracer
            tracer.begin("iteration", "train", {"iteration": iteration})
            tracer.begin("forward_backward", "train")
        local_grads = [
            self.workers[rank].local_gradients(
                iteration, shards=self._shard_map[rank], scale=scale)
            for rank in active
        ]
        if obs_on:
            tracer.end()
        if self._collective_gates:
            try:
                for gate in self._collective_gates:
                    gate(iteration)
            except BaseException:
                if obs_on:
                    tracer.end()  # close the iteration span before aborting
                raise

        if self.compressors is not None:
            if obs_on:
                tracer.begin("compress", "train")
            payloads = [
                self.compressors[rank].compress(grads)
                for rank, grads in zip(active, local_grads)
            ]
            if obs_on:
                tracer.end()
                tracer.begin("allreduce", "train")
            synced: CompressedGradient = sparse_allreduce(
                payloads, average=True, stats=self.comm_stats
            ) if hasattr(payloads[0], "entries") else self._dense_mean_payload(payloads)
            if obs_on:
                tracer.end()
            update_grads = synced     # the optimizer scatters or densifies it
        else:
            if obs_on:
                tracer.begin("allreduce", "train")
            mean = allreduce_mean(local_grads, stats=self.comm_stats)
            synced = DenseGradient(mean)
            update_grads = mean
            if obs_on:
                tracer.end()

        if obs_on:
            tracer.begin("synced_hooks", "train")
        if self._layer_hooks:
            for layer_name, names in self._layers:
                layer = {name: update_grads[name] for name in names}
                for hook in self._layer_hooks:
                    hook(iteration, layer_name, layer)
        for hook in self._synced_hooks:
            hook(iteration, synced)
        if obs_on:
            tracer.end()
            tracer.begin("step", "train")
        self._apply_synced_update(active, update_grads)
        if obs_on:
            tracer.end()
            tracer.begin("update_hooks", "train")
        for hook in self._update_hooks:
            hook(iteration)
        if obs_on:
            tracer.end()

        self.iteration += 1
        loss = float(np.mean([self.workers[rank].last_loss for rank in active]))
        comm_bytes = self.comm_stats.total_bytes - bytes_before
        if obs_on:
            tracer.end()  # iteration
            registry = OBS.registry
            registry.counter("train.iterations").inc()
            registry.counter("train.comm_bytes").inc(comm_bytes)
        return IterationRecord(
            iteration=iteration,
            loss=loss,
            payload=synced,
            comm_bytes=comm_bytes,
        )

    def _apply_synced_update(self, active: list[int], update_grads) -> None:
        """Apply the synchronized update — dense gradients or the synced
        payload itself, as ``step_with`` takes — to every active replica.

        The single overridable seam of the update phase: subclasses that
        change *how* the update lands (ZeRO's owned-shard step + parameter
        broadcast) override this and inherit the rest of :meth:`step` —
        collective gates, degraded-world membership, hooks, tracing —
        instead of duplicating the step tail.
        """
        for rank in active:
            self.workers[rank].apply_update(update_grads)

    def _dense_mean_payload(self, payloads: list) -> CompressedGradient:
        """Average non-sparse payloads (quantized/dense compressors)."""
        merged = payloads[0]
        for payload in payloads[1:]:
            merged = merged.add(payload)
        return merged.scale(1.0 / len(payloads))

    def run(self, num_iterations: int) -> list[IterationRecord]:
        return [self.step() for _ in range(num_iterations)]

    # State access (canonical replica: lowest active rank) -----------------------
    @property
    def model(self) -> Module:
        return self.workers[self.active_ranks[0]].model

    @property
    def optimizer(self) -> Optimizer:
        return self.workers[self.active_ranks[0]].optimizer

    def model_state(self) -> dict[str, np.ndarray]:
        return self.model.state_dict()

    def optimizer_state(self) -> dict:
        return self.optimizer.state_dict()

    def load_state(self, model_state: dict, optimizer_state: dict,
                   iteration: int) -> None:
        """Restore every replica to a checkpointed state (recovery path)."""
        for worker in self.workers:
            worker.model.load_state_dict(model_state)
            worker.optimizer.load_state_dict(optimizer_state)
        self.iteration = int(iteration)

    def replicas_consistent(self, atol: float = 0.0) -> bool:
        """True iff all *active* replicas hold identical parameters."""
        reference = self.workers[self.active_ranks[0]].model.state_dict()
        for rank in self.active_ranks[1:]:
            state = self.workers[rank].model.state_dict()
            for name, value in reference.items():
                if atol == 0.0:
                    if not np.array_equal(value, state[name]):
                        return False
                elif not np.allclose(value, state[name], atol=atol):
                    return False
        return True

    # Degraded-world membership (driven by the cluster supervisor) -----------
    @property
    def world_size(self) -> int:
        """Number of ranks currently participating in the collective."""
        return len(self.active_ranks)

    @property
    def is_degraded(self) -> bool:
        return len(self.active_ranks) != self.num_workers

    def max_shards_per_worker(self) -> int:
        """Shards on the busiest surviving rank — the degraded-mode step
        time dilation factor (the synchronous group moves at its pace)."""
        return max(len(self._shard_map[rank]) for rank in self.active_ranks)

    def deactivate_worker(self, rank: int) -> None:
        """Drop ``rank`` from the collective: degraded-mode training.

        Its data shard is re-partitioned round-robin across the survivors
        (every shard stays covered — the global batch is unchanged) and
        the allreduce mean rescales to the surviving world size via the
        gradient weighting in :meth:`SimWorker.local_gradients`.
        """
        if rank not in self.active_ranks:
            raise ValueError(f"rank {rank} is not active")
        if len(self.active_ranks) == 1:
            raise RuntimeError("cannot deactivate the last surviving worker")
        self.active_ranks.remove(rank)
        self._rebuild_shard_map()

    def reactivate_worker(self, rank: int, sync_from: int | None = None) -> None:
        """Re-admit a previously deactivated rank.

        Its replica state is re-synced from a healthy rank (elastic
        re-admission: the returning worker missed every degraded-mode
        update), then the shard map is restored.
        """
        if rank in self.active_ranks:
            raise ValueError(f"rank {rank} is already active")
        self.resync_worker(rank, sync_from=sync_from)
        self.active_ranks.append(rank)
        self.active_ranks.sort()
        self._rebuild_shard_map()

    def resync_worker(self, rank: int, sync_from: int | None = None) -> None:
        """Overwrite ``rank``'s replica with a healthy rank's state.

        The peer-memory recovery path: a restarted worker whose replica
        died with it is bit-exactly rebuilt from any surviving replica
        (synchronous data parallelism keeps them identical).
        """
        source_rank = sync_from if sync_from is not None else next(
            r for r in self.active_ranks if r != rank)
        if source_rank == rank:
            raise ValueError("cannot resync a rank from itself")
        source = self.workers[source_rank]
        target = self.workers[rank]
        target.model.load_state_dict(source.model.state_dict())
        target.optimizer.load_state_dict(source.optimizer.state_dict())
        target.last_loss = source.last_loss
        self.resyncs += 1

    def _rebuild_shard_map(self) -> None:
        """Own shard for every active rank; orphaned shards round-robin."""
        active = sorted(self.active_ranks)
        mapping: dict[int, list[int]] = {rank: [rank] for rank in active}
        orphans = [r for r in range(self.num_workers) if r not in mapping]
        for index, orphan in enumerate(orphans):
            mapping[active[index % len(active)]].append(orphan)
        self._shard_map = {rank: (rank,) for rank in range(self.num_workers)}
        for rank in active:
            self._shard_map[rank] = tuple(sorted(mapping[rank]))
