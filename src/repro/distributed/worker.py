"""A single data-parallel worker: model replica + optimizer + data shard."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.optim.optimizer import Optimizer
from repro.tensor.module import Module


class SimWorker:
    """One rank of the simulated data-parallel group.

    Parameters
    ----------
    rank:
        Worker index; selects this worker's shard of every batch.
    model / optimizer:
        The replica this rank owns.  All ranks must construct replicas from
        the same seed (checked by the trainer).
    loss_fn:
        Callable ``(logits, targets) -> (loss, grad)``.
    dataset:
        Object with ``batch(worker, iteration) -> (inputs, targets)``.
    """

    def __init__(self, rank: int, model: Module, optimizer: Optimizer,
                 loss_fn: Callable, dataset):
        self.rank = rank
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.dataset = dataset
        self.last_loss: float = float("nan")

    def local_gradients(self, iteration: int,
                        shards: tuple[int, ...] | None = None,
                        scale: float = 1.0) -> dict[str, np.ndarray]:
        """Forward+backward on this rank's batch; returns named gradients.

        Gradient-ready hooks registered on the model fire during this call,
        layer by layer in reverse order.

        ``shards`` lists the data shards this rank covers this step —
        normally just its own rank, but a worker in a degraded group also
        takes over shards orphaned by lost peers: gradients are the *sum*
        over the owned shards, multiplied by ``scale`` (the trainer passes
        ``len(active)/num_shards`` so the cross-worker mean reproduces the
        full-batch global mean).  The single-shard unscaled case takes the
        exact historical code path, bit for bit.
        """
        if shards is None:
            shards = (self.rank,)
        if len(shards) == 1 and scale == 1.0:
            inputs, targets = self.dataset.batch(shards[0], iteration)
            self.model.zero_grad()
            logits = self.model.forward(inputs)
            self.last_loss, grad_seed = self.loss_fn(logits, targets)
            self.model.backward(grad_seed)
            return {
                name: param.grad
                for name, param in self.model.named_parameters()
                if param.requires_grad
            }
        total: dict[str, np.ndarray] | None = None
        losses = []
        for shard in shards:
            inputs, targets = self.dataset.batch(shard, iteration)
            self.model.zero_grad()
            logits = self.model.forward(inputs)
            loss, grad_seed = self.loss_fn(logits, targets)
            losses.append(loss)
            self.model.backward(grad_seed)
            if total is None:
                total = {
                    name: param.grad.copy()
                    for name, param in self.model.named_parameters()
                    if param.requires_grad
                }
            else:
                for name, param in self.model.named_parameters():
                    if param.requires_grad:
                        total[name] += param.grad
        for name in total:
            total[name] *= scale
        self.last_loss = float(np.mean(losses))
        return total

    def apply_update(self, named_grads) -> None:
        """Advance model + optimizer state with the synchronized gradient
        (dense, or the synced payload itself)."""
        self.optimizer.step_with(named_grads)

    def state_signature(self) -> float:
        """Cheap fingerprint of the model state (replica-consistency checks)."""
        total = 0.0
        for _, param in self.model.named_parameters():
            total += float(np.abs(param.data).sum())
        return total
