"""Pipeline parallelism (GPipe-style) for Sequential models.

The paper's Exp. 1 includes VGG-16 under DeepSpeed pipeline parallelism to
show gradient reuse also works there: gradients are still produced during
the backward sweep, stage by stage, and can be compressed/synchronized/
reused identically.  This engine splits a :class:`Sequential` layer list
into stages, runs a microbatch schedule, accumulates gradients, and
exposes the same synced-gradient hook as the data-parallel trainer.

For per-sample-independent layers (everything in :class:`MiniVGG`),
pipeline execution with ``m`` microbatches is numerically identical to
single-process training on the full batch — pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.compression.base import CompressedGradient, Compressor, DenseGradient
from repro.distributed.trainer import IterationRecord
from repro.optim.optimizer import Optimizer
from repro.tensor.module import Module, Sequential


def split_stages(layers: list[Module], num_stages: int) -> list[list[Module]]:
    """Split a layer list into contiguous stages, balanced by parameter count.

    Greedy: walk layers, cutting when the running parameter share exceeds
    the ideal per-stage share (always leaving enough layers for the
    remaining stages).
    """
    if num_stages <= 0:
        raise ValueError(f"num_stages must be > 0, got {num_stages}")
    if num_stages > len(layers):
        raise ValueError(
            f"cannot split {len(layers)} layers into {num_stages} stages"
        )
    weights = [max(1, sum(p.size for p in layer.parameters())) for layer in layers]
    total = sum(weights)
    stages: list[list[Module]] = []
    start = 0
    for stage in range(num_stages):
        remaining_stages = num_stages - stage
        if remaining_stages == 1:
            stages.append(layers[start:])
            break
        target = total * (stage + 1) / num_stages
        end = start + 1
        running = sum(weights[:end])
        max_end = len(layers) - (remaining_stages - 1)
        while end < max_end and running < target:
            running += weights[end]
            end += 1
        stages.append(layers[start:end])
        start = end
    return stages


@dataclass
class _StageRuntime:
    layers: list[Module]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


class PipelineParallelTrainer:
    """GPipe schedule over a Sequential model with gradient-reuse hooks.

    Notes on fidelity: real pipeline engines keep one stage per device and
    overlap microbatches in time; numerically the GPipe flush (all
    forwards, then all backwards, gradients averaged over microbatches) is
    what we execute.  Because layers cache a single activation set, the
    schedule runs each microbatch's forward+backward per stage sweep in a
    way that preserves exact gradient accumulation.
    """

    def __init__(self, model: Module, optimizer: Optimizer, loss_fn: Callable,
                 dataset, num_stages: int = 2, num_microbatches: int = 2,
                 compressor: Compressor | None = None):
        layers = getattr(model, "layers", None)
        if layers is None and isinstance(model, Sequential):
            layers = model.layers
        if layers is None:
            raise TypeError(
                "PipelineParallelTrainer requires a Sequential-style model "
                "exposing .layers"
            )
        if num_microbatches <= 0:
            raise ValueError(f"num_microbatches must be > 0, got {num_microbatches}")
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.dataset = dataset
        self.num_microbatches = num_microbatches
        self.stages = [_StageRuntime(s) for s in split_stages(layers, num_stages)]
        self.compressor = compressor
        self.iteration = 0
        self._synced_hooks: list[Callable[[int, CompressedGradient], None]] = []
        self._update_hooks: list[Callable[[int], None]] = []

    def register_synced_gradient_hook(self, hook: Callable[[int, CompressedGradient], None]) -> None:
        self._synced_hooks.append(hook)

    def register_post_update_hook(self, hook: Callable[[int], None]) -> None:
        """``hook(iteration)`` after the optimizer step — same contract as
        the data-parallel trainer, so checkpointers attach unchanged (the
        paper's Exp. 1 pipeline arm / future-work combination)."""
        self._update_hooks.append(hook)

    def step(self) -> IterationRecord:
        iteration = self.iteration
        inputs, targets = self.dataset.batch(0, iteration)
        batch = inputs.shape[0]
        if batch % self.num_microbatches:
            raise ValueError(
                f"batch size {batch} not divisible by "
                f"{self.num_microbatches} microbatches"
            )
        micro = batch // self.num_microbatches
        self.model.zero_grad()
        losses = []
        # GPipe flush: per microbatch, forward through all stages then
        # backward through all stages (activations are per-microbatch).
        for mb_index in range(self.num_microbatches):
            lo, hi = mb_index * micro, (mb_index + 1) * micro
            activation = inputs[lo:hi]
            for stage in self.stages:
                activation = stage.forward(activation)
            loss, grad = self.loss_fn(activation, targets[lo:hi])
            losses.append(loss)
            for stage in reversed(self.stages):
                grad = stage.backward(grad)
        # Average accumulated gradients over microbatches.
        scale = 1.0 / self.num_microbatches
        named_grads = {}
        for name, param in self.model.named_parameters():
            if param.requires_grad and param.grad is not None:
                param.grad *= scale
                named_grads[name] = param.grad

        if self.compressor is not None:
            payload: CompressedGradient = self.compressor.compress(named_grads)
            update_grads = payload   # step_with scatters or densifies it
        else:
            payload = DenseGradient(named_grads)
            update_grads = named_grads

        for hook in self._synced_hooks:
            hook(iteration, payload)
        self.optimizer.step_with(update_grads)
        for hook in self._update_hooks:
            hook(iteration)
        self.iteration += 1
        return IterationRecord(
            iteration=iteration,
            loss=float(np.mean(losses)),
            payload=payload,
            comm_bytes=0,
        )

    def run(self, num_iterations: int) -> list[IterationRecord]:
        return [self.step() for _ in range(num_iterations)]

    def model_state(self) -> dict[str, np.ndarray]:
        return self.model.state_dict()

    def optimizer_state(self) -> dict:
        return self.optimizer.state_dict()

    def load_state(self, model_state: dict, optimizer_state: dict, iteration: int) -> None:
        self.model.load_state_dict(model_state)
        self.optimizer.load_state_dict(optimizer_state)
        self.iteration = int(iteration)
