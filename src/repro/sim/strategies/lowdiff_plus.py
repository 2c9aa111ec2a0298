"""LowDiff+ in the performance model (§V, Algorithm 2).

No compression: every iteration the full dense gradient (Psi) streams to
host memory layer by layer, overlapped with the backward pass; the CPU
replica applies it (off the training critical path as long as the CPU
keeps up); the replica persists every ``persist_every`` iterations,
sharded across nodes.  The visible training cost is the non-overlapped
tail of the layer-wise snapshot plus PCIe interference — the 8-10%
residual the paper reports.
"""

from __future__ import annotations

import math

from repro.sim.strategies.base import CheckpointStrategy, FailureProfile


class LowDiffPlusStrategy(CheckpointStrategy):
    name = "lowdiff+"

    def __init__(self, persist_every: int | None = None,
                 sharded_persist: bool = True):
        super().__init__()
        if persist_every is not None and persist_every < 1:
            raise ValueError(f"persist_every must be >= 1, got {persist_every}")
        self._persist_every_arg = persist_every
        self.sharded_persist = bool(sharded_persist)
        self.persist_every = persist_every or 1

    def bind(self, sim) -> None:
        super().bind(sim)
        if self._persist_every_arg is None:
            # CheckFreq-style cadence: the smallest interval whose persist
            # fully overlaps with training (maximal overlap, no stall).
            self.persist_every = max(1, math.ceil(
                self._persist_time() / sim.baseline_iter_time()
            ))

    def _persist_time(self) -> float:
        workload = self.workload
        size = workload.full_checkpoint_bytes
        if self.sharded_persist:
            size /= workload.cluster.num_nodes
        return workload.persist_time(size)

    def _layerwise_snapshot_tail(self) -> float:
        """Exposed tail of the layer-wise snapshot pipeline.

        Gradients appear in reverse layer order as backward progresses;
        each layer's transfer starts the moment its gradient exists and
        queues FIFO on PCIe.  The exposed time is how long the last
        transfer runs past the end of the backward window — a per-layer
        pipeline computation over the architecture's real size
        distribution (uniform blocks for transformers, front-loaded stems
        for CNNs), not an aggregate bound.
        """
        workload = self.workload
        window = workload.cost.backward_fraction * workload.iter_time
        layer_bytes = workload.layer_sizes_bytes()[::-1]  # reverse order
        total = float(layer_bytes.sum())
        pcie = workload.cluster.pcie_bandwidth
        # Backward time attributed to each layer proportional to its size.
        clock = 0.0       # when the current layer's gradient is ready
        pcie_free = 0.0   # when the PCIe channel frees up
        for nbytes in layer_bytes:
            clock += window * (nbytes / total)
            start = max(clock, pcie_free)
            pcie_free = start + nbytes / pcie
        # Gradient buffers stay valid until the *next* backward overwrites
        # them, so transfers may spill past the backward window into the
        # rest of the iteration (update + next forward) without blocking;
        # only spill beyond a full iteration stalls training.
        return max(0.0, pcie_free - workload.iter_time)

    def after_iteration(self, index: int) -> None:
        workload, sim = self.workload, self.sim
        # Layer-wise snapshot of the dense gradient, pipelined with the
        # backward pass; only the pipeline's tail beyond the backward
        # window plus the DMA interference is exposed.
        grad_bytes = workload.dense_gradient_bytes
        transfer = workload.snapshot_time(grad_bytes)
        window = workload.cost.backward_fraction * workload.iter_time
        exposed = self._layerwise_snapshot_tail()
        interference = workload.cost.pcie_interference * min(transfer, window)
        sim.pcie.schedule(sim.now, transfer, nbytes=grad_bytes)
        sim.stall("layer-snapshot", exposed + interference)
        # CPU replica update: off the critical path; if the CPU cannot keep
        # up with the iteration rate, checkpoint lag grows but training
        # does not stall (tracked on the cpu resource).
        cpu_time = workload.psi / workload.cluster.cpu_update_throughput
        sim.cpu.schedule(sim.now, cpu_time)
        self.count("in_memory")
        # Asynchronous persistence of the CPU replica.
        if (index + 1) % self.persist_every == 0:
            size = workload.full_checkpoint_bytes
            if self.sharded_persist:
                size /= workload.cluster.num_nodes
            sim.ssd.schedule(sim.now, workload.persist_time(size), nbytes=size)
            # Persistence reads the CPU replica only — no GPU involvement,
            # no training stall unless the SSD falls unboundedly behind.
            backlog = sim.ssd.backlog(sim.now)
            budget = 2.0 * self.persist_every * sim.baseline_iter_time()
            if backlog > budget:
                sim.stall("persist-backpressure", backlog - budget)
            self.count("persist")

    # Failure/recovery ----------------------------------------------------------
    def failure_profile(self, kind: str = "hardware") -> FailureProfile:
        workload = self.workload
        if kind == "software":
            # CPU replica survives: restore GPU state over PCIe, zero
            # storage reads — the LowDiff+(S) fast path.
            return FailureProfile(
                lost_iterations=0.5,  # the in-flight iteration
                recovery_time_s=workload.snapshot_time(
                    workload.full_checkpoint_bytes
                ),
            )
        return FailureProfile(
            lost_iterations=self.persist_every,  # interval/2 + persist lag
            recovery_time_s=workload.load_full_time(),
        )

    def storage_bytes_per_iter(self) -> float:
        return self.workload.full_checkpoint_bytes / self.persist_every
