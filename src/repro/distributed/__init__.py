"""Distributed-training substrate (simulated, numerically exact).

``N`` workers hold real model replicas and train data-parallel: local
backward, gradient compression, collective synchronization, identical
updates.  Communication is in-process (numerically exact, zero-copy);
*timing* of communication belongs to :mod:`repro.sim`.

The trainer exposes the two hook points LowDiff consumes:

* ``on_synced_gradient`` — fires once per iteration with the synchronized
  compressed gradient (the payload LowDiff reuses as a differential
  checkpoint);
* ``on_layer_gradient`` — fires per layer after the collective, in
  reverse layer order, with the synchronized mean (LowDiff+'s stream).
"""

from repro.distributed.collectives import (
    CommStats,
    allreduce_mean,
    allgather,
    broadcast,
    reduce_scatter_mean,
    sparse_allreduce,
)
from repro.distributed.data import (
    SyntheticClassification,
    SyntheticImages,
    SyntheticTokens,
    SyntheticRegression,
)
from repro.distributed.worker import SimWorker
from repro.distributed.trainer import DataParallelTrainer, IterationRecord
from repro.distributed.pipeline import PipelineParallelTrainer, split_stages
from repro.distributed.zero import ZeroDataParallelTrainer, shard_owner
from repro.distributed.faults import (
    FailureDomainTopology,
    FaultKind,
    WorkerCrashed,
    WorkerFault,
    WorkerFaultInjector,
)
from repro.distributed.supervisor import (
    ClusterSupervisor,
    DegradedInterval,
    DetectionEvent,
    RecoveryEvent,
    SupervisedTrainingLoop,
    SupervisorConfig,
    SupervisorReport,
    WorkerStatus,
)

__all__ = [
    "CommStats",
    "allreduce_mean",
    "allgather",
    "broadcast",
    "reduce_scatter_mean",
    "sparse_allreduce",
    "SyntheticClassification",
    "SyntheticImages",
    "SyntheticTokens",
    "SyntheticRegression",
    "SimWorker",
    "DataParallelTrainer",
    "IterationRecord",
    "PipelineParallelTrainer",
    "split_stages",
    "ZeroDataParallelTrainer",
    "shard_owner",
    "FailureDomainTopology",
    "FaultKind",
    "WorkerCrashed",
    "WorkerFault",
    "WorkerFaultInjector",
    "ClusterSupervisor",
    "DegradedInterval",
    "DetectionEvent",
    "RecoveryEvent",
    "SupervisedTrainingLoop",
    "SupervisorConfig",
    "SupervisorReport",
    "WorkerStatus",
]
