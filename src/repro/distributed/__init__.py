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

from repro.utils.exports import exports

exports(globals(), {
    ".collectives": "CommStats allreduce_mean allgather broadcast "
                    "reduce_scatter_mean sparse_allreduce",
    ".data": "SyntheticClassification SyntheticImages SyntheticTokens "
             "SyntheticRegression",
    ".worker": "SimWorker",
    ".trainer": "DataParallelTrainer IterationRecord",
    ".pipeline": "PipelineParallelTrainer split_stages",
    ".zero": "ZeroDataParallelTrainer shard_owner",
    ".faults": "FailureDomainTopology FaultKind WorkerCrashed WorkerFault "
               "WorkerFaultInjector",
    ".supervisor": "ClusterSupervisor DegradedInterval DetectionEvent "
                   "RecoveryEvent SupervisedTrainingLoop SupervisorConfig "
                   "SupervisorReport WorkerStatus",
})
