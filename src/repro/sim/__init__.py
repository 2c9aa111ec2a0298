"""Performance simulator: reproduces the paper's timing experiments.

The functional layer (repro.core, repro.distributed) proves *semantics* at
miniature scale; this package models *time* at the paper's real scale — a
cluster of A100/V100S servers (NVLink, PCIe Gen3/4, 25 Gbps IB, local
SSDs) training the real-size workloads of the registry.

Structure:

* :mod:`cluster`  — hardware constants and calibrated cost model;
* :mod:`engine`   — resource timelines + per-iteration training simulation;
* :mod:`workload` — model-profile-derived sizes and per-phase durations;
* :mod:`strategies` — one checkpointing strategy per evaluated method;
* :mod:`failures` — failure injection (fixed/exponential MTBF);
* :mod:`metrics`  — wasted time, effective training time ratio, recovery.
"""

from repro.utils.exports import exports

exports(globals(), {
    ".cluster": "ClusterSpec CostModel A100_CLUSTER V100_CLUSTER",
    ".workload": "Workload",
    ".engine": "Resource TrainingSim SimResult",
    ".report": "summarize",
    ".failures": "FailureEvent FailureSchedule StorageFaultModel "
                 "SupervisorModel worker_failure_schedule fixed_mtbf_schedule "
                 "exponential_mtbf_schedule",
    ".metrics": "wasted_time effective_training_ratio FailureRunMetrics "
                "run_with_failures",
    ".strategies": "CheckpointStrategy NoCheckpoint FullSyncStrategy "
                   "CheckFreqStrategy GeminiStrategy NaiveDCStrategy "
                   "LowDiffStrategy LowDiffPlusStrategy make_strategy",
})
