"""LowDiff core: the paper's contribution.

* :mod:`reusing_queue` — FIFO zero-copy gradient handoff from the
  training side to the checkpointing side (§IV-A);
* :mod:`batched_writer` — batched gradient writing with CPU offload (§IV-B);
* :mod:`config` — the wasted-time model Eq. (3), the closed-form optimal
  configuration Eq. (5), and the runtime adaptive tuner (§IV-C, §VI);
* :mod:`differential` — differential-checkpoint payloads, incl. the
  Naïve-DC state-delta used by the Check-N-Run baseline;
* :mod:`recovery` — serial and parallel (log-depth) recovery (§VI);
* :mod:`checkpointer` — the attach / end / recover lifecycle every
  strategy (LowDiff, LowDiff+, the baselines) shares;
* :mod:`lowdiff` — the LowDiff checkpointer (Algorithm 1);
* :mod:`lowdiff_plus` — LowDiff+ (Algorithm 2): layer-wise reuse, CPU
  model replica, asynchronous persistence, software/hardware recovery.
"""

from repro.utils.exports import exports

exports(globals(), {
    ".reusing_queue": "ReusingQueue QueueClosed",
    ".batched_writer": "BatchedGradientWriter",
    ".config": "WastedTimeModel CheckpointConfig optimal_configuration "
               "AdaptiveTuner",
    ".differential": "StateDelta state_delta apply_state_delta",
    ".recovery": "RecoveryResult serial_recover parallel_recover "
                 "merge_tree_depth",
    ".checkpointer": "Checkpointer",
    ".lowdiff": "LowDiffCheckpointer",
    ".lowdiff_plus": "LowDiffPlusCheckpointer CpuReplica",
    ".failure_harness": "FailureDrill FailureDrillReport "
                        "default_lowdiff_factory",
})
