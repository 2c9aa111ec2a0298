"""LowDiff core: the paper's contribution.

* :mod:`reusing_queue` — FIFO zero-copy gradient handoff between the
  training and checkpointing processes (§IV-A);
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

from repro.core.reusing_queue import ReusingQueue, QueueClosed
from repro.core.batched_writer import BatchedGradientWriter
from repro.core.config import (
    WastedTimeModel,
    CheckpointConfig,
    optimal_configuration,
    AdaptiveTuner,
)
from repro.core.differential import StateDelta, state_delta, apply_state_delta
from repro.core.recovery import (
    RecoveryResult,
    serial_recover,
    parallel_recover,
    merge_tree_depth,
)
from repro.core.checkpointer import Checkpointer
from repro.core.lowdiff import LowDiffCheckpointer
from repro.core.lowdiff_plus import LowDiffPlusCheckpointer, CpuReplica
from repro.core.failure_harness import FailureDrill, FailureDrillReport, default_lowdiff_factory

__all__ = [
    "ReusingQueue",
    "QueueClosed",
    "BatchedGradientWriter",
    "WastedTimeModel",
    "CheckpointConfig",
    "optimal_configuration",
    "AdaptiveTuner",
    "StateDelta",
    "state_delta",
    "apply_state_delta",
    "RecoveryResult",
    "serial_recover",
    "parallel_recover",
    "merge_tree_depth",
    "Checkpointer",
    "LowDiffCheckpointer",
    "LowDiffPlusCheckpointer",
    "CpuReplica",
    "FailureDrill",
    "FailureDrillReport",
    "default_lowdiff_factory",
]
