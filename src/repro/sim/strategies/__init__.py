"""Checkpointing strategies for the performance simulator.

One class per evaluated method; each schedules its transfers/writes on the
engine's resources, reports stalls, and exposes a failure profile
(expected lost work + recovery time) for the wasted-time experiments.
"""

import sys

from repro.utils.exports import exports

__all__ = ["make_strategy"]
exports(globals(), {
    ".base": "CheckpointStrategy FailureProfile NoCheckpoint",
    ".full_sync": "FullSyncStrategy",
    ".checkfreq": "CheckFreqStrategy",
    ".gemini": "GeminiStrategy",
    ".naive_dc": "NaiveDCStrategy",
    ".lowdiff": "LowDiffStrategy",
    ".lowdiff_plus": "LowDiffPlusStrategy",
})

_BY_NAME = {
    "none": "NoCheckpoint",
    "w/o ckpt": "NoCheckpoint",
    "torch.save": "FullSyncStrategy",
    "baseline": "FullSyncStrategy",
    "full": "FullSyncStrategy",
    "checkfreq": "CheckFreqStrategy",
    "gemini": "GeminiStrategy",
    "naive_dc": "NaiveDCStrategy",
    "naive dc": "NaiveDCStrategy",
    "lowdiff": "LowDiffStrategy",
    "lowdiff+": "LowDiffPlusStrategy",
    "lowdiff_plus": "LowDiffPlusStrategy",
}


def make_strategy(name: str, **kwargs):
    """Factory by paper display name (used by the experiment harness)."""
    try:
        cls = _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; known: {sorted(_BY_NAME)}") from None
    return getattr(sys.modules[__name__], cls)(**kwargs)
