"""Baseline checkpointing strategies the paper evaluates against.

All four subclass :class:`~repro.core.checkpointer.Checkpointer`, the
``attach`` / end / ``recover`` lifecycle LowDiff and LowDiff+ have, so the
failure drill, the supervisor and the examples swap strategies freely:

* :class:`FullCheckpointer` — ``torch.save``-style periodic full
  checkpoints (the paper's "Baseline");
* :class:`CheckFreqCheckpointer` — decoupled snapshot + pipelined
  asynchronous persist (Mohan et al., FAST'21);
* :class:`GeminiCheckpointer` — per-iteration checkpoints to a CPU-memory
  tier with periodic persistence to storage (Wang et al., SOSP'23);
* :class:`NaiveDCCheckpointer` — Check-N-Run-style differential
  checkpointing computed from state deltas (Eisenman et al., NSDI'22).
"""

from repro.utils.exports import exports

exports(globals(), {
    ".full_checkpoint": "FullCheckpointer",
    ".checkfreq": "CheckFreqCheckpointer",
    ".gemini": "GeminiCheckpointer",
    ".naive_dc": "NaiveDCCheckpointer",
})
