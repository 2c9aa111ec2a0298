"""Model zoo.

Two tiers:

* **Functional miniatures** (:mod:`mlp`, :mod:`resnet`, :mod:`vgg`,
  :mod:`transformer`) — structurally faithful, scaled-down versions of the
  paper's workloads that actually train on this machine; used by the
  examples and the bit-exact recovery tests.
* **Profiles** (:mod:`registry`) — the paper's *real* model metadata
  (parameter counts from Table "Experimental setup", full-checkpoint sizes
  from the storage table, calibrated per-iteration times) consumed by the
  performance simulator.
"""

from repro.utils.exports import exports

exports(globals(), {
    ".mlp": "MLP",
    ".resnet": "MiniResNet BasicBlock",
    ".vgg": "MiniVGG",
    ".transformer": "MiniGPT2 MiniBERT",
    ".registry": "ModelProfile MODEL_PROFILES get_profile build_mini_model "
                 "MINI_BUILDERS",
})
