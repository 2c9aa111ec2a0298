"""Optimizers with replayable state.

LowDiff's recovery path replays checkpointed (compressed) gradients through
the optimizer, so optimizers here expose both the usual ``step()`` over
``Parameter.grad`` and ``step_with(named_grads)`` for external gradients
(dense, or the compressed payload itself), plus full
``state_dict``/``load_state_dict`` round-tripping — the ingredients of the
bit-exact recovery invariant.
"""

from repro.utils.exports import exports

exports(globals(), {
    ".optimizer": "Optimizer",
    ".sgd": "SGD",
    ".adam": "Adam",
})
