"""A from-scratch NumPy deep-learning substrate.

Provides the pieces of PyTorch that LowDiff actually touches: modules with
named parameters, hand-written forward/backward passes that produce
gradients *layer by layer in reverse order* (the execution property
LowDiff+'s layer-wise reuse exploits), optimizer-ready flat gradient
views, and deterministic initialization.
"""

from repro.utils.exports import exports

exports(globals(), {
    ".parameter": "Parameter",
    ".module": "Module Sequential",
    ".layers": "Linear Conv2d MaxPool2d AvgPool2d Flatten ReLU GELU Tanh "
               "Dropout LayerNorm BatchNorm2d Embedding PositionalEmbedding "
               "MultiHeadAttention TransformerBlock Residual",
    ".loss": "CrossEntropyLoss MSELoss softmax log_softmax",
    ".": "initializers",
})
