"""A from-scratch NumPy deep-learning substrate.

Provides the pieces of PyTorch that LowDiff actually touches: modules with
named parameters, hand-written forward/backward passes that produce
gradients *layer by layer in reverse order* (the execution property
LowDiff+'s layer-wise reuse exploits), optimizer-ready flat gradient
views, and deterministic initialization.
"""

from repro.tensor.parameter import Parameter
from repro.tensor.module import Module, Sequential
from repro.tensor.layers import (
    Linear,
    Conv2d,
    MaxPool2d,
    AvgPool2d,
    Flatten,
    ReLU,
    GELU,
    Tanh,
    Dropout,
    LayerNorm,
    BatchNorm2d,
    Embedding,
    PositionalEmbedding,
    MultiHeadAttention,
    TransformerBlock,
    Residual,
)
from repro.tensor.loss import (
    CrossEntropyLoss,
    MSELoss,
    softmax,
    log_softmax,
)
from repro.tensor import initializers

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "Flatten",
    "ReLU",
    "GELU",
    "Tanh",
    "Dropout",
    "LayerNorm",
    "BatchNorm2d",
    "Embedding",
    "PositionalEmbedding",
    "MultiHeadAttention",
    "TransformerBlock",
    "Residual",
    "CrossEntropyLoss",
    "MSELoss",
    "softmax",
    "log_softmax",
    "initializers",
]
