"""Gradient compression (paper §II-C).

Sparsification (top-k / random-k / threshold) and quantization (uniform /
QSGD) over named gradient dicts, plus the sparse container algebra
(union-add, scale) that gradient synchronization, batched differential
writing, and recovery all build on.
"""

from repro.utils.exports import exports

exports(globals(), {
    ".base": "Compressor IdentityCompressor CompressedGradient DenseGradient",
    ".sparse": "SparseGradient",
    ".topk": "TopKCompressor",
    ".randomk": "RandomKCompressor",
    ".threshold": "ThresholdCompressor",
    ".quantization": "QuantizedGradient UniformQuantizer QSGDCompressor",
    ".error_feedback": "ErrorFeedbackCompressor",
})
