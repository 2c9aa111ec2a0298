"""LowDiff: efficient frequent checkpointing via low-cost differentials.

Reproduction of Yao et al., "LowDiff: Efficient Frequent Checkpointing via
Low-Cost Differential for High-Performance Distributed Training Systems"
(SC 2025).

Quick tour
----------
>>> from repro import (
...     MLP, Adam, CrossEntropyLoss, TopKCompressor,
...     DataParallelTrainer, SyntheticClassification,
...     CheckpointStore, InMemoryBackend,
...     LowDiffCheckpointer, CheckpointConfig, Rng,
... )
>>> trainer = DataParallelTrainer(
...     model_builder=lambda rank: MLP(8, [16], 4, rng=Rng(7)),
...     optimizer_builder=lambda model: Adam(model, lr=1e-3),
...     loss_fn=CrossEntropyLoss(),
...     dataset=SyntheticClassification(8, 4, batch_size=4, seed=3),
...     num_workers=2,
...     compressor_builder=lambda: TopKCompressor(0.1),
... )
>>> ckpt = LowDiffCheckpointer(
...     CheckpointStore(InMemoryBackend()),
...     CheckpointConfig(full_every_iters=10, batch_size=2),
... )
>>> ckpt.attach(trainer)
>>> _ = trainer.run(25)
>>> ckpt.finalize()

Subpackages
-----------
``repro.tensor``       NumPy DNN substrate (modules, layers, models)
``repro.optim``        Adam/SGD with replayable state
``repro.compression``  top-k / random-k / threshold / QSGD compressors
``repro.distributed``  simulated data-parallel + pipeline-parallel training
``repro.storage``      checkpoint serialization, backends, store
``repro.core``         LowDiff / LowDiff+ (the paper's contribution)
``repro.baselines``    torch.save / CheckFreq / Gemini / Naive DC
``repro.sim``          performance simulator of the paper's testbed
``repro.harness``      one driver per paper table/figure
"""

from repro.utils.exports import exports

__version__ = "1.0.0"
__all__ = ["__version__"]
exports(globals(), {
    ".utils.rng": "Rng",
    ".tensor.models.mlp": "MLP",
    ".tensor.models.resnet": "MiniResNet",
    ".tensor.models.vgg": "MiniVGG",
    ".tensor.models.transformer": "MiniGPT2 MiniBERT",
    ".tensor.models.registry": "build_mini_model get_profile",
    ".tensor.loss": "CrossEntropyLoss MSELoss",
    ".optim.adam": "Adam",
    ".optim.sgd": "SGD",
    ".compression.topk": "TopKCompressor",
    ".compression.randomk": "RandomKCompressor",
    ".compression.threshold": "ThresholdCompressor",
    ".compression.quantization": "QSGDCompressor",
    ".compression.error_feedback": "ErrorFeedbackCompressor",
    ".compression.base": "IdentityCompressor",
    ".compression.sparse": "SparseGradient",
    ".distributed.trainer": "DataParallelTrainer",
    ".distributed.pipeline": "PipelineParallelTrainer",
    ".distributed.data": "SyntheticClassification SyntheticImages "
                         "SyntheticTokens SyntheticRegression",
    ".storage.checkpoint_store": "CheckpointStore",
    ".storage.backends": "InMemoryBackend LocalDiskBackend ThrottledBackend",
    ".core.lowdiff": "LowDiffCheckpointer",
    ".core.lowdiff_plus": "LowDiffPlusCheckpointer",
    ".core.config": "CheckpointConfig WastedTimeModel optimal_configuration",
    ".core.recovery": "serial_recover parallel_recover",
    ".baselines.full_checkpoint": "FullCheckpointer",
    ".baselines.checkfreq": "CheckFreqCheckpointer",
    ".baselines.gemini": "GeminiCheckpointer",
    ".baselines.naive_dc": "NaiveDCCheckpointer",
})
