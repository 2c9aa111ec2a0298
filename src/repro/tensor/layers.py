"""Neural-network layers with hand-written forward/backward passes.

Every layer caches exactly the activations its backward needs (views where
possible, copies only when the value is mutated later), computes its own
parameter gradients during ``backward``, and then fires the module's
gradient-ready hooks — giving downstream consumers per-layer gradients in
reverse layer order, exactly as DeepSpeed/DDP expose them.

Shapes follow PyTorch conventions: images are ``(B, C, H, W)``, token
batches are ``(B, T)`` ints into an :class:`Embedding`, hidden states are
``(B, T, D)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.tensor import initializers as init
from repro.tensor.module import Module
from repro.tensor.parameter import Parameter
from repro.utils.rng import Rng

__all__ = [
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
]


class Linear(Module):
    """Affine map ``y = x @ W + b`` over the last axis.

    Accepts any number of leading batch axes; ``(B, T, D_in)`` inputs work
    unchanged, which the transformer blocks rely on.
    """

    def __init__(self, in_features: int, out_features: int, rng: Rng | None = None,
                 bias: bool = True):
        super().__init__()
        rng = rng or Rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, (in_features, out_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.weight.data
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._x
        flat_x = x.reshape(-1, self.in_features)
        flat_g = grad_output.reshape(-1, self.out_features)
        self.weight.accumulate_grad(flat_x.T @ flat_g)
        if self.bias is not None:
            self.bias.accumulate_grad(flat_g.sum(axis=0))
        grad_input = grad_output @ self.weight.data.T
        return grad_input


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Unfold ``(B, C, H, W)`` into ``(B, C*kh*kw, OH*OW)`` patch columns."""
    batch, channels, height, width = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (height + 2 * pad - kh) // stride + 1
    out_w = (width + 2 * pad - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]  # (B, C, OH, OW, kh, kw)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
        batch, channels * kh * kw, out_h * out_w
    )
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, pad: int):
    """Fold patch-column gradients back to image gradients (adjoint of im2col)."""
    batch, channels, height, width = x_shape
    out_h = (height + 2 * pad - kh) // stride + 1
    out_w = (width + 2 * pad - kw) // stride + 1
    padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


class Conv2d(Module):
    """2-D convolution via im2col + matmul (cache-friendly, vectorized)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, rng: Rng | None = None,
                 bias: bool = True):
        super().__init__()
        rng = rng or Rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal(rng, (out_channels, in_channels, kernel_size, kernel_size))
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        cols, out_h, out_w = _im2col(x, k, k, self.stride, self.padding)
        self._cols = cols
        self._x_shape = x.shape
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = np.einsum("of,bfp->bop", w_mat, cols, optimize=True)
        if self.bias is not None:
            out += self.bias.data[None, :, None]
        return out.reshape(x.shape[0], self.out_channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        batch = grad_output.shape[0]
        grad_mat = grad_output.reshape(batch, self.out_channels, -1)
        grad_w = np.einsum("bop,bfp->of", grad_mat, self._cols, optimize=True)
        self.weight.accumulate_grad(grad_w.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate_grad(grad_mat.sum(axis=(0, 2)))
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = np.einsum("of,bop->bfp", w_mat, grad_mat, optimize=True)
        grad_input = _col2im(grad_cols, self._x_shape, k, k, self.stride, self.padding)
        return grad_input


class MaxPool2d(Module):
    """Max pooling with ``stride == kernel_size`` (the VGG configuration)."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size
        self._mask: np.ndarray | None = None
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        batch, channels, height, width = x.shape
        if height % k or width % k:
            raise ValueError(
                f"MaxPool2d requires H and W divisible by {k}, got {x.shape}"
            )
        blocks = x.reshape(batch, channels, height // k, k, width // k, k)
        blocks = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(
            batch, channels, height // k, width // k, k * k
        )
        out = blocks.max(axis=-1)
        self._mask = blocks == out[..., None]
        self._x_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        batch, channels, height, width = self._x_shape
        # Route gradient to the (first) argmax in each window.
        mask = self._mask
        first = np.cumsum(mask, axis=-1) == 1
        mask = mask & first
        grads = mask * grad_output[..., None]
        grads = grads.reshape(batch, channels, height // k, width // k, k, k)
        grads = grads.transpose(0, 1, 2, 4, 3, 5).reshape(batch, channels, height, width)
        return grads


class AvgPool2d(Module):
    """Average pooling; ``kernel_size=None`` means global average pooling."""

    def __init__(self, kernel_size: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        if self.kernel_size is None:
            return x.mean(axis=(2, 3), keepdims=True)
        k = self.kernel_size
        batch, channels, height, width = x.shape
        blocks = x.reshape(batch, channels, height // k, k, width // k, k)
        return blocks.mean(axis=(3, 5))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        batch, channels, height, width = self._x_shape
        if self.kernel_size is None:
            scale = 1.0 / (height * width)
            return np.broadcast_to(
                grad_output * scale, self._x_shape
            ).copy()
        k = self.kernel_size
        expanded = np.repeat(np.repeat(grad_output, k, axis=2), k, axis=3)
        return expanded / (k * k)


class Flatten(Module):
    """Flatten all axes after the batch axis."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._x_shape)


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._mask


_GELU_C = math.sqrt(2.0 / math.pi)


class GELU(Module):
    """GELU with the tanh approximation (GPT-2's activation)."""

    def __init__(self) -> None:
        super().__init__()
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        inner = _GELU_C * (x + 0.044715 * x**3)
        return 0.5 * x * (1.0 + np.tanh(inner))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._x
        inner = _GELU_C * (x + 0.044715 * x**3)
        tanh_inner = np.tanh(inner)
        sech2 = 1.0 - tanh_inner**2
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
        grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
        return grad_output * grad


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._y**2)


class Dropout(Module):
    """Inverted dropout; identity when ``p == 0``, in eval mode, or without RNG."""

    def __init__(self, p: float = 0.0, rng: Rng | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.p == 0.0 or not self.training or self.rng is None:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))
        self._x_hat: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._x_hat = x_hat
        self._inv_std = inv_std
        return x_hat * self.gamma.data + self.beta.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._x_hat, self._inv_std
        axes = tuple(range(grad_output.ndim - 1))
        self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=axes))
        self.beta.accumulate_grad(grad_output.sum(axis=axes))
        g = grad_output * self.gamma.data
        mean_g = g.mean(axis=-1, keepdims=True)
        mean_gx = (g * x_hat).mean(axis=-1, keepdims=True)
        grad_input = (g - mean_g - x_hat * mean_gx) * inv_std
        return grad_input


class BatchNorm2d(Module):
    """Batch normalization over ``(B, H, W)`` per channel.

    ``track_running_stats`` defaults to ``False``: LowDiff's differential
    reconstruction replays *optimizer* updates, and running statistics
    mutate outside the optimizer.  Models used in bit-exact recovery tests
    therefore use batch statistics only (the paper's models share the same
    caveat silently).  Enable tracking for inference-style use.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1,
                 track_running_stats: bool = False):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.track_running_stats = track_running_stats
        self.gamma = Parameter(init.ones((channels,)))
        self.beta = Parameter(init.zeros((channels,)))
        if track_running_stats:
            self.running_mean = Parameter(init.zeros((channels,)), requires_grad=False)
            self.running_var = Parameter(init.ones((channels,)), requires_grad=False)
        self._x_hat: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None
        self._count: int = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training or not self.track_running_stats:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            if self.track_running_stats:
                self.running_mean.data *= 1.0 - self.momentum
                self.running_mean.data += self.momentum * mean
                self.running_var.data *= 1.0 - self.momentum
                self.running_var.data += self.momentum * var
        else:
            mean = self.running_mean.data
            var = self.running_var.data
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._x_hat = x_hat
        self._inv_std = inv_std
        self._count = x.shape[0] * x.shape[2] * x.shape[3]
        return x_hat * self.gamma.data[None, :, None, None] + self.beta.data[None, :, None, None]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._x_hat, self._inv_std
        self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate_grad(grad_output.sum(axis=(0, 2, 3)))
        g = grad_output * self.gamma.data[None, :, None, None]
        mean_g = g.mean(axis=(0, 2, 3), keepdims=True)
        mean_gx = (g * x_hat).mean(axis=(0, 2, 3), keepdims=True)
        grad_input = (g - mean_g - x_hat * mean_gx) * inv_std[None, :, None, None]
        return grad_input


class Embedding(Module):
    """Token embedding lookup: ``(B, T)`` int ids -> ``(B, T, D)``."""

    def __init__(self, vocab_size: int, dim: int, rng: Rng | None = None):
        super().__init__()
        rng = rng or Rng(0)
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = Parameter(init.normal(rng, (vocab_size, dim), std=0.02))
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.dtype.kind not in "iu":
            raise TypeError(f"Embedding expects integer ids, got dtype {ids.dtype}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexError("token id out of range")
        self._ids = ids
        return self.weight.data[ids]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_w = np.zeros_like(self.weight.data)
        np.add.at(grad_w, self._ids.reshape(-1), grad_output.reshape(-1, self.dim))
        self.weight.accumulate_grad(grad_w)
        return np.zeros(self._ids.shape + (0,))  # no meaningful input gradient


class PositionalEmbedding(Module):
    """Learned positional embedding added to ``(B, T, D)`` hidden states."""

    def __init__(self, max_len: int, dim: int, rng: Rng | None = None):
        super().__init__()
        rng = rng or Rng(0)
        self.max_len = max_len
        self.dim = dim
        self.weight = Parameter(init.normal(rng, (max_len, dim), std=0.02))
        self._seq_len: int = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        seq_len = x.shape[1]
        if seq_len > self.max_len:
            raise ValueError(f"sequence length {seq_len} exceeds max_len {self.max_len}")
        self._seq_len = seq_len
        return x + self.weight.data[None, :seq_len]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_w = np.zeros_like(self.weight.data)
        grad_w[: self._seq_len] = grad_output.sum(axis=0)
        self.weight.accumulate_grad(grad_w)
        return grad_output


def _softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class MultiHeadAttention(Module):
    """Multi-head self-attention with optional causal masking (GPT-2/BERT)."""

    def __init__(self, dim: int, num_heads: int, causal: bool = False,
                 rng: Rng | None = None):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or Rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        self.w_qkv = Linear(dim, 3 * dim, rng=rng.child("qkv"))
        self.w_out = Linear(dim, dim, rng=rng.child("out"))
        self._cache: dict | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, heads, seq, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        qkv = self.w_qkv.forward(x)
        q, k, v = np.split(qkv, 3, axis=-1)
        q, k, v = self._split_heads(q), self._split_heads(k), self._split_heads(v)
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = np.einsum("bhqd,bhkd->bhqk", q, k, optimize=True) * scale
        if self.causal:
            seq = x.shape[1]
            mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
            scores = np.where(mask, -1e30, scores)
        attn = _softmax_last(scores)
        context = np.einsum("bhqk,bhkd->bhqd", attn, v, optimize=True)
        merged = self._merge_heads(context)
        out = self.w_out.forward(merged)
        self._cache = {"q": q, "k": k, "v": v, "attn": attn, "scale": scale}
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        cache = self._cache
        q, k, v, attn, scale = (
            cache["q"], cache["k"], cache["v"], cache["attn"], cache["scale"]
        )
        grad_merged = self.w_out.backward(grad_output)
        grad_context = self._split_heads(grad_merged)
        grad_attn = np.einsum("bhqd,bhkd->bhqk", grad_context, v, optimize=True)
        grad_v = np.einsum("bhqk,bhqd->bhkd", attn, grad_context, optimize=True)
        # Softmax backward on the last axis.
        dot = (grad_attn * attn).sum(axis=-1, keepdims=True)
        grad_scores = (grad_attn - dot) * attn
        grad_scores *= scale
        grad_q = np.einsum("bhqk,bhkd->bhqd", grad_scores, k, optimize=True)
        grad_k = np.einsum("bhqk,bhqd->bhkd", grad_scores, q, optimize=True)
        grad_qkv = np.concatenate(
            [self._merge_heads(grad_q), self._merge_heads(grad_k), self._merge_heads(grad_v)],
            axis=-1,
        )
        return self.w_qkv.backward(grad_qkv)


class TransformerBlock(Module):
    """Pre-LN transformer block: ``x + MHA(LN(x))`` then ``x + MLP(LN(x))``."""

    def __init__(self, dim: int, num_heads: int, mlp_ratio: int = 4,
                 causal: bool = False, rng: Rng | None = None):
        super().__init__()
        rng = rng or Rng(0)
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, causal=causal, rng=rng.child("attn"))
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, mlp_ratio * dim, rng=rng.child("fc1"))
        self.act = GELU()
        self.fc2 = Linear(mlp_ratio * dim, dim, rng=rng.child("fc2"))

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.attn.forward(self.ln1.forward(x))
        x = x + self.fc2.forward(self.act.forward(self.fc1.forward(self.ln2.forward(x))))
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_mlp = self.ln2.backward(
            self.fc1.backward(self.act.backward(self.fc2.backward(grad_output)))
        )
        grad_output = grad_output + grad_mlp
        grad_attn = self.ln1.backward(self.attn.backward(grad_output))
        return grad_output + grad_attn


class Residual(Module):
    """Residual wrapper: ``y = x + inner(x)`` with matching backward."""

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.inner.forward(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output + self.inner.backward(grad_output)
