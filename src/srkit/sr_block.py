"""Squeeze-and-Remember block: a learnable feature-memory unit for CNNs.

The block operates in three steps on an (n, c, h, w) feature map:

  squeeze   1x1 convolution down to a single channel,
  remember  two-layer FCN on the flattened squeeze map emits softmax
            weights over ``p`` learnable memory blocks,
  add       the convex combination of memory blocks (the recall map) is
            added back onto the input, residual style.

Memory blocks start zero-filled, so a freshly initialized block is an
exact identity; training writes features into the memory bank and the FCN
learns which blocks to recall for a given input. Ablating a trained block
(zeroing its memory) turns it back into an identity.

All layers are bias-free so that the parameter count is exactly
``c + h*w*u + u*p + p*c*h*w``.

The passes that stream whole (n, c, h, w) maps (the squeeze, the recall,
the residual adds, the memory and gate gradients and the squeeze's
``grad_x``) each fill one preallocated buffer in blocks fixed by the
shape, run on the ``ops`` worker pool, with the bits of the unsplit
products and sums (the gate gradient splits only the rows of its gemm).
The squeeze weight gradient stays one gemv: OpenBLAS's sgemv takes rows
in groups of 4, so channel blocks not starting at a multiple of 4 changed
the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigError, UsageError
from .tensor import AXIS_NAMES, check_axis, check_nchw, check_shape

HIDDEN_WIDTH_GRID = (8, 16, 32)
MEMORY_COUNT_RANGE = (2, 20)


@dataclass(frozen=True)
class SRConfig:
    """Shape and hyperparameters of one SR block.

    ``c``/``h``/``w`` are the extents of the feature map at the insertion
    point, ``u`` the FCN hidden width, and ``p`` the number of memory
    blocks. The validated grid is u in {8, 16, 32} and p in [2, 20]; set
    ``allow_off_grid`` to work outside it (e.g. micro gradcheck configs).

    ``hidden_relu`` optionally rectifies the FCN hidden layer; the default
    keeps the first layer purely linear.
    """

    c: int
    h: int
    w: int
    u: int = 8
    p: int = 4
    hidden_relu: bool = False
    allow_off_grid: bool = False

    def validate(self) -> "SRConfig":
        for name in ("c", "h", "w", "u", "p"):
            if getattr(self, name) < 1:
                raise ConfigError(f"sr.{name} must be >= 1, got {getattr(self, name)}")
        if not self.allow_off_grid:
            if self.u not in HIDDEN_WIDTH_GRID:
                raise ConfigError(
                    f"sr.u={self.u} outside the tested grid {HIDDEN_WIDTH_GRID}; "
                    "set sr.allow_off_grid to override"
                )
            lo, hi = MEMORY_COUNT_RANGE
            if not lo <= self.p <= hi:
                raise ConfigError(
                    f"sr.p={self.p} outside the tested range [{lo}, {hi}]; "
                    "set sr.allow_off_grid to override"
                )
        return self


@dataclass
class SRParams:
    """Learned state of one SR block.

    squeeze_w : (c,) weights of the 1x1 squeeze convolution
    fc1_w     : (u, h*w) first FCN layer
    fc2_w     : (p, u) second FCN layer (memory-block logits)
    memory    : (p, c, h, w) memory bank, zero-filled at init
    """

    cfg: SRConfig
    squeeze_w: np.ndarray
    fc1_w: np.ndarray
    fc2_w: np.ndarray
    memory: np.ndarray

    def copy(self) -> "SRParams":
        return SRParams(self.cfg, **{name: t.copy() for name, t in self.items()})

    def items(self):
        """Named parameter tensors in the fixed update/serialization order."""
        for name in sr_shapes(self.cfg):
            yield name, getattr(self, name)


@dataclass
class SRForwardCache:
    """Intermediates kept from sr_forward for the backward pass."""

    x: np.ndarray
    xbar_flat: np.ndarray
    hidden_pre: np.ndarray
    hidden: np.ndarray
    alpha: np.ndarray
    params: SRParams = field(repr=False)


def sr_shapes(cfg: SRConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each parameter tensor, in items() order."""
    return {
        "squeeze_w": (cfg.c,),
        "fc1_w": (cfg.u, cfg.h * cfg.w),
        "fc2_w": (cfg.p, cfg.u),
        "memory": (cfg.p, cfg.c, cfg.h, cfg.w),
    }


def sr_init(cfg: SRConfig, rng: np.random.Generator, dtype=np.float32) -> SRParams:
    """Initialize an SR block.

    Weights are drawn uniformly from (-sqrt(k), sqrt(k)) with k = 1/c; the
    FCN matrices deliberately reuse the squeeze bound (not a fan-in rule).
    Memory blocks are exactly zero, which makes the whole block an
    identity. Draw order: squeeze_w, fc1_w, fc2_w (row-major each).
    """
    cfg.validate()
    bound = math.sqrt(1.0 / cfg.c)
    shapes = sr_shapes(cfg)
    memory = np.zeros(shapes.pop("memory"), dtype=dtype)
    drawn = {k: rng.uniform(-bound, bound, s).astype(dtype) for k, s in shapes.items()}
    return SRParams(cfg, memory=memory, **drawn)


def sr_forward(params: SRParams, x: np.ndarray) -> tuple[np.ndarray, SRForwardCache]:
    """Apply the block: out = x + sum_i alpha[n,i] * memory[i] per sample.

    alpha = softmax(fc2 @ (fc1 @ flatten(conv1x1(x)))) is computed
    independently for each batch sample.
    """
    cfg = params.cfg
    for axis, got, want in zip(AXIS_NAMES[1:], check_nchw(x)[1:], (cfg.c, cfg.h, cfg.w)):
        check_axis(got, want, axis)
    xbar = ops.conv1x1_fwd(x, params.squeeze_w)
    xbar_flat = ops.flatten_fwd(xbar)
    hidden_pre = ops.linear_fwd(xbar_flat, params.fc1_w)
    hidden = ops.relu_fwd(hidden_pre) if cfg.hidden_relu else hidden_pre
    logits = ops.linear_fwd(hidden, params.fc2_w)
    alpha = ops.softmax_fwd(logits)
    out = recall_map(params, alpha)
    ops._rows_into(np.add, out, out, x)
    cache = SRForwardCache(x, xbar_flat, hidden_pre, hidden, alpha, params)
    return out, cache


def recall_map(params: SRParams, alpha: np.ndarray) -> np.ndarray:
    """Convex combination of memory blocks for given weights, (n,c,h,w)."""
    p, *chw = params.memory.shape
    return _matmul_columns(alpha, params.memory.reshape(p, -1)).reshape(len(alpha), *chw)


def _matmul_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b into one new buffer, in column blocks on the worker pool.

    Each block packs only its own columns of b, and every column is summed as
    in the unsplit gemm; row blocks would make BLAS pack all of b once per
    block. A one-row a stays one block: numpy makes that product a gemv,
    whose sums depend on where a block starts.
    """
    (m, k), cols = a.shape, b.shape[1]
    out = np.empty((m, cols), dtype=np.result_type(a, b))
    size = ops._block_size(cols, max(m, k)) if m > 1 else cols  # max(m, k): the batch

    def block(j):
        np.matmul(a, b[:, j : j + size], out=out[:, j : j + size])

    ops._each_chunk(block, cols, size)
    return out


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in at most two row blocks on the worker pool, with the unsplit gemm's
    sums: each block packs all of b, so more blocks cost more than they save.
    _block_size leaves no one-row block, which numpy would hand to gemv."""
    m = a.shape[0]
    out = np.empty((m, b.shape[1]), dtype=np.result_type(a, b))
    rows = max(ops._block_size(m, a.shape[1]), -(-m // 2))

    def block(r):
        np.dot(a[r : r + rows], b, out=out[r : r + rows])

    ops._each_chunk(block, m, rows)
    return out


def sr_backward(
    params: SRParams, cache: SRForwardCache, grad_out: np.ndarray
) -> tuple[SRParams, np.ndarray]:
    """Exact adjoint of sr_forward.

    grad_memory[i] = sum_n alpha[n,i] * grad_out[n] (closed form; alpha is
    a constant w.r.t. the memory bank), the alpha path chains through
    softmax, both FCN layers, and the squeeze convolution, and the
    residual add passes grad_out straight through to grad_x.

    Returns (grad_params shaped like SRParams, grad_x).
    """
    if cache is None:
        raise UsageError("sr_backward needs the cache from a matching sr_forward")
    if cache.params is not params:
        raise UsageError("stale cache: it was produced by a different SRParams")
    check_shape(grad_out.shape, cache.x.shape)

    n, p = grad_out.shape[0], params.cfg.p
    grad_memory = _matmul_columns(cache.alpha.T, grad_out.reshape(n, -1))
    grad_memory = grad_memory.reshape(params.memory.shape)
    grad_alpha = _matmul_rows(grad_out.reshape(n, -1), params.memory.reshape(p, -1).T)
    grad_logits = ops.softmax_bwd(cache.alpha, grad_alpha)
    grad_hidden, grad_fc2 = ops.linear_bwd(cache.hidden, params.fc2_w, grad_logits)
    if params.cfg.hidden_relu:
        grad_hidden = ops.relu_bwd(cache.hidden_pre, grad_hidden)
    grad_xbar_flat, grad_fc1 = ops.linear_bwd(
        cache.xbar_flat, params.fc1_w, grad_hidden
    )
    grad_xbar = ops.flatten_bwd(grad_xbar_flat, (n, 1, params.cfg.h, params.cfg.w))
    grad_x, grad_squeeze_w = ops.conv1x1_bwd(cache.x, params.squeeze_w, grad_xbar)
    ops._rows_into(np.add, grad_x, grad_x, grad_out)  # the residual path
    grads = SRParams(params.cfg, grad_squeeze_w, grad_fc1, grad_fc2, grad_memory)
    return grads, grad_x


def sr_param_count(cfg: SRConfig) -> int:
    """Parameters added by one block: c + h*w*u + u*p + p*c*h*w."""
    return cfg.c + cfg.h * cfg.w * cfg.u + cfg.u * cfg.p + cfg.p * cfg.c * cfg.h * cfg.w


def sr_overhead(cfg: SRConfig, baseline_params: int) -> float:
    """Added parameters as a percentage of ``baseline_params``.

    Rounded half away from zero to two decimals to match table formatting.
    """
    if baseline_params <= 0:
        raise ConfigError(f"baseline_params must be > 0, got {baseline_params}")
    pct = 100.0 * sr_param_count(cfg) / baseline_params
    return math.floor(pct * 100.0 + 0.5) / 100.0


def sr_ablate(params: SRParams) -> SRParams:
    """Copy with the memory bank zeroed: the block becomes an exact identity."""
    out = params.copy()
    out.memory[:] = 0.0
    return out
