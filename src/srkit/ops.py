"""Forward and backward rules for every primitive the networks need.

Every op is a function of its arrays with no hidden state: it writes only
its result, into a new array or, for the ReLU passes, into ``out``, which
may be the input. Each ``*_bwd`` implements the exact analytic adjoint of
its forward and is validated against central finite differences in the
test suite and the ``gradcheck`` harness.

Determinism contract: identical inputs produce bit-identical outputs run
to run on one machine with one BLAS thread count. The 3x3 convolutions
are GEMMs over im2col patches, NCHW in (c, di, dj) order or channels-last
in (di, dj, c) order (``_conv3x3_layout``), summed in that order as the
BLAS kernel blocks it for the CPU and thread count; across machines they
agree to rounding, not to the bit. ``conv1x1_fwd`` adds channels left to
right without BLAS and matches a naive per-element loop bit for bit.

All work that splits into independent blocks runs as a fork-join over
``worker_count()`` threads (``_each_chunk``): the calling thread is one of
the SRKIT_THREADS and runs the first contiguous group of blocks, and each
other group is one task of a pool of ``worker_count() - 1`` helper threads;
numpy releases the GIL in BLAS, in copies and in elementwise loops. Which
thread runs a block follows from the block count and the thread count
alone. Every pass that fills a buffer allocated before it goes through
``_rows_into``, in blocks of its leading axis: chunks of ``_CHUNK``
samples in ``conv3x3_fwd``, whose GEMMs keep their shapes, and blocks of
about ``_TASK`` elements (``_block_size``) in the memory-bound passes (the
ReLU passes, ``conv1x1_fwd``'s channel sum, ``conv1x1_bwd``'s ``grad_x``;
in ``sr_block`` the recall, memory and gate gradients and residual adds).
Two weight gradients call ``_each_chunk`` themselves and add their partials
in block order: the 3x3 one per chunk, and ``conv1x1_bwd``'s per sample
(one gemv each, in sample blocks of about ``_TASK`` elements).
Blocks leave every sum as the unsplit pass has it and follow from the
shape alone, so the bits do not depend on the pool size; a pass that fits
in one block runs inline.

Ops preserve the input dtype: float32 in production, float64 when a
finite-difference oracle reruns them on upcast copies.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError, NumericError
from .tensor import check_axis, check_nchw, check_shape


# ---------------------------------------------------------------------------
# 1x1 convolution (single output channel, bias-free)
# ---------------------------------------------------------------------------

def conv1x1_fwd(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Compress channels: out[n,0,i,j] = sum_ch weight[ch] * x[n,ch,i,j].

    Products are rounded once per element and added in place into one
    (n,1,h,w) accumulator strictly in ascending channel order (unlike the
    pairwise ``sum``), so the result is bit-identical to a scalar loop.
    """
    n, c, h, w = check_nchw(x)
    if weight.ndim != 1 or weight.shape[0] != c:
        raise DimensionError(
            f"weight: channel axis is {weight.shape}, expected ({c},)"
        )
    if x.size <= _TASK or h * w == 1:  # one task, or c would be the reduce's inner axis
        out = weight[0] * x[:, 0:1]
        for ch in range(1, c):
            out += weight[ch] * x[:, ch : ch + 1]
        return out
    # the reduce adds the non-inner channel axis in order, from -0.0 as the loop
    # (from 0.0, -0.0 sums turn 0.0); a quarter task bounds the product temporary
    out, wc = np.empty((n, 1, h, w), dtype=np.result_type(weight, x)), weight[:, None, None]
    return _rows_into(
        lambda xb, out: np.add.reduce(wc * xb, axis=1, keepdims=True, out=out, initial=-0.0),
        out, x, rows=max(2, (_TASK >> 2) // (c * h * w)))


def conv1x1_bwd(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of conv1x1_fwd.

    grad_x[n,ch,i,j]  = weight[ch] * grad_out[n,0,i,j]
    grad_weight[ch]   = sum_{n,i,j} x[n,ch,i,j] * grad_out[n,0,i,j]

    grad_weight is one gemv per sample, x[i].reshape(c, h*w) @
    grad_out[i].reshape(h*w), in sample blocks of about _TASK elements on the
    pool, and the per-sample vectors are added in sample order: no
    channel-major copy of x, and bits that follow that per-sample sum.
    """
    n, c, h, w = check_nchw(x)
    check_shape(grad_out.shape, (n, 1, h, w))
    xs, gs = x.reshape(n, c, h * w), grad_out.reshape(n, h * w)
    rows = _block_size(n, c * h * w)
    blocks = _each_chunk(lambda b: [np.dot(xi, gi) for xi, gi in
                                    zip(xs[b : b + rows], gs[b : b + rows])], n, rows)
    per_sample = [v for block in blocks for v in block]
    grad_w = per_sample[0]
    for v in per_sample[1:]:  # sample order, whatever the pool size
        grad_w += v

    grad_x = np.empty((n, c, h * w), dtype=np.result_type(weight, grad_out))
    wc = weight[:, None]  # inner loops of h*w elements, not w
    return _rows_into(lambda g, out: np.multiply(wc, g, out=out), grad_x,
                      grad_out.reshape(n, 1, h * w)).reshape(n, c, h, w), grad_w


# ---------------------------------------------------------------------------
# Bias-free linear layer
# ---------------------------------------------------------------------------

def linear_fwd(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Matrix product x @ weight.T for x (n, in) and weight (out, in)."""
    if x.ndim != 2 or weight.ndim != 2:
        raise DimensionError("linear expects rank-2 x and weight")
    check_axis(x.shape[1], weight.shape[1], "input")
    return x @ weight.T


def linear_bwd(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Standard matmul adjoints: grad_x = g @ W, grad_W = g.T @ x."""
    check_shape(grad_out.shape, (x.shape[0], weight.shape[0]))
    return grad_out @ weight, grad_out.T @ x


# ---------------------------------------------------------------------------
# Softmax over the last axis of a matrix
# ---------------------------------------------------------------------------

def softmax_fwd(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    if logits.ndim != 2:
        raise DimensionError("softmax expects a rank-2 (n, p) matrix")
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax received non-finite logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_bwd(probs: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_logits = probs * (grad_out - <grad_out, probs>) per row."""
    check_shape(grad_out.shape, probs.shape)
    inner = np.sum(grad_out * probs, axis=1, keepdims=True)
    return probs * (grad_out - inner)


# ---------------------------------------------------------------------------
# 3x3 convolution, padding 1, stride 1 or 2, bias-free
# ---------------------------------------------------------------------------

def _check_conv3x3(x: np.ndarray, weight: np.ndarray, stride: int):
    n, c, h, w = check_nchw(x)
    if weight.ndim != 4 or weight.shape[2:] != (3, 3):
        raise DimensionError("weight must have shape (out, in, 3, 3)")
    check_axis(weight.shape[1], c, "channel", "weight")
    if stride not in (1, 2):
        raise ConfigError(f"stride must be 1 or 2, got {stride}")
    return n, c, h, w, weight.shape[0], (h - 1) // stride + 1, (w - 1) // stride + 1


# Samples per patch matrix: keeps it cache-sized and peak memory flat in n.
_CHUNK = 16
# Elements one task of a memory-bound pass streams: a few MB, so a task's
# hand-off costs little next to its work, and passes at the default host's
# SR shape (at most 2**20 elements) stay in one block and run inline.
_TASK = 1 << 20


def _block_size(n: int, each: int) -> int:
    """Block length for a memory-bound pass that splits an axis of n entries
    (rows or columns) of ``each`` elements: about _TASK elements, at least two
    entries, and never a last block of one entry after others (numpy hands a
    one-row or one-column matmul to gemv, whose sums are not gemm's)."""
    size = max(2, _TASK // each)
    while n > size and n % size == 1:
        size += 1
    return size


def worker_count() -> int:
    """Threads a split pass may use, the calling thread among them: SRKIT_THREADS,
    by default the CPUs this process may use. Read once, when the first split
    pass creates the pool of worker_count() - 1 helper threads."""
    raw = os.environ.get("SRKIT_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        k = int(raw)
    except ValueError:
        k = 0
    if k < 1:
        raise ConfigError(f"SRKIT_THREADS must be a positive integer, got {raw!r}")
    return k


_POOL: list = []  # [helper pool, or None for one thread; worker_count()], on first use
_POOL_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=lambda: _POOL.clear())


def _run_group(fn, starts) -> list:
    return [fn(b) for b in starts]


def _each_chunk(fn, n: int, size: int = _CHUNK) -> list:
    """[fn(b) for b in range(0, n, size)] as a fork-join over worker_count() threads.

    The one pool dispatcher, called by _rows_into for a pass that fills a
    buffer, and by _conv3x3_grads and conv1x1_bwd for their weight-gradient
    partials; each fn(b) writes at most its own slice of a buffer and may
    return a partial, which the caller adds in block order. The block starts
    split into at most worker_count() contiguous groups whose sizes differ by
    at most one, the
    larger last, where the ragged last block is. The calling thread runs
    group 0 and each other group is one pool task, run in its own copy of the
    caller's context (np.errstate is per context). Every group has finished
    when this returns or raises; results come back in block order, and the
    error raised is that of the first failing group. One block, or one
    thread, runs inline. fn must call no public srkit function, as the
    benchmark's tracer assumes nested calls.
    """
    starts = range(0, n, size)
    if len(starts) <= 1:
        return _run_group(fn, starts)
    with _POOL_LOCK:
        if not _POOL:
            # imported here, not at the top: its ~8 ms would add to every command
            from concurrent.futures import ThreadPoolExecutor

            k = worker_count()
            _POOL.extend((ThreadPoolExecutor(k - 1, "srkit-conv") if k > 1 else None, k))
    pool, k = _POOL
    if pool is None:
        return _run_group(fn, starts)
    groups = min(k, len(starts))
    q, r = divmod(len(starts), groups)
    cuts = [i * q + max(0, i - groups + r) for i in range(groups + 1)]
    tasks = [pool.submit(contextvars.copy_context().run, _run_group, fn, starts[lo:hi])
             for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        results = _run_group(fn, starts[: cuts[1]])
    finally:
        for t in tasks:  # join: no group outlives the pass
            t.exception()
    for t in tasks:  # the first failing group's error, in group order
        results += t.result()
    return results


def _rows_into(fn, out: np.ndarray, *inputs: np.ndarray,
               rows: int | None = None) -> np.ndarray:
    """fn(*input_blocks, out=out_block) on the pool over the leading axis of (n, ...)
    arrays in blocks of ``rows`` (default: _block_size, about _TASK elements); returns
    out, which may be an input. A column pass hands in transposed views."""
    n = out.shape[0]
    rows = rows or _block_size(n, out[0].size)
    _each_chunk(lambda b: fn(*(a[b : b + rows] for a in inputs), out=out[b : b + rows]),
                n, rows)
    return out


def _conv3x3_layout(weight: np.ndarray, ow: int):
    """Layout rule: channels-last iff its copy runs (3*c floats) are no shorter than
    NCHW's (ow). Returns cl, the weight axes in patch order and the (9c, o) matrix."""
    cl = 3 * weight.shape[1] >= ow
    axes = (2, 3, 1, 0) if cl else (1, 2, 3, 0)
    return cl, axes, weight.transpose(axes).reshape(-1, weight.shape[0])


def _conv3x3_patches(x: np.ndarray, stride: int, cl: bool) -> np.ndarray:
    """im2col of the zero-padded input: channels-last (n*oh*ow, 9c), columns
    in (di, dj, c) order, else (n, c*9, oh*ow), rows in (c, di, dj) order."""
    n, c, h, w = x.shape
    if cl:
        xp = np.zeros((n, h + 2, w + 2, c), dtype=x.dtype)
        xp[:, 1:-1, 1:-1] = x.transpose(0, 2, 3, 1)
        win = sliding_window_view(xp, (3, 3), axis=(1, 2))[:, ::stride, ::stride]
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * c)
    xp = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1:-1, 1:-1] = x
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * 9, -1)


def conv3x3_fwd(x: np.ndarray, weight: np.ndarray, stride: int = 1) -> np.ndarray:
    """3x3 convolution with zero padding 1: one GEMM per chunk of patches."""
    n, c, h, w, o, oh, ow = _check_conv3x3(x, weight, stride)
    cl, _, wk = _conv3x3_layout(weight, ow)

    def chunk(xb, out):
        cols = _conv3x3_patches(xb, stride, cl)
        if cl:
            out[...] = (cols @ wk).reshape(-1, oh, ow, o).transpose(0, 3, 1, 2)
        else:  # the batched GEMM straight into out
            np.matmul(wk.T, cols, out=out.reshape(-1, o, oh * ow))

    return _rows_into(chunk, np.empty((n, o, oh, ow), dtype=x.dtype), x, rows=_CHUNK)


def _conv3x3_grads(x, weight, grad_out, stride, want_x):
    """Both backward rules: grad_w = sum cols^T g; if want_x, col2im of g W^T."""
    n, c, h, w, o, oh, ow = _check_conv3x3(x, weight, stride)
    check_shape(grad_out.shape, (n, o, oh, ow))
    cl, axes, wk = _conv3x3_layout(weight, ow)
    grad_x = np.empty((n, c, h, w), dtype=x.dtype) if want_x else None

    def chunk(b):  # returns its grad_w partial, writes only its own slice of grad_x
        cols = _conv3x3_patches(x[b : b + _CHUNK], stride, cl)
        if cl:
            g = grad_out[b : b + _CHUNK].transpose(0, 2, 3, 1).reshape(-1, o)
            part = cols.T @ g
        else:
            g = grad_out[b : b + _CHUNK].reshape(-1, o, oh * ow)
            part = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).T
        del cols  # release the patches before col2im allocates
        if not want_x:
            return part
        gx = grad_x[b : b + _CHUNK]  # col2im on NCHW views, adding in memory order
        if cl:
            gxp = np.zeros((len(gx), h + 2, w + 2, c), x.dtype).transpose(0, 3, 1, 2)
            grad_cols = (g @ wk.T).reshape(-1, oh, ow, 3, 3, c)
            grad_cols = grad_cols.transpose(0, 5, 3, 4, 1, 2)
        else:
            gxp = np.zeros((len(gx), c, h + 2, w + 2), x.dtype)
            grad_cols = np.matmul(wk, g).reshape(-1, c, 3, 3, oh, ow)
        for di in range(3):
            for dj in range(3):
                gxp[:, :, di : di + (oh - 1) * stride + 1 : stride,
                    dj : dj + (ow - 1) * stride + 1 : stride] += grad_cols[:, :, di, dj]
        gx[...] = gxp[:, :, 1 : 1 + h, 1 : 1 + w]
        return part

    grad_wk = np.zeros_like(wk)
    for part in _each_chunk(chunk, n):  # chunk order, the serial loop's sum order
        grad_wk += part
    grad_w = grad_wk.reshape([weight.shape[a] for a in axes]).transpose(np.argsort(axes))
    return grad_x, np.ascontiguousarray(grad_w)


def conv3x3_bwd(x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray,
                stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of conv3x3_fwd: two GEMMs per chunk, then col2im over the taps."""
    return _conv3x3_grads(x, weight, grad_out, stride, want_x=True)


def conv3x3_bwd_weight(x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray,
                       stride: int = 1) -> np.ndarray:
    """conv3x3_bwd's grad_w, bit for bit, without grad_x or its col2im."""
    return _conv3x3_grads(x, weight, grad_out, stride, want_x=False)[1]


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

def relu_fwd(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0) into out (x itself is allowed), or into a new array."""
    if out is None:
        out = np.empty(x.shape, np.result_type(x, 0))
    return _rows_into(lambda a, out: np.maximum(a, 0, out=out), out, x)


def relu_bwd(x: np.ndarray, grad_out: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """grad_out * (x > 0) into out (grad_out itself is allowed), or into a new
    array. x may be the ReLU's input or its output: both give the same mask."""
    check_shape(grad_out.shape, x.shape)
    if out is None:
        out = np.empty(x.shape, np.result_type(grad_out, np.bool_))
    return _rows_into(lambda a, g, out: np.multiply(g, a > 0, out=out), out, x, grad_out)


# ---------------------------------------------------------------------------
# Global average pooling (n,c,h,w) -> (n,c)
# ---------------------------------------------------------------------------

def global_avgpool_fwd(x: np.ndarray) -> np.ndarray:
    check_nchw(x)
    return x.mean(axis=(2, 3), dtype=x.dtype)


def global_avgpool_bwd(x_shape: tuple[int, int, int, int], grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = x_shape
    check_shape(grad_out.shape, (n, c))
    scale = np.asarray(1.0 / (h * w), dtype=grad_out.dtype)
    return np.broadcast_to((grad_out * scale)[:, :, None, None], x_shape).copy()


# ---------------------------------------------------------------------------
# Cross entropy with integrated log-softmax, mean reduction over the batch
# ---------------------------------------------------------------------------

def cross_entropy_fwd(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood by log-sum-exp with max subtraction; returns
    (loss, probs), probs bit-identical to ``softmax_fwd(logits)``."""
    if logits.ndim != 2:
        raise DimensionError("cross_entropy expects rank-2 logits")
    n = logits.shape[0]
    check_shape(labels.shape, (n,), "labels")
    if not np.all(np.isfinite(logits)):
        raise NumericError("cross_entropy received non-finite logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = -(shifted - np.log(total))[np.arange(n), labels].mean(dtype=logits.dtype)
    return float(loss), e / total


def cross_entropy_bwd(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """grad_logits for a unit upstream gradient: (probs - onehot) / n."""
    n = probs.shape[0]
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1
    return grad * np.asarray(1.0 / n, dtype=probs.dtype)


# ---------------------------------------------------------------------------
# Flatten / reshape
# ---------------------------------------------------------------------------

def flatten_fwd(x: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (n, c*h*w), row-major."""
    check_nchw(x)
    return x.reshape(x.shape[0], -1)


def flatten_bwd(grad_out: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
    return grad_out.reshape(x_shape)


# ---------------------------------------------------------------------------
# Dropout: elementwise or channelwise (dropout2d), inverted 1/(1-p) scaling
# ---------------------------------------------------------------------------

def dropout_mask(
    shape: tuple[int, ...],
    p: float,
    rng: np.random.Generator,
    channelwise: bool,
    dtype=np.float32,
) -> np.ndarray:
    """Draw a keep/scale mask for a (n,c,h,w) map.

    Channelwise masks draw one uniform per (n, c) slice, in row-major
    (n, c) order; elementwise masks draw per element in (n,c,h,w) order.
    An entry is dropped when its uniform draw is < p; survivors carry the
    inverted scale 1/(1-p).
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout_p must be in [0, 1), got {p}")
    n, c = shape[0], shape[1]
    if p == 0.0:
        return np.ones(shape if not channelwise else (n, c, 1, 1), dtype=dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=dtype)
    if channelwise:
        keep = rng.random((n, c)) >= p
        return (keep.astype(dtype) * scale).reshape(n, c, 1, 1)
    keep = rng.random(shape) >= p
    return keep.astype(dtype) * scale


def dropout_apply(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Multiply by a previously drawn mask (broadcasts channel masks)."""
    return x * mask


def dropout_bwd(mask: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * mask
