"""Independent oracles: naive loop implementations and finite differences.

Everything here is deliberately dumb and slow, straight transcriptions
of the defining formulas, so the fast implementations in the package
have something trustworthy to be compared against. Finite differences run
in float64.
"""

import numpy as np


def fd_gradient(loss_fn, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. every entry of x.

    Perturbs x in place and restores it; x should be float64.
    """
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = loss_fn()
        flat[i] = keep - step
        down = loss_fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_err(analytic: np.ndarray, reference: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(r).max(initial=0.0), 1e-6)
    return float(np.abs(a - r).max(initial=0.0) / denom)


def conv1x1_loops(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per-element scalar accumulation in ascending channel order.

    Uses the input dtype for every intermediate, so on float32 inputs the
    result must match the production op bit for bit.
    """
    n, c, h, w = x.shape
    scalar = x.dtype.type
    out = np.zeros((n, 1, h, w), dtype=x.dtype)
    for b in range(n):
        for i in range(h):
            for j in range(w):
                acc = scalar(0.0)
                for ch in range(c):
                    acc = scalar(acc + scalar(weight[ch] * x[b, ch, i, j]))
                out[b, 0, i, j] = acc
    return out


def conv1x1_channels(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """conv1x1_loops' sums as whole-map adds, one per channel in ascending
    order from the first channel's products: the same bits, fast enough for
    maps of millions of elements."""
    out = weight[0] * x[:, 0:1]
    for ch in range(1, x.shape[1]):
        out += weight[ch] * x[:, ch : ch + 1]
    return out


def matmul_loops(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """x (n, i) times weight (o, i) transposed, in float64."""
    n, i = x.shape
    o = weight.shape[0]
    out = np.zeros((n, o), dtype=np.float64)
    for row in range(n):
        for col in range(o):
            acc = 0.0
            for k in range(i):
                acc += float(x[row, k]) * float(weight[col, k])
            out[row, col] = acc
    return out


def conv3x3_loops(x: np.ndarray, weight: np.ndarray, stride: int) -> np.ndarray:
    """Direct 7-loop convolution with zero padding 1, in float64."""
    n, c, h, w = x.shape
    o = weight.shape[0]
    oh = (h + 2 - 3) // stride + 1
    ow = (w + 2 - 3) // stride + 1
    xp = np.zeros((n, c, h + 2, w + 2), dtype=np.float64)
    xp[:, :, 1:-1, 1:-1] = x
    out = np.zeros((n, o, oh, ow), dtype=np.float64)
    for b in range(n):
        for oc in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ic in range(c):
                        for di in range(3):
                            for dj in range(3):
                                acc += float(weight[oc, ic, di, dj]) * xp[
                                    b, ic, i * stride + di, j * stride + dj
                                ]
                    out[b, oc, i, j] = acc
    return out


def conv3x3_bwd_loops(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of conv3x3_loops by direct scatter, in float64: each output
    gradient flows back through the nine taps that produced that output."""
    n, c, h, w = x.shape
    _, o, oh, ow = grad_out.shape
    xp = np.zeros((n, c, h + 2, w + 2), dtype=np.float64)
    xp[:, :, 1:-1, 1:-1] = x
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros(weight.shape, dtype=np.float64)
    for b in range(n):
        for oc in range(o):
            for i in range(oh):
                for j in range(ow):
                    g = float(grad_out[b, oc, i, j])
                    for ic in range(c):
                        for di in range(3):
                            for dj in range(3):
                                r, q = i * stride + di, j * stride + dj
                                grad_w[oc, ic, di, dj] += g * xp[b, ic, r, q]
                                grad_xp[b, ic, r, q] += g * float(weight[oc, ic, di, dj])
    return grad_xp[:, :, 1:-1, 1:-1], grad_w


def sr_block_unsplit(params, x: np.ndarray, grad_out: np.ndarray):
    """SR block forward and backward as whole-array numpy expressions: one
    tensordot, broadcast or sum per formula and no blocks, each in the order
    of operations of the production ops, so float32 results must match
    sr_forward/sr_backward bit for bit. That order makes the squeeze weight
    gradient a sum of per-sample gemvs, added in sample order.

    Returns (out, {parameter name: gradient}, grad_x).
    """
    n = x.shape[0]
    w = params.squeeze_w
    xbar = conv1x1_channels(x, w)
    xbar_flat = xbar.reshape(n, -1)
    hidden_pre = xbar_flat @ params.fc1_w.T
    hidden = np.maximum(hidden_pre, 0) if params.cfg.hidden_relu else hidden_pre
    logits = hidden @ params.fc2_w.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    out = x + np.tensordot(alpha, params.memory, axes=([1], [0]))

    grad_alpha = np.tensordot(grad_out, params.memory, axes=([1, 2, 3], [1, 2, 3]))
    grad_logits = alpha * (grad_alpha - np.sum(grad_alpha * alpha, axis=1, keepdims=True))
    grad_hidden = grad_logits @ params.fc2_w
    if params.cfg.hidden_relu:
        grad_hidden = grad_hidden * (hidden_pre > 0)
    grad_xbar = (grad_hidden @ params.fc1_w).reshape(xbar.shape)
    squeeze_w = x[0].reshape(x.shape[1], -1) @ grad_xbar[0].reshape(-1)
    for i in range(1, n):
        squeeze_w = squeeze_w + x[i].reshape(x.shape[1], -1) @ grad_xbar[i].reshape(-1)
    grads = {
        "squeeze_w": squeeze_w,
        "fc1_w": grad_hidden.T @ xbar_flat,
        "fc2_w": grad_logits.T @ hidden,
        "memory": np.tensordot(alpha, grad_out, axes=([0], [0])),
    }
    grad_x = grad_out + w[None, :, None, None] * grad_xbar
    return out, grads, grad_x


def channel_mean_loops(block: np.ndarray) -> np.ndarray:
    """Mean over the channel axis of one (c, h, w) memory block."""
    c, h, w = block.shape
    out = np.zeros((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for ch in range(c):
                acc += float(block[ch, i, j])
            out[i, j] = acc / c
    return out


# ---------------------------------------------------------------------------
# Baseline parameter counts, derived by enumerating the canonical
# architectures (conv/bn/fc parameter tensors, batch-norm running stats
# excluded). Used to validate the constants the overhead checks rely on.
# ---------------------------------------------------------------------------

def resnet50_imagenet_param_count() -> int:
    """Standard 1000-class ResNet50 (7x7 stem, bottleneck blocks)."""
    total = 64 * 3 * 7 * 7 + 2 * 64
    in_c = 64
    for blocks, mid, out in ((3, 64, 256), (4, 128, 512), (6, 256, 1024), (3, 512, 2048)):
        for b in range(blocks):
            total += mid * in_c + 2 * mid       # 1x1 reduce + bn
            total += mid * mid * 9 + 2 * mid    # 3x3 + bn
            total += out * mid + 2 * out        # 1x1 expand + bn
            if b == 0:
                total += out * in_c + 2 * out   # downsample projection + bn
            in_c = out
    total += 2048 * 1000 + 1000                 # classifier
    return total


def resnet18_cifar100_param_count() -> int:
    """ResNet18 adapted to CIFAR (3x3 stem, no maxpool) with a 100-way head."""
    total = 64 * 3 * 3 * 3 + 2 * 64
    in_c = 64
    for blocks, out in ((2, 64), (2, 128), (2, 256), (2, 512)):
        for b in range(blocks):
            total += out * in_c * 9 + 2 * out
            total += out * out * 9 + 2 * out
            if b == 0 and in_c != out:
                total += out * in_c + 2 * out
            in_c = out
    total += 512 * 100 + 100
    return total


def synth_splits_loops(spec):
    """``data.synth_generate`` as one loop over classes: per-class slices
    appended to six lists, concatenated, then standardized with the train
    statistics. The splits it returns must match the package's byte for byte."""
    from srkit.data import VAL_STRIDE, Dataset, class_template
    from srkit.rng import make_rng

    rng = make_rng(spec.seed)
    train_x, train_y, val_x, val_y, test_x, test_y = [], [], [], [], [], []
    img_shape = (spec.channels, spec.h, spec.w)
    for k in range(spec.classes):
        template = class_template(spec, k)
        pool = template[None] + spec.noise_sigma * rng.standard_normal(
            (spec.per_class, *img_shape), dtype=np.float32
        )
        test = template[None] + spec.noise_sigma * rng.standard_normal(
            (spec.per_class_test, *img_shape), dtype=np.float32
        )
        pool = np.clip(pool, 0.0, 1.0)
        test = np.clip(test, 0.0, 1.0)
        idx = np.arange(spec.per_class)
        val_sel = idx % VAL_STRIDE == VAL_STRIDE - 1
        train_x.append(pool[~val_sel])
        val_x.append(pool[val_sel])
        test_x.append(test)
        train_y.append(np.full((~val_sel).sum(), k, dtype=np.int64))
        val_y.append(np.full(val_sel.sum(), k, dtype=np.int64))
        test_y.append(np.full(spec.per_class_test, k, dtype=np.int64))

    tx = np.concatenate(train_x)
    mean = tx.mean(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    std = tx.std(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    std = np.maximum(std, np.float32(1e-6))

    def norm(a: np.ndarray) -> np.ndarray:
        return (a - mean[None, :, None, None]) / std[None, :, None, None]

    return (
        Dataset(norm(tx), np.concatenate(train_y)),
        Dataset(norm(np.concatenate(val_x)), np.concatenate(val_y)),
        Dataset(norm(np.concatenate(test_x)), np.concatenate(test_y)),
    )


def capped_ids_loops(labels: np.ndarray, cap: int) -> list[int]:
    """Ids in ascending order, at most ``cap`` per label, the lowest first."""
    taken: dict[int, int] = {}
    ids = []
    for i, k in enumerate(labels.tolist()):
        if taken.get(k, 0) < cap:
            taken[k] = taken.get(k, 0) + 1
            ids.append(i)
    return ids
