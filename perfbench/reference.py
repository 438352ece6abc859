"""Float64 reference for the benchmark's correctness checks.

Written from the definitions in srkit's README, apart from
``src/srkit/ops.py`` and ``src/srkit/sr_block.py``: 3x3 convolutions are
one ``einsum`` over the nine taps of a zero-padded input, the SR block and
its adjoint are transcribed from the block's formulas, and checkpoints are
parsed straight from the documented ``SRCK`` byte layout. Everything runs
in float64, so the program's float32 results are compared against a more
accurate answer, not against themselves.
"""

from __future__ import annotations

import json
import struct

import numpy as np

STAGE_STRIDES = (1, 2, 2, 2)
CHUNK = 100  # samples per reference forward, to bound the tap tensor's size


def conv3x3(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Zero padding 1; out[n,o,i,j] = sum_{c,di,dj} w[o,c,di,dj] * xp[n,c,s*i+di,s*j+dj]."""
    n, c, h, wd = x.shape
    oh, ow = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xp = np.zeros((n, c, h + 2, wd + 2))
    xp[:, :, 1:-1, 1:-1] = x
    taps = np.stack(
        [
            np.stack(
                [xp[:, :, di : di + stride * oh : stride, dj : dj + stride * ow : stride]
                 for dj in range(3)],
                axis=2,
            )
            for di in range(3)
        ],
        axis=2,
    )  # (n, c, 3, 3, oh, ow)
    return np.einsum("ocij,ncijhw->nohw", w, taps, optimize=True)


def sr_forward(x, squeeze_w, fc1, fc2, memory, hidden_relu=False):
    """out = x + sum_i alpha[n,i] memory[i]; returns (out, intermediates)."""
    n = x.shape[0]
    squeezed = np.einsum("c,nchw->nhw", squeeze_w, x).reshape(n, -1)
    hidden_pre = squeezed @ fc1.T
    hidden = np.maximum(hidden_pre, 0.0) if hidden_relu else hidden_pre
    logits = hidden @ fc2.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    recall = np.einsum("np,pchw->nchw", alpha, memory)
    return x + recall, (squeezed, hidden_pre, hidden, alpha, recall)


def sr_adjoint(x, squeeze_w, fc1, fc2, memory, inter, grad_out, hidden_relu=False):
    """Gradients of <grad_out, out> w.r.t. x, squeeze_w, fc1, fc2 and memory."""
    squeezed, hidden_pre, hidden, alpha, _ = inter
    n, _, h, w = x.shape
    g_memory = np.einsum("np,nchw->pchw", alpha, grad_out)
    g_alpha = np.einsum("nchw,pchw->np", grad_out, memory)
    g_logits = alpha * (g_alpha - (g_alpha * alpha).sum(axis=1, keepdims=True))
    g_fc2 = g_logits.T @ hidden
    g_hidden = g_logits @ fc2
    if hidden_relu:
        g_hidden = g_hidden * (hidden_pre > 0)
    g_fc1 = g_hidden.T @ squeezed
    g_squeezed = (g_hidden @ fc1).reshape(n, h, w)
    g_squeeze_w = np.einsum("nchw,nhw->c", x, g_squeezed)
    g_x = grad_out + np.einsum("c,nhw->nchw", squeeze_w, g_squeezed)
    return {"x": g_x, "squeeze_w": g_squeeze_w, "fc1_w": g_fc1, "fc2_w": g_fc2,
            "memory": g_memory}


def directional_fd_error(x, params: dict, grad_out, grads: dict, seed: int = 0,
                         hidden_relu: bool = False) -> float:
    """Relative gap between sum_k <grads[k], d_k> and a central difference of
    <grad_out, sr_forward> along a random direction d, all in float64."""
    rng = np.random.default_rng(seed)
    inputs = {"x": x, **params}
    direction = {k: rng.standard_normal(v.shape) for k, v in inputs.items()}
    step = 1e-6  # truncation error shrinks as step**2, roundoff grows as 1/step; both stay under 1e-7 here

    def objective(sign):
        moved = {k: v + sign * step * direction[k] for k, v in inputs.items()}
        out, _ = sr_forward(moved["x"], moved["squeeze_w"], moved["fc1_w"],
                            moved["fc2_w"], moved["memory"], hidden_relu)
        return float(np.vdot(grad_out, out))

    numeric = (objective(1.0) - objective(-1.0)) / (2.0 * step)
    analytic = sum(float(np.vdot(grads[k], direction[k])) for k in inputs)
    return abs(numeric - analytic) / max(abs(analytic), 1e-12)


def host_logits(tensors: dict, x: np.ndarray, sr_insert, hidden_relu=False,
                capture: list | None = None) -> np.ndarray:
    """Eval-mode host forward: conv+ReLU stages, the SR block after stage
    ``sr_insert`` (or none), global average pooling and the classifier.

    When ``capture`` is a list, the SR block's alpha and recall map are
    appended to it for each chunk.
    """
    t = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}
    out = []
    for start in range(0, x.shape[0], CHUNK):
        act = np.asarray(x[start : start + CHUNK], dtype=np.float64)
        for stage in range(1, 5):
            act = np.maximum(conv3x3(act, t[f"stage{stage}.w"], STAGE_STRIDES[stage - 1]), 0.0)
            if stage == sr_insert:
                act, inter = sr_forward(act, t["sr.squeeze_w"], t["sr.fc1_w"],
                                        t["sr.fc2_w"], t["sr.memory"], hidden_relu)
                if capture is not None:
                    capture.append((inter[3], inter[4]))
        out.append(act.mean(axis=(2, 3)) @ t["cls.w"].T)
    return np.concatenate(out)


def read_checkpoint(blob: bytes) -> tuple[dict, dict]:
    """Parse SRCK bytes: magic, u32 version, u32-prefixed JSON metadata, then
    (u32 name length, name, u32 rank, u32 extents, float32 data) records."""
    if blob[:4] != b"SRCK":
        raise ValueError("bad magic")
    pos = 4

    def u32():
        nonlocal pos
        if pos + 4 > len(blob):
            raise ValueError("truncated")
        (v,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        return v

    def take(k):
        nonlocal pos
        if pos + k > len(blob):
            raise ValueError("truncated")
        pos += k
        return blob[pos - k : pos]

    version = u32()
    if version != 1:
        raise ValueError(f"version {version}")
    meta = json.loads(take(u32()).decode("utf-8"))
    tensors = {}
    while pos < len(blob):
        name = take(u32()).decode("utf-8")
        shape = tuple(u32() for _ in range(u32()))
        count = int(np.prod(shape, dtype=np.int64))
        tensors[name] = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
    return meta, tensors
