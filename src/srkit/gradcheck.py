"""Finite-difference validation of every analytic backward rule.

Each check builds a scalar loss (a fixed random weighting of the op's
output), computes analytic gradients through the op's backward, and
compares them against central differences of the forward. Checks run in
float64 on upcast copies so the verdict reflects the formulas, not
float32 roundoff; the ops themselves preserve dtype.

Primitive checks use the documented step 1e-3. The composite checks (SR
block end to end, micro host) use 1e-4, which keeps finite differences
well clear of ReLU kinks.

Ops are always called through the module (``ops.foo``) so a test can
monkeypatch a deliberately broken rule and watch the harness flag it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError
from .host import HostConfig, host_backward, host_forward, host_init
from .rng import make_rng
from .sr_block import SRConfig, sr_backward, sr_forward, sr_init

TOLERANCE = 1e-3
STEP_PRIMITIVE = 1e-3
STEP_COMPOSITE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    """max|a - fd| over a floored max-magnitude denominator."""
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    denom = max(np.abs(analytic).max(initial=0.0), np.abs(fd).max(initial=0.0), 1e-6)
    return float(np.abs(analytic - fd).max(initial=0.0) / denom)


def fd_grad(loss_fn, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of ``loss_fn`` w.r.t. every entry of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = loss_fn()
        flat[i] = keep - step
        down = loss_fn()
        flat[i] = keep
        gf[i] = (up - down) / (2.0 * step)
    return g


def _u(rng, *shape):
    return rng.uniform(-1.0, 1.0, shape)


def _worst(loss, pairs, step: float) -> float:
    """Worst rel_err of each (analytic, tensor) pair against fd_grad(loss, tensor)."""
    return max(rel_err(analytic, fd_grad(loss, t, step)) for analytic, t in pairs)


def _adjoint(rng, fwd, bwd, *inputs, step: float = STEP_PRIMITIVE) -> float:
    """Check ``bwd(g_out, *inputs)``, one gradient per input, against the loss
    sum(fwd(*inputs) * g_out), with g_out drawn here, after the inputs."""
    g_out = _u(rng, *fwd(*inputs).shape)
    loss = lambda: float(np.sum(fwd(*inputs) * g_out))
    return _worst(loss, zip(bwd(g_out, *inputs), inputs), step)


def _conv3x3(rng, shape, stride: int) -> float:
    def bwd(g, x, w):  # grad_w and stage 1's rule, stacked, both meet the one FD grad_w
        grad_x, grad_w = ops.conv3x3_bwd(x, w, g, stride)
        return grad_x, np.stack([grad_w, ops.conv3x3_bwd_weight(x, w, g, stride)])

    return _adjoint(rng, lambda x, w: ops.conv3x3_fwd(x, w, stride), bwd,
                    _u(rng, *shape), _u(rng, 3, shape[1], 3, 3))


def _off_kink(x):  # ReLU inputs away from 0, so central differences are valid
    return np.where(np.abs(x) < 0.05, 0.25, x)


def _cross_entropy(rng, n, k) -> float:
    logits, labels = _u(rng, n, k), rng.integers(0, k, n)
    grad = ops.cross_entropy_bwd(ops.cross_entropy_fwd(logits, labels)[1], labels)
    loss = lambda: ops.cross_entropy_fwd(logits, labels)[0]
    return _worst(loss, [(grad, logits)], STEP_PRIMITIVE)


def _dropout(rng, shape, channelwise: bool) -> float:
    mask = ops.dropout_mask(shape, 0.4, make_rng(1234), channelwise=channelwise,
                            dtype=np.float64)
    return _adjoint(rng, lambda x: ops.dropout_apply(x, mask),
                    lambda g, x: (ops.dropout_bwd(mask, g),), _u(rng, *shape))


def _sr_block(rng, shape, u, p) -> float:
    cfg = SRConfig(*shape[1:], u=u, p=p, allow_off_grid=True)
    params = sr_init(cfg, rng, dtype=np.float64)
    params.memory[:] = _u(rng, p, *shape[1:])

    def bwd(g_out, x, *_):
        grads, grad_x = sr_backward(params, sr_forward(params, x)[1], g_out)
        return grad_x, *(g for _, g in grads.items())

    return _adjoint(rng, lambda x, *_: sr_forward(params, x)[0], bwd, _u(rng, *shape),
                    *(t for _, t in params.items()), step=STEP_COMPOSITE)


_HOSTS = {  # --size -> micro_host row: stage width, image side, classes, p, batch
    "micro": (2, 4, 2, 2, 2),
    "small": (4, 8, 3, 3, 3),
}
_MASK_SEED = 99  # dropout masks must be identical across FD evaluations
_DRAWS = 20  # micro_host fixtures drawn before the row fails


def _micro_host(rng, size: str) -> float:
    """The host's 2-channel ReLUs often zero whole gradients, and zeros would
    match zeros: the fixture is redrawn until every tensor's gradient is nonzero."""
    width, side, classes, p, n = _HOSTS[size]
    sr = SRConfig(c=width, h=side // 4, w=side // 4, u=width, p=p, allow_off_grid=True)
    cfg = HostConfig(stage_channels=(width,) * 4, in_h=side, in_w=side, classes=classes,
                     sr_insert=3, sr=sr, dropout_kind="channel", dropout_p=0.25)
    for _ in range(_DRAWS):
        params = host_init(cfg, rng, dtype=np.float64)
        params.sr.memory[:] = 0.5 * _u(rng, *params.sr.memory.shape)
        x, labels = _u(rng, n, cfg.in_channels, side, side), rng.integers(0, classes, n)
        fwd = lambda: host_forward(params, x, "train", make_rng(_MASK_SEED))
        _, grads = host_backward(params, fwd()[1], labels)
        pairs = [(g, t) for (_, g), (_, t) in zip(grads.items(), params.items())]
        if all(g.any() for g, _ in pairs):
            loss = lambda: ops.cross_entropy_fwd(fwd()[0], labels)[0]
            return _worst(loss, pairs, STEP_COMPOSITE)
    return np.inf


def run_suite(size: str = "micro", seed: int = 0) -> list[CheckResult]:
    """Run every check; sizes scale the shapes, not the set of checks."""
    if size not in _HOSTS:
        raise ConfigError(f"size must be 'micro' or 'small', got {size!r}")
    rng = make_rng(seed)
    big = size == "small"
    shape = n, c, _, _ = (3, 4, 5, 5) if big else (2, 3, 4, 4)
    k = 5 if big else 4  # linear input width and softmax width
    checks = {  # run in this order: every check draws from the one rng
        "conv1x1": lambda: _adjoint(
            rng, ops.conv1x1_fwd, lambda g, x, w: ops.conv1x1_bwd(x, w, g),
            _u(rng, *shape), _u(rng, c)),
        "linear": lambda: _adjoint(
            rng, ops.linear_fwd, lambda g, x, w: ops.linear_bwd(x, w, g),
            _u(rng, n, k), _u(rng, 3, k)),
        "softmax": lambda: _adjoint(
            rng, ops.softmax_fwd, lambda g, z: (ops.softmax_bwd(ops.softmax_fwd(z), g),),
            _u(rng, n, k)),
        "conv3x3_s1": lambda: _conv3x3(rng, shape, 1),
        "conv3x3_s2": lambda: _conv3x3(rng, shape, 2),
        "relu": lambda: _adjoint(
            rng, ops.relu_fwd, lambda g, x: (ops.relu_bwd(x, g),),
            _off_kink(_u(rng, *shape))),
        "global_avgpool": lambda: _adjoint(
            rng, ops.global_avgpool_fwd,
            lambda g, x: (ops.global_avgpool_bwd(x.shape, g),), _u(rng, *shape)),
        "cross_entropy": lambda: _cross_entropy(rng, n, 5 if big else 3),
        "dropout_element": lambda: _dropout(rng, shape, False),
        "dropout_channel": lambda: _dropout(rng, shape, True),
        "sr_block": lambda: _sr_block(rng, shape, *((4, 4) if big else (3, 3))),
        "micro_host": lambda: _micro_host(rng, size),
    }
    return [CheckResult(name, check()) for name, check in checks.items()]
