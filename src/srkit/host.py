"""Small staged CNN host with an optional Squeeze-and-Remember insertion.

Four plain conv3x3+ReLU stages (strides 1, 2, 2, 2; no batch norm, no
residuals, bias-free), optional dropout on the stage-3/stage-4 outputs,
the SR block directly after its stage's dropout, then global average
pooling and a linear classifier. Deliberately simple so every gradient is
hand-verifiable and training is bit-deterministic; the SR block is the
object under study, the host is a fixture. ``host_forward_from`` runs
only the stages after a given one, without the SR block: the host with
its memory zeroed, from the block's input on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .errors import ConfigError, UsageError
from .sr_block import (
    SRConfig,
    SRParams,
    sr_backward,
    sr_forward,
    sr_init,
    sr_shapes,
)
from .tensor import check_axis, check_nchw

STAGE_STRIDES = (1, 2, 2, 2)
DROPOUT_STAGES = (3, 4)  # 1-based stages whose outputs get dropout
DROPOUT_KINDS = ("none", "element", "channel")


@dataclass(frozen=True)
class HostConfig:
    """Checked when built. With ``sr_insert`` set and no ``sr``, ``sr`` becomes
    the default block at that stage's output shape, which a given one must
    match; a ``replace`` moving ``sr_insert`` passes ``sr=None`` to derive it anew."""

    stage_channels: tuple[int, int, int, int] = (16, 32, 64, 64)
    in_channels: int = 3
    in_h: int = 32
    in_w: int = 32
    classes: int = 10
    sr_insert: Optional[int] = None
    sr: Optional[SRConfig] = None
    dropout_kind: str = "none"
    dropout_p: float = 0.0

    def __post_init__(self) -> None:
        if len(self.stage_channels) != 4 or any(c < 1 for c in self.stage_channels):
            raise ConfigError(
                f"host.stage_channels must be 4 positive counts, got {self.stage_channels}"
            )
        for name in ("in_channels", "in_h", "in_w", "classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"host.{name} must be >= 1")
        if self.dropout_kind not in DROPOUT_KINDS:
            raise ConfigError(f"host.dropout_kind must be one of {DROPOUT_KINDS}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"host.dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.sr_insert is not None:
            if self.sr_insert not in (1, 2, 3, 4):
                raise ConfigError(
                    f"host.sr_insert must be a stage in 1..4, got {self.sr_insert}"
                )
            c, h, w = self.stage_output_shape(self.sr_insert)
            if self.sr is None:  # the block squeezes its stage's output
                object.__setattr__(self, "sr", SRConfig(c, h, w))
            if (self.sr.c, self.sr.h, self.sr.w) != (c, h, w):
                raise ConfigError(
                    f"host.sr shape ({self.sr.c},{self.sr.h},{self.sr.w}) does not match stage "
                    f"{self.sr_insert} output ({c},{h},{w})"
                )

    def stage_output_shape(self, stage: int) -> tuple[int, int, int]:
        """(c, h, w) of a 1-based stage's output, tracing the stride schedule."""
        h, w = self.in_h, self.in_w
        for s in STAGE_STRIDES[:stage]:
            h = (h + 2 - 3) // s + 1
            w = (w + 2 - 3) // s + 1
        return self.stage_channels[stage - 1], h, w

    def resolved_sr(self) -> Optional[SRConfig]:
        """The block inserted into the host, or None when ``sr_insert`` is
        None (an ``sr`` without an insertion point is only counted)."""
        return None if self.sr_insert is None else self.sr


@dataclass
class HostParams:
    """Conv stage weights, classifier matrix, and the optional SR block."""

    cfg: HostConfig
    stage_w: list[np.ndarray]
    cls_w: np.ndarray
    sr: Optional[SRParams] = None

    def items(self):
        """Named tensors in the fixed update/serialization order."""
        for i, w in enumerate(self.stage_w):
            yield f"stage{i + 1}.w", w
        yield "cls.w", self.cls_w
        if self.sr is not None:
            for name, t in self.sr.items():
                yield f"sr.{name}", t

    def copy(self) -> "HostParams":
        return HostParams(
            cfg=self.cfg,
            stage_w=[w.copy() for w in self.stage_w],
            cls_w=self.cls_w.copy(),
            sr=self.sr.copy() if self.sr is not None else None,
        )


@dataclass
class HostCache:
    """Intermediates from host_forward needed by host_backward."""

    mode: str
    stage_in: list[np.ndarray]
    stage_out: list[np.ndarray]
    dropout_masks: dict[int, np.ndarray]
    sr_cache: object
    sr_out: Optional[np.ndarray]
    pooled: Optional[np.ndarray] = None
    logits: Optional[np.ndarray] = None


def param_shapes(cfg: HostConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter tensor, in items() order."""
    chans = (cfg.in_channels,) + tuple(cfg.stage_channels)
    shapes = {f"stage{i}.w": (chans[i], chans[i - 1], 3, 3) for i in range(1, 5)}
    shapes["cls.w"] = (cfg.classes, chans[-1])
    sr_cfg = cfg.resolved_sr()
    if sr_cfg is not None:
        shapes.update({f"sr.{k}": shape for k, shape in sr_shapes(sr_cfg).items()})
    return shapes


def kaiming_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], dtype=np.float32
) -> np.ndarray:
    """Kaiming-uniform draw, framework-default variant: U(+-sqrt(1/fan_in))
    with fan_in = prod(shape[1:])."""
    bound = float(np.sqrt(1.0 / math.prod(shape[1:])))
    return rng.uniform(-bound, bound, shape).astype(dtype)


def host_init(
    cfg: HostConfig, rng: np.random.Generator, dtype=np.float32
) -> HostParams:
    """Initialize the host; draw order: stage 1..4 convs, classifier, SR."""
    drawn = [kaiming_uniform(rng, shape, dtype)
             for name, shape in param_shapes(cfg).items() if not name.startswith("sr.")]
    sr_cfg = cfg.resolved_sr()
    sr = None if sr_cfg is None else sr_init(sr_cfg, rng, dtype)
    return HostParams(cfg, drawn[:4], drawn[4], sr)


def host_forward(
    params: HostParams,
    x: np.ndarray,
    mode: str = "eval",
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, HostCache]:
    """Run the host; returns (logits, cache).

    Train mode applies dropout to the stage-3/4 outputs (drawing masks
    from ``rng``) and fills a cache usable by host_backward; eval mode is
    mask-free and fully deterministic.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = params.cfg
    check_axis(check_nchw(x)[1], cfg.in_channels, "channel")
    use_dropout = (
        mode == "train" and cfg.dropout_kind != "none" and cfg.dropout_p > 0.0
    )
    if use_dropout and rng is None:
        raise UsageError("train-mode dropout needs an rng")

    cache = HostCache(mode, [], [], {}, None, None)
    cache.pooled, cache.logits = _stages(params, x, 1, cache,
                                         rng if use_dropout else None)
    return cache.logits, cache


def host_forward_from(params: HostParams, act: np.ndarray, stage: int) -> np.ndarray:
    """Eval logits of the host without its SR block, from ``act``, the
    output of 1-based ``stage`` (0: the input image): conv→ReLU for the
    later stages, then pooling and the classifier; no dropout, no cache.
    On ``cache.sr_cache.x`` this is the host with its memory zeroed, whose block
    returns ``x + 0``."""
    if stage not in range(5):
        raise UsageError(f"stage must be in 0..4, got {stage}")
    return _stages(params, act, stage + 1)[1]


def _stages(
    params: HostParams,
    act: np.ndarray,
    first: int,
    cache: Optional[HostCache] = None,
    dropout_rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(pooled, logits) from stages ``first``..4 on ``act``.

    With a cache, each stage's input and ReLU output are recorded, the
    SR block runs at its stage and dropout masks are drawn from
    ``dropout_rng`` when one is given; without one, only conv→ReLU runs.
    """
    cfg = params.cfg
    for stage in range(first, 5):
        pre = ops.conv3x3_fwd(act, params.stage_w[stage - 1], STAGE_STRIDES[stage - 1])
        if cache is not None:
            cache.stage_in.append(act)
        act = ops.relu_fwd(pre, pre)  # in place: the conv output is a fresh array
        if cache is None:
            continue
        cache.stage_out.append(act)
        if dropout_rng is not None and stage in DROPOUT_STAGES:
            mask = ops.dropout_mask(
                act.shape,
                cfg.dropout_p,
                dropout_rng,
                channelwise=(cfg.dropout_kind == "channel"),
                dtype=act.dtype,
            )
            cache.dropout_masks[stage] = mask
            act = ops.dropout_apply(act, mask)
        if cfg.sr_insert == stage:
            act, cache.sr_cache = sr_forward(params.sr, act)
            cache.sr_out = act
    pooled = ops.global_avgpool_fwd(act)
    return pooled, ops.linear_fwd(pooled, params.cls_w)


def host_backward(
    params: HostParams, cache: HostCache, labels: np.ndarray
) -> tuple[float, HostParams]:
    """(loss, grads): the mean cross-entropy and, HostParams-shaped, its
    gradient for every parameter tensor, both from one ``cross_entropy_fwd``.

    The cache must come from a matching train-mode forward.
    """
    if cache.mode != "train":
        raise UsageError("host_backward needs a train-mode cache")
    cfg = params.cfg
    loss, probs = ops.cross_entropy_fwd(cache.logits, labels)
    grad_logits = ops.cross_entropy_bwd(probs, labels)
    grad_pooled, grad_cls = ops.linear_bwd(cache.pooled, params.cls_w, grad_logits)

    last = cache.stage_out[3].shape  # stage-4 output shape
    grad_act = ops.global_avgpool_bwd(last, grad_pooled)
    grad_stage_w = [None] * 4
    grad_sr = None
    for stage in range(4, 0, -1):
        if cfg.sr_insert == stage:
            grad_sr, grad_act = sr_backward(params.sr, cache.sr_cache, grad_act)
        if stage in cache.dropout_masks:
            grad_act = ops.dropout_bwd(cache.dropout_masks[stage], grad_act)
        # grad_act is always a fresh array of ours; the mask is read off the ReLU output
        grad_pre = ops.relu_bwd(cache.stage_out[stage - 1], grad_act, grad_act)
        args = (cache.stage_in[stage - 1], params.stage_w[stage - 1], grad_pre,
                STAGE_STRIDES[stage - 1])
        if stage == 1:  # the input image needs no gradient
            grad_stage_w[0] = ops.conv3x3_bwd_weight(*args)
        else:
            grad_act, grad_stage_w[stage - 1] = ops.conv3x3_bwd(*args)
    return loss, HostParams(cfg, grad_stage_w, grad_cls, grad_sr)


def params_from_tensors(cfg: HostConfig, tensors: dict[str, np.ndarray]) -> HostParams:
    """Rebuild HostParams from checkpoint tensors named as items() yields;
    a missing, misshapen or unknown tensor raises ConfigError naming it."""
    shapes = param_shapes(cfg)
    unknown = sorted(set(tensors) - set(shapes))
    if unknown:
        raise ConfigError(f"checkpoint has unknown tensor {unknown[0]!r}")
    t = {}
    for name, expected in shapes.items():
        if name not in tensors:
            raise ConfigError(f"checkpoint is missing tensor {name!r}")
        if tensors[name].shape != expected:
            raise ConfigError(f"checkpoint tensor {name!r} has shape "
                              f"{tensors[name].shape}, expected {expected}")
        t[name] = tensors[name].copy()
    sr_cfg = cfg.resolved_sr()
    sr = None if sr_cfg is None else SRParams(
        sr_cfg, **{k[3:]: v for k, v in t.items() if k.startswith("sr.")})
    return HostParams(cfg, [t[f"stage{i}.w"] for i in range(1, 5)], t["cls.w"], sr)


def host_param_count(cfg: HostConfig) -> int:
    """Scalar parameters of the host without its SR block."""
    return sum(math.prod(shape) for name, shape in param_shapes(cfg).items()
               if not name.startswith("sr."))
