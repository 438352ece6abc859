"""SGD-with-momentum training loop at desk scale.

Recipe: SGD momentum 0.9, initial lr 0.1 decayed by 0.2 at fixed epochs,
weight decay 5e-4 applied to every tensor (the SR memory bank included,
unless ``decay_memory`` is off), random horizontal flips, early stopping
on validation accuracy, best-on-validation checkpoint selection. When the
epoch budget differs from the 200-epoch reference schedule, the decay
epochs scale proportionally, preserving their 30%/60%/80% positions.

Determinism: (seed, configs) fully determine the trained checkpoint.
One generator drives everything in a fixed consumption order: host init,
then per epoch the shuffle permutation, then per batch the flip draws
followed by the dropout masks inside the forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional

import numpy as np

from .data import VAL_STRIDE, Dataset, SynthSpec, augment, synth_generate
from .errors import ConfigError, NumericError
from .host import HostConfig, HostParams, host_backward, host_forward, host_init
from .rng import make_rng

DECAY_POSITIONS = (0.3, 0.6, 0.8)  # the 60/120/160-of-200 reference schedule
EVAL_BATCH = 256


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay_factor: float = 0.2
    decay_epochs: Optional[tuple[int, ...]] = None
    epochs: int = 30
    batch: int = 128
    early_stop_patience: int = 10
    flip_augment: bool = True
    decay_memory: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr0 <= 0:
            raise ConfigError(f"train.lr0 must be > 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"train.momentum must be in [0, 1), got {self.momentum}")
        if self.batch < 1:
            raise ConfigError(f"train.batch must be >= 1, got {self.batch}")
        if self.epochs < 0:
            raise ConfigError(f"train.epochs must be >= 0, got {self.epochs}")
        if self.weight_decay < 0:
            raise ConfigError(f"train.weight_decay must be >= 0, got {self.weight_decay}")
        if self.lr_decay_factor <= 0:
            raise ConfigError(f"train.lr_decay_factor must be > 0, got {self.lr_decay_factor}")
        if any(d < 0 for d in self.decay_epochs or ()):
            raise ConfigError(f"train.decay_epochs entries must be >= 0, got {self.decay_epochs}")
        if self.early_stop_patience < 0:
            raise ConfigError("train.early_stop_patience must be >= 0 (0 disables), "
                              f"got {self.early_stop_patience}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"train.seed must be in [0, 2**64), got {self.seed}")

    def resolved_decay_epochs(self) -> tuple[int, ...]:
        """Explicit decay epochs, or the scaled 30/60/80% positions."""
        if self.decay_epochs is not None:
            return tuple(sorted(self.decay_epochs))
        derived = {max(1, round(f * self.epochs)) for f in DECAY_POSITIONS}
        return tuple(sorted(d for d in derived if d < self.epochs))


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Step schedule: lr0 * factor^(number of decay epochs <= epoch)."""
    drops = sum(1 for d in cfg.resolved_decay_epochs() if epoch >= d)
    return cfg.lr0 * cfg.lr_decay_factor ** drops


def sgd_step(
    params: HostParams,
    grads: HostParams,
    velocity: dict[str, np.ndarray],
    cfg: TrainConfig,
    lr: float,
) -> None:
    """One in-place update: v <- m*v + g + wd*p; p <- p - lr*v. ``velocity``
    maps tensor names to momentum buffers, made as zeros on a name's first step."""
    lr = np.float32(lr)
    momentum = np.float32(cfg.momentum)
    pairs = list(zip_longest(params.items(), grads.items(), fillvalue=(None, None)))
    for (name, p), (gname, g) in pairs:  # check every tensor before updating any
        if name != gname or p.shape != g.shape:
            got = "no gradient" if g is None else f"gradient {gname} of shape {g.shape}"
            raise ConfigError(f"gradient mismatch for {name or gname}: got {got}")
    for (name, p), (_, g) in pairs:
        wd = cfg.weight_decay
        if name == "sr.memory" and not cfg.decay_memory:
            wd = 0.0
        v = velocity.get(name)
        if v is None:
            v = velocity[name] = np.zeros_like(p)
        v *= momentum
        v += g
        if wd:
            v += np.float32(wd) * p
        p -= lr * v


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_acc: float


@dataclass
class TrainResult:
    best_params: HostParams
    history: list[EpochStats]
    best_epoch: int
    best_val_acc: float


def eval_batches(params: HostParams, data: Dataset, ids: Optional[np.ndarray] = None):
    """Eval-mode ``host_forward`` over ``data`` in EVAL_BATCH chunks: every
    sample in order, as slices (no copy), or the samples ``ids`` names.
    Yields each chunk's (selection, logits, cache)."""
    for start in range(0, len(data if ids is None else ids), EVAL_BATCH):
        sel = slice(start, start + EVAL_BATCH) if ids is None else ids[start : start + EVAL_BATCH]
        logits, cache = host_forward(params, data.x[sel], "eval")
        yield sel, logits, cache


def evaluate(params: HostParams, data: Dataset) -> float:
    """Eval-mode classification accuracy on a split."""
    correct = sum(int((logits.argmax(axis=1) == data.y[sel]).sum())
                  for sel, logits, _ in eval_batches(params, data))
    return correct / len(data)


def check_fit(host_cfg: HostConfig, spec: SynthSpec, *splits: Dataset) -> None:
    """ConfigError naming the keys where the data cannot feed the host: an
    empty split of ``splits``, or an input shape or class count that differs."""
    if any(len(s) == 0 for s in splits):
        raise ConfigError(f"empty dataset split: data.per_class={spec.per_class} "
                          f"must be >= {VAL_STRIDE}")
    for host_key, data_key in (("classes", "classes"), ("in_channels", "channels"),
                               ("in_h", "h"), ("in_w", "w")):
        got, want = getattr(host_cfg, host_key), getattr(spec, data_key)
        if got != want:
            raise ConfigError(f"host.{host_key}={got} != data.{data_key}={want}")


def train(
    host_cfg: HostConfig,
    train_cfg: TrainConfig,
    spec: SynthSpec,
    splits: Optional[tuple[Dataset, Dataset, Dataset]] = None,
) -> TrainResult:
    """Full training run; returns the best-on-validation checkpoint.

    ``splits`` is ``synth_generate(spec)`` when the caller already has it.
    Ties on validation accuracy keep the earliest epoch. Early stopping
    fires after ``early_stop_patience`` epochs without improvement
    (disabled when the patience is 0).
    """
    train_set, val_set, _ = splits if splits is not None else synth_generate(spec)
    check_fit(host_cfg, spec, train_set, val_set)

    rng = make_rng(train_cfg.seed)
    params = host_init(host_cfg, rng)
    velocity: dict[str, np.ndarray] = {}
    best = params.copy()
    best_acc = -1.0
    best_epoch = -1
    stale = 0
    history: list[EpochStats] = []
    n = len(train_set)
    # Non-finite values end the run through the NumericError checks in ops,
    # so numpy's own overflow/invalid warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(train_cfg.epochs):
            lr = lr_at(train_cfg, epoch)
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, train_cfg.batch):
                idx = order[start : start + train_cfg.batch]
                xb = augment(train_set.x[idx], rng, train_cfg.flip_augment)
                yb = train_set.y[idx]
                try:
                    _, cache = host_forward(params, xb, "train", rng)
                    loss, grads = host_backward(params, cache, yb)
                except NumericError as e:
                    raise NumericError(f"training diverged at epoch {epoch}, batch "
                                       f"{start // train_cfg.batch}: {e}") from e
                sgd_step(params, grads, velocity, train_cfg, lr)
                losses.append(loss)
                del cache, grads  # hold one step's intermediates at a time
            val_acc = evaluate(params, val_set)
            history.append(EpochStats(epoch, lr, float(np.mean(losses)), val_acc))
            if val_acc > best_acc:
                best = params.copy()
                best_acc = val_acc
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
                patience = train_cfg.early_stop_patience
                if patience > 0 and stale >= patience:
                    break
    if best_epoch < 0:
        best_acc = 0.0
        best_epoch = 0
    return TrainResult(best, history, best_epoch, best_acc)
