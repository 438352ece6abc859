"""Deterministic synthetic image-classification data.

Each class gets a fixed template: oriented stripes whose frequency and
orientation derive from the class index, plus a Gaussian corner blob whose
corner cycles with the class. Samples are template + i.i.d. Gaussian
noise, clamped to [0, 1], then standardized per channel with statistics
computed on the training split only. Classes are (roughly) linearly
separable by construction, so a pixel-space linear probe is a meaningful
sanity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import make_rng

VAL_STRIDE = 10  # every 10th pool sample goes to validation: a fixed 90/10 split
_CORNERS = ((0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75))


@dataclass(frozen=True)
class SynthSpec:
    classes: int = 10
    per_class: int = 200
    per_class_test: int = 50
    channels: int = 3
    h: int = 32
    w: int = 32
    noise_sigma: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ConfigError(f"data.classes must be >= 2, got {self.classes}")
        for name in ("per_class", "per_class_test", "channels", "h", "w"):
            if getattr(self, name) < 1:
                raise ConfigError(f"data.{name} must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError(f"data.noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"data.seed must be in [0, 2**64), got {self.seed}")


@dataclass
class Dataset:
    """One split: images (m, c, h, w) float32 and labels (m,) int64."""

    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]


def class_template(spec: SynthSpec, k: int) -> np.ndarray:
    """Deterministic template for class ``k``, values in [0, 1], (c, h, w)."""
    yy = np.linspace(0.0, 1.0, spec.h, dtype=np.float32)[:, None]
    xx = np.linspace(0.0, 1.0, spec.w, dtype=np.float32)[None, :]
    theta = np.pi * k / spec.classes
    freq = 2.0 + (k % 5)
    cy, cx = _CORNERS[k % 4]
    blob = np.exp(-(((yy - cy) ** 2) + ((xx - cx) ** 2)) / (2.0 * 0.12 ** 2))
    channels = []
    for c in range(spec.channels):
        phase = 0.8 * c + 0.3 * k
        stripes = 0.5 + 0.5 * np.sin(
            2.0 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase
        )
        channels.append(np.clip(0.6 * stripes + 0.4 * blob, 0.0, 1.0))
    return np.stack(channels).astype(np.float32)


def synth_generate(spec: SynthSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Build (train, val, test) splits.

    Draw order is fixed: for each class, the training pool's noise first,
    then the test noise. The pool splits 90/10 train/val by stride (pool
    index i goes to validation when i % 10 == 9). Pixels are clamped to
    [0, 1] and standardized per channel using train-split statistics.
    """
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


def augment(batch: np.ndarray, rng: np.random.Generator, flip: bool) -> np.ndarray:
    """Random horizontal flip, each sample independently with probability 0.5.

    With flip disabled this is the identity (and consumes no draws);
    normalization is already baked into the dataset.
    """
    if not flip:
        return batch
    draws = rng.random(batch.shape[0])
    out = batch.copy()
    flipped = draws < 0.5
    out[flipped] = out[flipped, :, :, ::-1]
    return out
