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
    then the test noise. Every split is class-major: all of class 0's
    samples in draw order, then class 1's, and so on. The pool splits 90/10
    train/val by stride (pool index i goes to validation when i % 10 == 9).
    Pixels are clamped to [0, 1] and standardized per channel using
    train-split statistics.
    """
    rng = make_rng(spec.seed)
    img_shape = (spec.channels, spec.h, spec.w)
    draws = [rng.standard_normal((n, *img_shape), dtype=np.float32)
             for _ in range(spec.classes) for n in (spec.per_class, spec.per_class_test)]
    pool, test = np.stack(draws[0::2]), np.stack(draws[1::2])  # (classes, samples, c, h, w)
    del draws
    val_sel = np.arange(spec.per_class) % VAL_STRIDE == VAL_STRIDE - 1
    splits = [pool.compress(~val_sel, axis=1), pool.compress(val_sel, axis=1), test]
    del pool  # the splits hold copies
    templates = np.stack([class_template(spec, k) for k in range(spec.classes)])[:, None]
    for x in splits:  # template + noise_sigma * noise, clamped to [0, 1]
        x *= spec.noise_sigma
        x += templates
        np.clip(x, 0.0, 1.0, out=x)

    tx = splits[0].reshape(-1, *img_shape)
    mean = tx.mean(axis=(0, 2, 3), dtype=np.float64, keepdims=True).astype(np.float32)
    std = tx.std(axis=(0, 2, 3), dtype=np.float64, keepdims=True).astype(np.float32)
    std = np.maximum(std, np.float32(1e-6))
    labels = np.arange(spec.classes, dtype=np.int64)
    for x in splits:
        x -= mean
        x /= std
    return tuple(Dataset(x.reshape(-1, *img_shape), np.repeat(labels, x.shape[1]))
                 for x in splits)


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
