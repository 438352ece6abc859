"""Interpretability readouts for a trained SR-augmented host.

Three views of what the block learned, mirrored to CSV (and PGM for the
spatial maps) so external tools can replot them:

  * per-class statistics of the softmax weights over memory blocks,
  * per-channel feature-map shift introduced by the block (mean absolute
    difference between its input and output, plus a relative percentage),
  * channel-mean heat maps of each memory block,

plus an ablation comparison (accuracy with the trained memory vs with the
memory zeroed), taken in one pass over the test split. Everything here is
read-only over the parameters.

The relative shift is defined as 100 * mean|out - in| / mean|in| per
channel (insertion points sit after a ReLU, so mean|in| equals the plain
channel mean that is also emitted; the raw numerator and denominator are
both in the CSV, so any alternative normalization can be recomputed).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .checkpoint import atomic_write_bytes
from .data import Dataset
from .errors import ConfigError
from .host import HostParams, host_forward, host_forward_from
from .sr_block import SRParams
from .train import EVAL_BATCH

SAMPLE_CAP_PER_CLASS = 50


@dataclass
class ActivationRecord:
    """Softmax weight vector of one sample at the SR block."""

    sample_id: int
    class_label: int
    alpha: np.ndarray


@dataclass
class ActivationStats:
    class_label: int
    mean: np.ndarray
    std: np.ndarray
    n_samples: int


@dataclass
class DeltaStats:
    """Per-channel feature-map shift for one class."""

    class_label: int
    pre_mean: np.ndarray
    post_mean: np.ndarray
    abs_delta: np.ndarray
    shift_pct: np.ndarray


def _require_sr(params: HostParams) -> SRParams:
    if params.sr is None or params.cfg.sr_insert is None:
        raise ConfigError("host has no SR block to analyze")
    return params.sr


def _sr_readout(params, data):
    """(ids, eval-mode host cache) per batch of the analyzed samples.

    The samples are the first ``SAMPLE_CAP_PER_CLASS`` of each class, in
    ascending id order.
    """
    _require_sr(params)
    taken: dict[int, int] = {}
    ids = []
    for i in range(len(data)):
        k = int(data.y[i])
        if taken.get(k, 0) < SAMPLE_CAP_PER_CLASS:
            taken[k] = taken.get(k, 0) + 1
            ids.append(i)
    for start in range(0, len(ids), EVAL_BATCH):
        chunk = ids[start : start + EVAL_BATCH]
        yield chunk, host_forward(params, data.x[chunk], "eval")[1]


def collect_activations(params: HostParams, data: Dataset) -> list[ActivationRecord]:
    """One record per analyzed sample, eval mode (dropout off)."""
    return [
        ActivationRecord(i, int(data.y[i]), cache.sr_cache.alpha[row].copy())
        for chunk, cache in _sr_readout(params, data)
        for row, i in enumerate(chunk)
    ]


def activation_stats(records: Iterable[ActivationRecord]) -> list[ActivationStats]:
    """Mean and unbiased std of alpha per class.

    Classes come back sorted by label; a single-record class has zero std
    by convention.
    """
    buckets: dict[int, list[np.ndarray]] = {}
    for r in records:
        buckets.setdefault(r.class_label, []).append(r.alpha)
    out = []
    for label in sorted(buckets):
        stack = np.stack(buckets[label]).astype(np.float64)
        mean = stack.mean(axis=0)
        std = np.zeros_like(mean) if len(stack) < 2 else stack.std(axis=0, ddof=1)
        out.append(ActivationStats(label, mean, std, stack.shape[0]))
    return out


def memory_channel_means(sr: SRParams) -> np.ndarray:
    """(p, h, w) maps: channel mean of each memory block."""
    return sr.memory.mean(axis=1)


def feature_delta(params: HostParams, data: Dataset) -> list[DeltaStats]:
    """Per-class, per-channel shift between the SR input and output maps.

    shift_pct = 100 * mean|out - in| / mean|in|; channels whose mean|in|
    is below 1e-12 get NaN as a not-a-value marker.
    """
    sums: dict[int, list] = {}  # class -> float64 sums of pre, post, |delta|; count
    for chunk, cache in _sr_readout(params, data):
        x = cache.sr_cache.x
        maps = (x, cache.sr_out, np.abs(cache.sr_out - x))
        labels = data.y[chunk]
        for k in np.unique(labels):
            sel = labels == k
            acc = sums.setdefault(int(k), [0, 0, 0, 0])
            for j, t in enumerate(maps):
                acc[j] += t[sel].sum(axis=(0, 2, 3), dtype=np.float64)
            acc[3] += int(sel.sum())
    out = []
    for k in sorted(sums):
        *totals, count = sums[k]
        denom = count * params.sr.cfg.h * params.sr.cfg.w
        pre_mean, post_mean, abs_delta = (t / denom for t in totals)
        abs_in = np.abs(pre_mean)  # insertion point is post-ReLU, so pre >= 0
        shift = np.where(
            abs_in < 1e-12, np.nan, 100.0 * abs_delta / np.maximum(abs_in, 1e-300)
        )
        out.append(DeltaStats(k, pre_mean, post_mean, abs_delta, shift))
    return out


def ablation_report(
    params: HostParams, test_set: Dataset
) -> tuple[float, float, float]:
    """(accuracy, accuracy with memory zeroed, signed difference).

    One pass over the split: each batch runs the full host once, and the
    zeroed-memory host re-runs only the stages after the SR block, on the
    block's input. The zeroed block returns ``x + 0``, which differs from
    ``x`` only in the sign of exact zeros; neither ``argmax`` nor ``==``
    sees a zero's sign, so both accuracies are bit-identical to
    ``evaluate`` on ``params`` and on ``params`` with ``sr_ablate``.
    """
    _require_sr(params)
    full = ablated = 0
    for start in range(0, len(test_set), EVAL_BATCH):
        xb = test_set.x[start : start + EVAL_BATCH]
        yb = test_set.y[start : start + EVAL_BATCH]
        logits, cache = host_forward(params, xb, "eval")
        full += int((logits.argmax(axis=1) == yb).sum())
        logits = host_forward_from(params, cache.sr_cache.x, params.cfg.sr_insert)
        ablated += int((logits.argmax(axis=1) == yb).sum())
    acc_full, acc_ablated = full / len(test_set), ablated / len(test_set)
    return acc_full, acc_ablated, acc_full - acc_ablated


# ---------------------------------------------------------------------------
# File outputs
# ---------------------------------------------------------------------------

def write_activations_csv(path: str, stats: list[ActivationStats]) -> None:
    """Header class,block_0..block_{p-1}; per class a mean row then a std row."""
    if not stats:
        raise ConfigError("no activation stats to write")
    p = stats[0].mean.shape[0]
    rows = [["class"] + [f"block_{i}" for i in range(p)]]
    for s in stats:
        rows.append([s.class_label] + [repr(float(v)) for v in s.mean])
        rows.append([s.class_label] + [repr(float(v)) for v in s.std])
    _write_csv(path, rows)


def write_delta_csv(path: str, deltas: list[DeltaStats]) -> None:
    rows = [["class", "channel", "pre_mean", "post_mean", "abs_delta", "shift_pct"]]
    for d in deltas:
        for ch in range(d.pre_mean.shape[0]):
            rows.append(
                [
                    d.class_label,
                    ch,
                    repr(float(d.pre_mean[ch])),
                    repr(float(d.post_mean[ch])),
                    repr(float(d.abs_delta[ch])),
                    repr(float(d.shift_pct[ch])),
                ]
            )
    _write_csv(path, rows)


def write_ablation_csv(path: str, acc_full: float, acc_ablated: float, delta: float) -> None:
    _write_csv(
        path,
        [
            ["acc_full", "acc_ablated", "delta"],
            [repr(acc_full), repr(acc_ablated), repr(delta)],
        ],
    )


def _write_csv(path: str, rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def write_pgm(path: str, image: np.ndarray) -> None:
    """8-bit binary PGM with per-file min/max normalization.

    min maps to 0 and max to 255; a constant map (zero range) writes all
    zeros. Raw floats live in the CSVs, so quantization loses nothing.
    """
    if image.ndim != 2:
        raise ConfigError("PGM export expects a 2-d map")
    lo = float(image.min())
    hi = float(image.max())
    if hi > lo:
        scaled = np.floor((image.astype(np.float64) - lo) / (hi - lo) * 255.0 + 0.5)
    else:
        scaled = np.zeros_like(image, dtype=np.float64)
    pixels = np.clip(scaled, 0, 255).astype(np.uint8)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + pixels.tobytes())
