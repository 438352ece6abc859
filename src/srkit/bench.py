"""Micro-benchmark separating structural from memory-content overhead.

Times the host forward in three variants over the same inputs: without
the SR block, with a freshly initialized block (zero memory), and with a
randomized memory bank standing in for a trained one. Zero and non-zero
memory cost the same arithmetic, so any gap between the last two is
noise; the gap to the plain host is the block's structural cost.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .host import HostConfig, host_forward, host_init
from .rng import make_rng


@dataclass
class BenchResult:
    t_plain_ms: float
    t_zero_memory_ms: float
    t_sr_ms: float

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.t_sr_ms - self.t_plain_ms) / self.t_plain_ms


def _median_forward_ms(variants, x: np.ndarray, repeats: int) -> list[float]:
    """Median eval-forward ms per params, timed in turns so drift hits all alike."""
    for _ in range(3):  # warm allocators and caches before timing
        for params in variants:
            host_forward(params, x, "eval")
    times = [[] for _ in variants]
    for _ in range(repeats):
        for params, params_times in zip(variants, times):
            t0 = time.perf_counter()
            host_forward(params, x, "eval")
            params_times.append((time.perf_counter() - t0) * 1000.0)
    return [statistics.median(t) for t in times]


def run_bench(
    host_cfg: HostConfig, repeats: int, batch: int = 32, seed: int = 0
) -> BenchResult:
    """Median forward times in milliseconds for the three variants."""
    if repeats < 3:
        raise ConfigError(f"bench repeats must be >= 3, got {repeats}")
    if host_cfg.sr_insert is None:
        raise ConfigError("bench needs a host config with an SR insertion point")
    rng = make_rng(seed)
    x = rng.uniform(-1.0, 1.0, (batch, host_cfg.in_channels, host_cfg.in_h, host_cfg.in_w)).astype(np.float32)

    plain_cfg = replace(host_cfg, sr_insert=None, sr=None)
    plain = host_init(plain_cfg, make_rng(seed))
    zero_mem = host_init(host_cfg, make_rng(seed))
    trained_like = host_init(host_cfg, make_rng(seed))
    trained_like.sr.memory[:] = rng.standard_normal(
        trained_like.sr.memory.shape, dtype=np.float32
    )

    return BenchResult(*_median_forward_ms((plain, zero_mem, trained_like), x, repeats))
