"""Span tracing around srkit's public functions, from outside the package.

srkit has no timers of its own. The benchmark replaces each traced
function, in every srkit module that refers to it, with a wrapper that
records a span (name, start, end, parent, info) in memory, and puts the
originals back afterwards. A layer's self time is its span's duration
minus the durations of the spans it directly contains; calls are
single-threaded and strictly nested, so child spans never overlap.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# module -> public functions traced in it
TRACED = {
    "ops": (
        "conv3x3_fwd", "conv3x3_bwd", "conv1x1_fwd", "conv1x1_bwd",
        "linear_fwd", "linear_bwd", "softmax_fwd", "softmax_bwd",
        "relu_fwd", "relu_bwd", "global_avgpool_fwd", "global_avgpool_bwd",
        "cross_entropy_fwd", "cross_entropy_bwd", "dropout_mask",
        "dropout_apply", "dropout_bwd", "flatten_fwd", "flatten_bwd",
    ),
    "sr_block": ("sr_init", "sr_forward", "sr_backward", "recall_map", "sr_ablate"),
    "host": ("host_init", "host_forward", "host_backward", "params_from_tensors"),
    "data": ("synth_generate", "augment"),
    "train": ("train", "evaluate", "sgd_step"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "config": ("load_config", "parse_config"),
    "analysis": (
        "collect_activations", "activation_stats", "feature_delta",
        "ablation_report", "memory_channel_means", "write_activations_csv",
        "write_delta_csv", "write_ablation_csv", "write_pgm",
    ),
}


def _conv_fwd_info(x, weight, stride=1):
    return (x.shape, weight.shape, stride)


def _conv_bwd_info(x, weight, grad_out, stride=1):
    return (x.shape, weight.shape, stride)


def _batch_info(params, x, mode="eval", rng=None):
    return x.shape[0]


# span name -> function of the call's arguments whose result is kept as the span's info
INFO = {
    "ops.conv3x3_fwd": _conv_fwd_info,
    "ops.conv3x3_bwd": _conv_bwd_info,
    "host.host_forward": _batch_info,
}


@contextmanager
def patched(replacements: dict):
    """Swap functions for replacements in every loaded srkit module; restore on exit."""
    undo = []
    try:
        for mod in [m for n, m in sys.modules.items() if n.startswith("srkit.")]:
            for attr, value in list(vars(mod).items()):
                new = replacements.get(id(value))
                if new is not None and new[0] is value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, new[1])
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


class Tracer:
    """Records spans while active; ``spans`` rows are [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter, INFO.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          info(*args, **kwargs) if info else None])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def active(self):
        replacements = {}
        for short, names in TRACED.items():
            mod = sys.modules[f"srkit.{short}"]
            for fname in names:
                fn = getattr(mod, fname)
                replacements[id(fn)] = (fn, self._wrap(fn, f"{short}.{fname}"))
        with patched(replacements):
            yield self

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, in recording order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to a call, timed on a no-op."""
    def noop():
        return None

    traced = Tracer()._wrap(noop, "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - t1 - (t1 - t0)) / calls
