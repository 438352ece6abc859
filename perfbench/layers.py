"""Per-layer metrics from the spans of a traced run.

Times are self times per unit of work (a training step, one SR forward
plus backward, one inspect round), in ms, summed over the timed pass and
divided by its unit count; work done once per round, such as evaluation
or checkpoint writing, is spread over the round's units. The set-up layers
(``data.synth_generate_ms``, ``config.load_ms``) are per set-up instead,
since they explain ``setup_s``.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

SELF_MS = {
    "ops.conv1x1_ms": ("ops.conv1x1_fwd", "ops.conv1x1_bwd"),
    "ops.linear_ms": ("ops.linear_fwd", "ops.linear_bwd"),
    "ops.softmax_ms": ("ops.softmax_fwd", "ops.softmax_bwd"),
    "ops.elementwise_ms": ("ops.relu_fwd", "ops.relu_bwd", "ops.dropout_mask",
                           "ops.dropout_apply", "ops.dropout_bwd", "ops.global_avgpool_fwd",
                           "ops.global_avgpool_bwd", "ops.flatten_fwd", "ops.flatten_bwd"),
    "ops.loss_ms": ("ops.cross_entropy_fwd", "ops.cross_entropy_bwd"),
    "sr_block.forward_ms": ("sr_block.sr_forward",),
    "sr_block.backward_ms": ("sr_block.sr_backward",),
    "sr_block.recall_ms": ("sr_block.recall_map",),
    "host.forward_self_ms": ("host.host_forward",),
    "host.backward_self_ms": ("host.host_backward",),
    "host.init_ms": ("host.host_init", "sr_block.sr_init"),
    "host.params_from_tensors_ms": ("host.params_from_tensors",),
    "data.augment_ms": ("data.augment",),
    "data.synth_generate_pass_ms": ("data.synth_generate",),
    "train.sgd_step_ms": ("train.sgd_step",),
    "train.evaluate_ms": ("train.evaluate",),
    "train.loop_self_ms": ("train.train",),
    "checkpoint.save_ms": ("checkpoint.save_checkpoint",),
    "checkpoint.load_ms": ("checkpoint.load_checkpoint",),
    "config.parse_ms": ("config.parse_config", "config.load_config"),
    "analysis.collect_activations_ms": ("analysis.collect_activations",),
    "analysis.feature_delta_ms": ("analysis.feature_delta",),
    "analysis.ablation_report_ms": ("analysis.ablation_report", "sr_block.sr_ablate"),
    "analysis.stats_ms": ("analysis.activation_stats", "analysis.memory_channel_means"),
    "analysis.write_ms": ("analysis.write_activations_csv", "analysis.write_delta_csv",
                          "analysis.write_ablation_csv", "analysis.write_pgm"),
}
SR_SPANS = ("sr_block.sr_forward", "sr_block.sr_backward")


def conv_flops(info) -> int:
    """Multiply-adds times two of one 3x3 conv forward, from its shapes."""
    (n, c, h, w), (o, _, _, _), stride = info
    return 2 * n * o * c * 9 * ((h - 1) // stride + 1) * ((w - 1) // stride + 1)


def layer_metrics(tracer, setup: range, timed: range, n_setups: int, units: list,
                  stages: dict) -> dict:
    """Per-layer values from spans ``setup`` (set-up phase) and ``timed``
    (traced pass, whose units are ``units``)."""
    spans, own = tracer.spans, tracer.self_times()
    n_units = len(units)
    per_name = defaultdict(float)
    conv = defaultdict(float)
    flops = busy = 0.0
    op_calls = forwarded = 0
    for i in timed:
        name, start, end, _, info = spans[i]
        per_name[name] += own[i]
        if name.startswith("ops."):
            op_calls += 1
        if name in ("ops.conv3x3_fwd", "ops.conv3x3_bwd"):
            stage = stages[(info[1][0], info[1][1])]
            conv[f"{name}.stage{stage}_ms"] += own[i]
            flops += conv_flops(info) * (1 if name.endswith("fwd") else 2)
            busy += own[i]
        if name == "host.host_forward" and any(
                a.startswith("analysis.") for a in tracer.ancestors(i)):
            forwarded += info

    out = {}
    for kind in ("fwd", "bwd"):
        for k in range(1, 5):
            key = f"ops.conv3x3_{kind}.stage{k}_ms"
            out[key] = 1e3 * conv[key] / n_units
    out["ops.conv3x3_gflop_s"] = flops / busy / 1e9 if busy else 0.0
    for metric, names in SELF_MS.items():
        out[metric] = 1e3 * sum(per_name[n] for n in names) / n_units
    out["ops.calls"] = op_calls / n_units
    out["analysis.samples_forwarded"] = forwarded / n_units
    out["sr_block.share_of_step_pct"] = sr_share(spans, timed, units)

    setup_time = defaultdict(float)
    for i in setup:
        name, start, end, _, _ = spans[i]
        setup_time[name] += end - start
    out["data.synth_generate_ms"] = 1e3 * setup_time["data.synth_generate"] / n_setups
    out["config.load_ms"] = 1e3 * setup_time["config.load_config"] / n_setups
    return out


def sr_share(spans, timed: range, units: list) -> float:
    """SR block time (inclusive) inside the units, as a percentage of the units' time."""
    starts = [u[0] for u in units]
    inside = 0.0
    for i in timed:
        name, start, end, _, _ = spans[i]
        if name in SR_SPANS:
            k = bisect.bisect_right(starts, start) - 1
            if k >= 0 and end <= units[k][1]:
                inside += end - start
    total = sum(end - start for start, end, _ in units)
    return 100.0 * inside / total


def coverage_pct(tracer, traced, span_cost: float) -> float:
    """Self time of all traced spans over the untraced wall time of the same
    rounds, which is their wall time less the wrappers' own cost."""
    own = tracer.self_times()
    busy = sum(own[i] for _, _, first, end in traced.rounds for i in range(first, end))
    wall = sum(d for d, _, _, _ in traced.rounds)
    n_spans = sum(end - first for _, _, first, end in traced.rounds)
    return 100.0 * busy / (wall - n_spans * span_cost)
