"""Host CNN: init, forward/backward, SR integration, parameter accounting."""

import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from srkit import ops
from srkit.config import parse_config
from srkit.errors import ConfigError, DimensionError, UsageError
from srkit.host import (
    STAGE_STRIDES,
    HostConfig,
    host_backward,
    host_forward,
    host_init,
    host_param_count,
    param_shapes,
    params_from_tensors,
)
from srkit.rng import make_rng
from srkit.sr_block import SRConfig, sr_param_count

from oracles import fd_gradient, max_rel_err

MICRO = HostConfig(
    stage_channels=(2, 2, 2, 2),
    in_channels=3,
    in_h=4,
    in_w=4,
    classes=2,
    sr_insert=3,
    sr=SRConfig(c=2, h=1, w=1, u=2, p=2, allow_off_grid=True),
    dropout_kind="channel",
    dropout_p=0.25,
)


def test_stage_shapes_trace():
    cfg = HostConfig()
    assert cfg.stage_output_shape(1) == (16, 32, 32)
    assert cfg.stage_output_shape(2) == (32, 16, 16)
    assert cfg.stage_output_shape(3) == (64, 8, 8)
    assert cfg.stage_output_shape(4) == (64, 4, 4)


def test_resolved_sr_defaults():
    cfg = HostConfig(sr_insert=3)
    sr = cfg.resolved_sr()
    assert (sr.c, sr.h, sr.w, sr.u, sr.p) == (64, 8, 8, 8, 4)
    assert cfg.sr == SRConfig(c=64, h=8, w=8)  # derived when the host is built
    assert HostConfig().resolved_sr() is None and HostConfig().sr is None


def test_sr_shape_mismatch_rejected():
    with pytest.raises(ConfigError, match="does not match stage"):
        HostConfig(sr_insert=3, sr=SRConfig(c=32, h=8, w=8))


def test_init_deterministic_and_sr_presence():
    cfg = HostConfig(sr_insert=3)
    a, b = host_init(cfg, make_rng(5)), host_init(cfg, make_rng(5))
    for (_, ta), (_, tb) in zip(a.items(), b.items()):
        assert np.array_equal(ta, tb)
    assert a.sr is not None
    assert host_init(HostConfig(), make_rng(5)).sr is None


def test_forward_shapes_and_finiteness():
    cfg = HostConfig(sr_insert=3)
    params = host_init(cfg, make_rng(0))
    x = make_rng(1).uniform(-1, 1, (5, 3, 32, 32)).astype(np.float32)
    logits, cache = host_forward(params, x, "eval")
    assert logits.shape == (5, 10)
    assert np.all(np.isfinite(logits))
    assert cache.sr_cache.alpha.shape == (5, 4)


def test_zero_memory_sr_matches_plain_host():
    sr_cfg = HostConfig(sr_insert=3)
    with_sr = host_init(sr_cfg, make_rng(7))
    plain = host_init(HostConfig(), make_rng(8))
    for i in range(4):
        plain.stage_w[i][:] = with_sr.stage_w[i]
    plain.cls_w[:] = with_sr.cls_w
    x = make_rng(9).uniform(-1, 1, (4, 3, 32, 32)).astype(np.float32)
    a, _ = host_forward(with_sr, x, "eval")
    b, _ = host_forward(plain, x, "eval")
    assert np.array_equal(a, b)


def test_eval_dropout_is_identity():
    cfg = HostConfig(dropout_kind="channel", dropout_p=0.5)
    params = host_init(cfg, make_rng(2))
    x = make_rng(3).uniform(-1, 1, (3, 3, 32, 32)).astype(np.float32)
    a, _ = host_forward(params, x, "eval")
    b, _ = host_forward(params, x, "eval")
    assert np.array_equal(a, b)


def test_train_dropout_reproducible_gradients():
    params = host_init(MICRO, make_rng(4))
    x = make_rng(5).uniform(-1, 1, (3, 3, 4, 4)).astype(np.float32)
    labels = np.array([0, 1, 0])

    def run():
        logits, cache = host_forward(params, x, "train", make_rng(777))
        return host_backward(params, cache, labels)

    (l1, g1), (l2, g2) = run(), run()
    assert l1 == l2
    for (_, a), (_, b) in zip(g1.items(), g2.items()):
        assert np.array_equal(a, b)


def test_confident_logits_give_near_zero_gradients():
    params = host_init(MICRO, make_rng(6))
    x = make_rng(7).uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
    logits, _ = host_forward(params, x, "eval")
    labels = logits.argmax(axis=1)
    params.cls_w *= 200.0  # saturate the cross entropy in the right direction
    _, cache = host_forward(params, x, "train", make_rng(0))
    _, grads = host_backward(params, cache, labels)
    total = np.sqrt(sum(float((g ** 2).sum()) for _, g in grads.items()))
    assert total <= 1e-5


def test_backward_rejects_eval_cache():
    params = host_init(MICRO, make_rng(8))
    x = make_rng(9).uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
    _, cache = host_forward(params, x, "eval")
    with pytest.raises(UsageError):
        host_backward(params, cache, np.array([0, 1]))


def test_stage1_backward_computes_weight_gradient_only(monkeypatch):
    cfg = HostConfig(stage_channels=(4, 4, 8, 8), in_h=16, in_w=16, classes=2,
                     sr_insert=3)
    params = host_init(cfg, make_rng(11))
    x = make_rng(12).uniform(-1, 1, (3, 3, 16, 16)).astype(np.float32)
    calls = {"conv3x3_bwd": [], "conv3x3_bwd_weight": []}
    for name, calls_of in calls.items():
        def counted(*args, _fn=getattr(ops, name), _calls=calls_of):
            _calls.append(args)
            return _fn(*args)
        monkeypatch.setattr(ops, name, counted)
    _, cache = host_forward(params, x, "train", make_rng(13))
    _, grads = host_backward(params, cache, np.array([0, 1, 1]))
    assert len(calls["conv3x3_bwd"]) == 3 and len(calls["conv3x3_bwd_weight"]) == 1
    (stage1_args,) = calls["conv3x3_bwd_weight"]
    assert stage1_args[0] is cache.stage_in[0]
    monkeypatch.undo()
    assert np.array_equal(grads.stage_w[0], ops.conv3x3_bwd(*stage1_args)[1])


def test_relu_runs_in_place_on_each_conv_output(monkeypatch):
    """A train-mode cache keeps each conv output, rectified in place, as its
    stage output: no ReLU buffer, and dropout and the SR block leave it alone."""
    cfg = HostConfig(sr_insert=3, dropout_kind="channel", dropout_p=0.5)
    params = host_init(cfg, make_rng(14))
    x = make_rng(15).uniform(-1, 1, (2, 3, 32, 32)).astype(np.float32)
    convs = []

    def recorded(*args, _fn=ops.conv3x3_fwd):
        convs.append(_fn(*args))
        return convs[-1]

    monkeypatch.setattr(ops, "conv3x3_fwd", recorded)
    _, cache = host_forward(params, x, "train", make_rng(16))
    assert len(convs) == len(cache.stage_out) == 4
    assert all(out is conv for out, conv in zip(cache.stage_out, convs))
    assert cache.stage_in[1] is cache.stage_out[0]
    monkeypatch.undo()
    for s, out in enumerate(cache.stage_out):
        pre = ops.conv3x3_fwd(cache.stage_in[s], params.stage_w[s], STAGE_STRIDES[s])
        assert out.tobytes() == np.maximum(pre, 0).tobytes()


def test_micro_host_full_fd():
    rng = make_rng(10)
    params = host_init(MICRO, rng, dtype=np.float64)
    params.sr.memory[:] = 0.5 * rng.uniform(-1, 1, params.sr.memory.shape)
    x = rng.uniform(-1, 1, (2, 3, 4, 4))
    labels = rng.integers(0, 2, 2)

    def loss():
        logits, _ = host_forward(params, x, "train", make_rng(55))
        return ops.cross_entropy_fwd(logits, labels)[0]

    _, cache = host_forward(params, x, "train", make_rng(55))
    returned, grads = host_backward(params, cache, labels)
    assert returned == loss()
    grad_map = dict(grads.items())
    for name, tensor in params.items():
        fd = fd_gradient(loss, tensor, step=1e-4)
        assert max_rel_err(grad_map[name], fd) < 1e-3, name


PARAM_CONFIGS = {"no_sr": HostConfig(),
                 **{f"sr_stage{s}": HostConfig(sr_insert=s) for s in range(1, 5)},
                 "micro": MICRO}


def _fresh_copies(src, dst):
    """Every (name, tensor) of ``dst`` equals ``src``'s under the same name
    and shares no memory with it."""
    for (na, a), (nb, b) in zip(src.items(), dst.items(), strict=True):
        assert na == nb and np.array_equal(a, b) and not np.shares_memory(a, b), na


@pytest.mark.parametrize("cfg", PARAM_CONFIGS.values(), ids=PARAM_CONFIGS.keys())
def test_param_count_delta_is_sr_count(cfg):
    params = host_init(cfg, make_rng(0))
    assert [n for n, _ in params.items()] == list(param_shapes(cfg))
    sr, sr_count = cfg.resolved_sr(), 0
    if sr is not None:  # the README's formula, kept here as the reference
        sr_count = sr.c + sr.h * sr.w * sr.u + sr.u * sr.p + sr.p * sr.c * sr.h * sr.w
        assert sr_param_count(sr) == sr_count
    assert host_param_count(cfg) + sr_count == sum(
        t.size for _, t in params.items())


@pytest.mark.parametrize("cfg", PARAM_CONFIGS.values(), ids=PARAM_CONFIGS.keys())
def test_params_from_tensors_roundtrip_and_errors(cfg):
    params = host_init(cfg, make_rng(11))
    rebuilt = params_from_tensors(cfg, dict(params.items()))
    assert [n for n, _ in rebuilt.items()] == list(param_shapes(cfg))
    _fresh_copies(params, rebuilt)
    _fresh_copies(params, params.copy())
    if params.sr is not None:
        _fresh_copies(params.sr, params.sr.copy())
    tensors = dict(params.items())
    del tensors["cls.w"]
    with pytest.raises(ConfigError, match="cls.w"):
        params_from_tensors(cfg, tensors)


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError, match="dropout_kind"):
        HostConfig(dropout_kind="spatial")
    with pytest.raises(ConfigError, match="dropout_p"):
        HostConfig(dropout_kind="channel", dropout_p=1.0)
    with pytest.raises(ConfigError, match="sr_insert"):
        HostConfig(sr_insert=5)
    with pytest.raises(ConfigError, match="mode"):
        params = host_init(MICRO, make_rng(0))
        host_forward(params, np.zeros((1, 3, 4, 4), dtype=np.float32), "predict")


def test_input_of_wrong_rank_or_channels_is_named():
    params = host_init(MICRO, make_rng(0))
    with pytest.raises(DimensionError, match="x must be rank 4"):
        host_forward(params, np.zeros((3, 4, 4), dtype=np.float32))
    with pytest.raises(DimensionError, match="x: channel axis is 2, expected 3"):
        host_forward(params, np.zeros((1, 2, 4, 4), dtype=np.float32))


def _forward_ms_plain_zero_random(doc, repeats=15, batch=32):
    """Median eval-forward ms of the host in `doc` without SR, with SR at zero
    memory and with SR over a random memory bank, timed in turns so that a
    drift of the machine's speed hits all three alike."""
    cfg = parse_config(doc).host
    rng = make_rng(0)
    x = rng.uniform(-1.0, 1.0, (batch, cfg.in_channels, cfg.in_h, cfg.in_w)).astype(np.float32)
    variants = [host_init(replace(cfg, sr_insert=None, sr=None), make_rng(0)),
                host_init(cfg, make_rng(0)), host_init(cfg, make_rng(0))]
    variants[2].sr.memory[:] = rng.standard_normal(variants[2].sr.memory.shape, dtype=np.float32)
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


def test_default_host_overhead_under_recorded_bound():
    """SR at stage 3 of the stock host: this helper read medians of 7-13%
    of a forward pass on 2 CPUs, and 5.0% (quartiles 4.7-5.3%, none of 60
    calls at 15%) since the calling thread runs conv blocks too; 15% is the
    recorded bound. One retry."""
    for attempt in range(2):
        plain, _, sr = _forward_ms_plain_zero_random({"host": {"sr_insert": 3}})
        pct = 100.0 * (sr - plain) / plain
        if pct < 15.0:
            return
    pytest.fail(f"SR forward overhead {pct:.2f}% exceeds the 15% bound")


def test_zero_memory_sr_strictly_slower_than_plain():
    """The block always computes its squeeze/FCN path; one retry absorbs
    scheduler noise in this environment."""
    doc = {"host": {"sr_insert": 1, "sr": {"c": 16, "h": 32, "w": 32, "u": 32, "p": 20}}}
    for attempt in range(2):
        plain, zero_memory, _ = _forward_ms_plain_zero_random(doc)
        if zero_memory > plain:
            return
    pytest.fail(f"zero-memory SR not slower than plain host: {zero_memory:.3f} vs {plain:.3f} ms")
