"""The benchmark's tracer (perfbench/spans.py) against the current API.

perfbench wraps srkit's public functions by name and calls its span-info
functions with each call's own arguments, so a renamed traced function or
a changed signature breaks a traced benchmark run. This test loads
spans.py read-only and runs one small training step under its tracer, so
such a change fails here first.
"""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

from srkit.host import HostConfig
from srkit.rng import make_rng

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def srkit_module(short):
    return importlib.import_module(f"srkit.{short}")


def test_every_traced_name_exists(spans):
    for short, names in spans.TRACED.items():
        module = srkit_module(short)
        for name in names:
            assert callable(getattr(module, name, None)), f"srkit.{short}.{name}"


def test_one_training_step_under_the_tracer(spans):
    for short in spans.TRACED:
        srkit_module(short)  # the tracer patches loaded modules only
    host = srkit_module("host")
    cfg = HostConfig(stage_channels=(4, 4, 8, 8), in_h=16, in_w=16, classes=2,
                     sr_insert=3, dropout_kind="channel", dropout_p=0.25)
    params = host.host_init(cfg, make_rng(1))
    x = make_rng(2).uniform(-1, 1, (3, 3, 16, 16)).astype(np.float32)
    tracer = spans.Tracer()
    with tracer.active():
        _, cache = host.host_forward(params, x, "train", make_rng(3))
        host.host_backward(params, cache, np.array([0, 1, 1]))
    assert host.host_forward.__module__ == "srkit.host"  # originals restored
    names = [row[0] for row in tracer.spans]
    assert names.count("ops.conv3x3_fwd") == 4
    assert "ops.conv3x3_bwd" in names and "sr_block.sr_backward" in names
    for name, _, end, _, info in tracer.spans:
        assert end > 0.0
        if name.startswith("ops.conv3x3_"):
            assert info[1] in {w.shape for w in params.stage_w}


def test_ablation_report_forwards_each_batch_once(spans):
    """Tier-1 twin of perfbench's ``analysis.samples_forwarded``: the test
    split goes through the traced host_forward once."""
    for short in spans.TRACED:
        srkit_module(short)
    analysis, data, host = (srkit_module(s) for s in ("analysis", "data", "host"))
    cfg = HostConfig(stage_channels=(4, 4, 8, 8), in_h=16, in_w=16, classes=3,
                     sr_insert=3)
    params = host.host_init(cfg, make_rng(1))
    _, _, test_set = data.synth_generate(
        data.SynthSpec(classes=3, per_class=2, per_class_test=100, h=16, w=16, seed=8))
    batches = -(-len(test_set) // srkit_module("train").EVAL_BATCH)
    tracer = spans.Tracer()
    with tracer.active():
        analysis.ablation_report(params, test_set)
    forwards = [info for name, _, _, _, info in tracer.spans if name == "host.host_forward"]
    assert len(forwards) == batches == 2
    assert sum(forwards) == len(test_set)


def test_spans_stay_nested_with_conv_workers(spans, use_workers, monkeypatch):
    """The conv chunks run on worker threads that call no traced function, so
    the tracer's one stack still sees strictly nested spans."""
    for short in spans.TRACED:
        srkit_module(short)
    host, ops = srkit_module("host"), srkit_module("ops")
    use_workers(2)
    threads = set()
    patches = ops._conv3x3_patches

    def recording_patches(*args):
        threads.add(threading.current_thread().name)
        return patches(*args)

    monkeypatch.setattr(ops, "_conv3x3_patches", recording_patches)
    cfg = HostConfig(stage_channels=(4, 4, 8, 8), in_h=16, in_w=16, classes=2,
                     sr_insert=3, dropout_kind="channel", dropout_p=0.25)
    params = host.host_init(cfg, make_rng(1))
    n = 2 * ops._CHUNK + 5
    x = make_rng(2).uniform(-1, 1, (n, 3, 16, 16)).astype(np.float32)
    labels = np.arange(n) % 2
    tracer = spans.Tracer()
    with tracer.active():
        _, cache = host.host_forward(params, x, "train", make_rng(3))
        host.host_backward(params, cache, labels)
    assert any(name.startswith("srkit-conv") for name in threads)
    assert_nested(tracer.spans)
    assert sum(1 for row in tracer.spans if row[0] == "ops.conv3x3_fwd") == 4


def test_spans_stay_nested_with_sr_block_workers(spans, use_workers, pool_submissions):
    """The SR block's blocked passes call no traced function on the workers
    either: recall_map and conv1x1_bwd stay single spans inside the block's."""
    for short in spans.TRACED:
        srkit_module(short)
    sr_block = srkit_module("sr_block")
    use_workers(2)
    rng = make_rng(4)
    params = sr_block.sr_init(sr_block.SRConfig(c=512, h=16, w=16, u=16, p=10), rng)
    params.memory[:] = rng.standard_normal(params.memory.shape, dtype=np.float32)
    x = rng.random((17, 512, 16, 16), dtype=np.float32)
    tracer = spans.Tracer()
    with tracer.active():
        _, cache = sr_block.sr_forward(params, x)
        sr_block.sr_backward(params, cache, x)
    assert len(pool_submissions) > 0
    assert_nested(tracer.spans)
    assert [row[0] for row in tracer.spans] == [  # no span from a worker
        "sr_block.sr_forward", "ops.conv1x1_fwd", "ops.flatten_fwd", "ops.linear_fwd",
        "ops.linear_fwd", "ops.softmax_fwd", "sr_block.recall_map",
        "sr_block.sr_backward", "ops.softmax_bwd", "ops.linear_bwd", "ops.linear_bwd",
        "ops.flatten_bwd", "ops.conv1x1_bwd"]


def assert_nested(rows):
    """Every span lies inside its parent, and siblings do not overlap."""
    children = {}
    for name, start, end, parent, _ in rows:
        assert start <= end, name
        if parent >= 0:
            _, p_start, p_end, _, _ = rows[parent]
            assert p_start <= start and end <= p_end, name
        children.setdefault(parent, []).append((start, end))
    for kids in children.values():
        for (_, end), (start, _) in zip(kids, kids[1:]):
            assert end <= start
