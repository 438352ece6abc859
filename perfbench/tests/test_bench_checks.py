"""Each correctness check passes on the program's output and fails on a
corrupted one: a perturbed logit, two swapped memory blocks, a flipped
checkpoint byte, and a few more."""

import os

import numpy as np
import pytest

import checks
import reference
import workloads
import srkit.analysis as analysis
import srkit.checkpoint as checkpoint
import srkit.config as config
import srkit.data as data
import srkit.host as host
import srkit.sr_block as sr_block
import srkit.train as train
from srkit.errors import SrkitError
from srkit.rng import make_rng

SMALL = {"host": {"stage_channels": [4, 6, 8, 8], "in_h": 8, "in_w": 8, "classes": 3},
         "data": {"classes": 3, "per_class": 10, "per_class_test": 20, "h": 8, "w": 8}}


def swap_blocks(memory):
    out = memory.copy()
    out[[0, 1]] = out[[1, 0]]
    return out


@pytest.fixture
def small_train(tmp_path, monkeypatch):
    """A TrainDefault whose round output is a small seeded host, not a 7-epoch run."""
    wl = workloads.TrainDefault(0, str(tmp_path))
    wl.run = config.parse_config(SMALL)
    _, _, wl.test = data.synth_generate(wl.run.data)
    rng = make_rng(0)
    params = host.host_init(wl.run.host, rng)
    params.sr.memory[:] = rng.standard_normal(params.sr.memory.shape, dtype=np.float32)
    wl.result = train.TrainResult(params, [], 0, 0.0)
    wl.test_acc = train.evaluate(params, wl.test)
    wl.checkpoint_path = str(tmp_path / "model.srck")
    checkpoint.save_checkpoint(wl.checkpoint_path,
                               {"config": wl.run.to_dict(), "test_acc": wl.test_acc},
                               dict(params.items()))
    monkeypatch.setattr(checks, "ACCURACY_FLOOR", -1.0)  # an untrained host
    return wl


def test_train_checks_pass(small_train):
    assert small_train.check() == []


def test_perturbed_logit_fails(small_train, monkeypatch):
    forward = host.host_forward

    def perturbed(*args, **kwargs):
        logits, cache = forward(*args, **kwargs)
        logits = logits.copy()
        logits[3, 1] += 1e-2
        return logits, cache

    monkeypatch.setattr(host, "host_forward", perturbed)
    assert any("logits" in f for f in small_train.check())


@pytest.mark.parametrize("where", ["data", "header"])
def test_flipped_checkpoint_byte_fails(small_train, where):
    with open(small_train.checkpoint_path, "rb") as f:
        blob = bytearray(f.read())
    blob[len(blob) - 1 if where == "data" else 6] ^= 0x40
    with open(small_train.checkpoint_path, "wb") as f:
        f.write(bytes(blob))
    try:
        failures = small_train.check()
    except SrkitError as e:  # the program's loader may reject the file outright
        failures = [repr(e)]
    assert failures


def test_wrong_accuracy_fails(small_train):
    small_train.test_acc += 1.0 / len(small_train.test)
    assert any("accuracy" in f for f in small_train.check())


def test_accuracy_floor():
    logits = np.eye(3)[[0, 1, 2, 0]] * 5.0
    labels = np.array([0, 1, 2, 1])
    assert checks.accuracy_matches(0.75, logits, labels, floor=0.5) == []
    assert checks.accuracy_matches(0.75, logits, labels, floor=0.8)


def test_roundtrip_detects_changed_bytes():
    assert checks.same_bytes("x", b"abc", b"abc") == []
    assert checks.same_bytes("x", b"abc", b"abd")


@pytest.fixture(scope="module")
def sr_run(tmp_path_factory):
    wl = workloads.SrBlockResnet(3, str(tmp_path_factory.mktemp("sr")))
    wl.setup()
    wl.round([])
    return wl


def test_sr_checks_pass(sr_run):
    assert sr_run.check() == []


def test_swapped_memory_gradient_blocks_fail(sr_run, monkeypatch):
    grads = sr_run.grads
    monkeypatch.setattr(sr_run, "grads",
                        sr_block.SRParams(grads.cfg, grads.squeeze_w, grads.fc1_w,
                                          grads.fc2_w, swap_blocks(grads.memory)))
    assert any("memory" in f for f in sr_run.check())


def test_output_from_swapped_memory_blocks_fails(sr_run, monkeypatch):
    swapped = sr_run.params.copy()
    swapped.memory = swap_blocks(swapped.memory)
    out, _ = sr_block.sr_forward(swapped, sr_run.x)
    monkeypatch.setattr(sr_run, "out", out)
    assert any(f.startswith("out") for f in sr_run.check())


def test_alpha_rows_and_identity_checks():
    alpha = np.full((2, 4), 0.25, dtype=np.float32)
    assert checks.rows_sum_to_one("alpha", alpha) == []
    alpha[1, 2] += 1e-3
    assert checks.rows_sum_to_one("alpha", alpha)
    x = np.ones((1, 2, 2, 2), dtype=np.float32)
    assert checks.identical("id", x.copy(), x) == []
    assert checks.identical("id", x + np.float32(1e-7), x)


def test_reference_adjoint_agrees_with_finite_difference():
    rng = np.random.default_rng(0)
    x = rng.random((3, 5, 2, 2))
    p = {"squeeze_w": rng.standard_normal(5), "fc1_w": rng.standard_normal((4, 4)),
         "fc2_w": rng.standard_normal((3, 4)), "memory": rng.standard_normal((3, 5, 2, 2))}
    g = rng.standard_normal(x.shape)
    _, inter = reference.sr_forward(x, *p.values())
    grads = reference.sr_adjoint(x, *p.values(), inter, g)
    assert checks.fd_agrees(reference.directional_fd_error(x, p, g, grads)) == []
    grads["memory"] = swap_blocks(grads["memory"])
    assert checks.fd_agrees(reference.directional_fd_error(x, p, g, grads))


@pytest.fixture(scope="module")
def inspect_run(tmp_path_factory):
    wl = workloads.InspectEval(5, str(tmp_path_factory.mktemp("inspect")))
    wl.setup()
    wl.round([])
    return wl


def test_inspect_checks_pass(inspect_run):
    assert inspect_run.check() == []
    assert sorted(os.listdir(inspect_run.outdir))[:3] == [
        "ablation.csv", "activations.csv", "delta.csv"]


def test_delta_from_swapped_memory_blocks_fails(inspect_run, monkeypatch):
    swapped = inspect_run.params.copy()
    swapped.sr.memory = swap_blocks(swapped.sr.memory)
    monkeypatch.setattr(inspect_run, "deltas", analysis.feature_delta(swapped, inspect_run.val))
    assert any("abs_delta" in f for f in inspect_run.check())


def test_perturbed_activation_mean_fails(inspect_run, monkeypatch):
    stats = [analysis.ActivationStats(s.class_label, s.mean.copy(), s.std, s.n_samples)
             for s in inspect_run.stats]
    stats[0].mean[0] += 1e-3
    monkeypatch.setattr(inspect_run, "stats", stats)
    failures = inspect_run.check()
    assert any(f.startswith("activation means: rows") for f in failures)


def test_wrong_ablated_accuracy_fails(inspect_run, monkeypatch):
    monkeypatch.setattr(inspect_run, "acc_ablated",
                        inspect_run.acc_ablated + 1.0 / len(inspect_run.test))
    assert any("acc_ablated" in f for f in inspect_run.check())
