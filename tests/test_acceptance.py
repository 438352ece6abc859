"""Acceptance suite: one test per release criterion, in order.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The shared ``toy_run`` fixture (the default toy training) is
trained once per session.
"""

import csv
import itertools
import json
import time

import numpy as np
import pytest

from srkit import cli
from srkit.checkpoint import load_checkpoint, save_checkpoint
from srkit.rng import make_rng
from srkit.sr_block import (
    SRConfig,
    sr_ablate,
    sr_backward,
    sr_forward,
    sr_init,
    sr_param_count,
)
from srkit.analysis import activation_stats, collect_activations

RESNET50_BASELINE = 25_557_032
RESNET18_CIFAR100_BASELINE = 11_220_132


def _params_overhead(capsys, c, h, w, u, p, baseline, tmp_path, name):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(
        {"host": {"sr_insert": None,
                  "sr": {"c": c, "h": h, "w": w, "u": u, "p": p}}}))
    assert cli.main(["params", str(cfg), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    lines = dict(l.split(" ", 1) for l in out.splitlines() if " " in l)
    return int(lines["sr_params"]), float(lines["overhead_pct"]), lines["overhead_pct"]


def test_criterion_1_overhead_table(capsys, tmp_path):
    """Parameter-overhead percentages for the 1024x14x14, u=16 shapes."""
    count2, pct2, s2 = _params_overhead(capsys, 1024, 14, 14, 16, 2,
                                        RESNET50_BASELINE, tmp_path, "p2")
    count10, pct10, s10 = _params_overhead(capsys, 1024, 14, 14, 16, 10,
                                           RESNET50_BASELINE, tmp_path, "p10")
    count20, pct20, s20 = _params_overhead(capsys, 1024, 14, 14, 16, 20,
                                           RESNET50_BASELINE, tmp_path, "p20")
    assert s2 == "1.59" and abs(pct2 - 1.59) <= 0.05
    assert s10 == "7.87" and abs(pct10 - 7.87) <= 0.05
    assert abs(pct20 - 15.72) <= 0.05 and abs(pct20 - 15.73) <= 0.05
    assert count10 == 2_011_360
    print(f"\n[criterion 1] PASS overhead table: {s2}% / {s10}% / {s20}%")


def test_criterion_2_r18_spot_check(capsys, tmp_path):
    count, pct, s = _params_overhead(capsys, 512, 4, 4, 8, 12,
                                     RESNET18_CIFAR100_BASELINE, tmp_path, "r18")
    assert count == 99_040
    assert abs(pct - 0.88) <= 0.02
    print(f"\n[criterion 2] PASS r18-scale spot check: {s}%")


def test_criterion_3_identity_at_initialization():
    start = time.monotonic()
    for seed in range(10):
        rng = make_rng(seed)
        cfg = SRConfig(
            c=int(rng.integers(1, 8)),
            h=int(rng.integers(1, 6)),
            w=int(rng.integers(1, 6)),
            u=int(rng.integers(1, 9)),
            p=int(rng.integers(2, 8)),
            allow_off_grid=True,
        )
        params = sr_init(cfg, rng)
        for _ in range(100):
            x = rng.uniform(-1, 1, (2, cfg.c, cfg.h, cfg.w)).astype(np.float32)
            out, _ = sr_forward(params, x)
            assert np.array_equal(out, x)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\n[criterion 3] PASS identity at init: 10 seeds x 100 inputs bitwise "
          f"({elapsed:.1f}s)")


def test_criterion_4_gradient_suite(capsys):
    start = time.monotonic()
    rc = cli.main(["gradcheck", "--size", "micro"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert rc == 0, out
    assert elapsed < 60.0
    worst = max(
        float(l.split()[2]) for l in out.splitlines() if "max_rel_err" in l
    )
    print(f"\n[criterion 4] PASS gradcheck micro: worst rel err {worst:.2e} "
          f"({elapsed:.1f}s)")


def test_criterion_5_closed_form_memory_gradient():
    worst = 0.0
    for case in range(20):
        rng = make_rng(1000 + case)
        cfg = SRConfig(
            c=int(rng.integers(1, 6)),
            h=int(rng.integers(1, 5)),
            w=int(rng.integers(1, 5)),
            u=int(rng.integers(1, 8)),
            p=int(rng.integers(2, 7)),
            allow_off_grid=True,
        )
        params = sr_init(cfg, rng)
        params.memory[:] = rng.uniform(-1, 1, params.memory.shape).astype(np.float32)
        n = int(rng.integers(1, 5))
        x = rng.uniform(-1, 1, (n, cfg.c, cfg.h, cfg.w)).astype(np.float32)
        g = rng.uniform(-1, 1, x.shape).astype(np.float32)
        _, cache = sr_forward(params, x)
        grads, _ = sr_backward(params, cache, g)
        # independent evaluation of sum_n alpha[n,i] * grad_out[n] in float64
        expected = np.zeros(params.memory.shape, dtype=np.float64)
        for i in range(cfg.p):
            for b in range(n):
                expected[i] += float(cache.alpha[b, i]) * g[b].astype(np.float64)
        worst = max(worst, float(np.abs(grads.memory - expected).max()))
    assert worst < 1e-5
    print(f"\n[criterion 5] PASS closed-form memory gradient: max abs dev {worst:.2e}")


def test_criterion_6_invariant_suite():
    start = time.monotonic()
    rng = make_rng(606)

    # softmax normalization on random and extreme logits; strict positivity
    # holds while the post-shift exponent stays inside float32's range
    from srkit import ops

    for scale in (1.0, 50.0, 1000.0):
        logits = (rng.uniform(-1, 1, (64, 7)) * scale).astype(np.float32)
        probs = ops.softmax_fwd(logits)
        assert np.all(np.isfinite(probs)) and np.all(probs >= 0)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6
        if 2 * scale <= 100.0:  # exp(-spread) still representable
            assert np.all(probs > 0)

    # convexity bound of the added map
    cfg = SRConfig(c=4, h=3, w=3, u=8, p=5, allow_off_grid=True)
    params = sr_init(cfg, rng)
    params.memory[:] = rng.uniform(-2, 2, params.memory.shape).astype(np.float32)
    x = rng.uniform(-1, 1, (16, 4, 3, 3)).astype(np.float32)
    out, _ = sr_forward(params, x)
    added = out - x
    assert np.all(added >= params.memory.min(axis=0)[None] - 1e-5)
    assert np.all(added <= params.memory.max(axis=0)[None] + 1e-5)

    # permutation equivariance of (memory, fc2 rows)
    perm = rng.permutation(cfg.p)
    shuffled = params.copy()
    shuffled.memory[:] = params.memory[perm]
    shuffled.fc2_w[:] = params.fc2_w[perm]
    out_perm, _ = sr_forward(shuffled, x)
    assert np.abs(out - out_perm).max() < 1e-6

    # parameter count equals allocation over the full tested grid
    for u in (8, 16, 32):
        for p in range(2, 21):
            g_cfg = SRConfig(c=3, h=2, w=2, u=u, p=p)
            g_params = sr_init(g_cfg, make_rng(1))
            assert sr_param_count(g_cfg) == sum(t.size for _, t in g_params.items())

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\n[criterion 6] PASS invariant suite ({elapsed:.1f}s)")


def test_criterion_7_training_determinism(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps({
        "data": {"per_class": 40, "per_class_test": 20, "seed": 7},
        "train": {"epochs": 3, "batch": 32, "seed": 11},
        "host": {"sr_insert": 3},
    }))
    paths = []
    for run in ("a", "b"):
        ck = tmp_path / f"{run}.srck"
        hist = tmp_path / f"{run}.csv"
        assert cli.main(["train", str(cfg), str(ck), str(hist)]) == 0
        paths.append((ck.read_bytes(), hist.read_bytes()))
    elapsed = time.monotonic() - start
    assert paths[0][0] == paths[1][0], "checkpoints differ"
    assert paths[0][1] == paths[1][1], "history CSVs differ"
    assert elapsed < 600.0
    print(f"\n[criterion 7] PASS byte-identical checkpoints and histories "
          f"({elapsed:.0f}s for two runs)")


def test_criterion_8_desk_scale_learning(toy_run):
    _, result, (_, val_set, _) = toy_run
    assert result.best_val_acc > 0.70, (
        f"default toy run reached only {result.best_val_acc:.3f}"
    )
    stats = activation_stats(collect_activations(result.best_params, val_set))
    worst = max(
        float(np.abs(a.mean - b.mean).sum())
        for a, b in itertools.combinations(stats, 2)
    )
    assert worst > 0.01
    print(f"\n[criterion 8] PASS toy val acc {result.best_val_acc:.3f} (>0.70), "
          f"max pairwise alpha L1 {worst:.3f} (>0.01)")


def test_criterion_9_ablation_mechanics(toy_run):
    run, result, (_, _, test_set) = toy_run

    # bitwise identity after ablation, on the trained block
    sr = result.best_params.sr
    assert sr.memory.any(), "trained memory expected to be non-zero"
    ablated = sr_ablate(sr)
    x = make_rng(909).uniform(-1, 1, (4, sr.cfg.c, sr.cfg.h, sr.cfg.w)).astype(np.float32)
    out, _ = sr_forward(ablated, x)
    assert np.array_equal(out, x)

    # untrained model: report delta is exactly zero
    from srkit.analysis import ablation_report
    from srkit.host import host_init

    fresh = host_init(run.host, make_rng(4242))
    acc_full, acc_ablated, delta = ablation_report(fresh, test_set)
    assert delta == 0.0 and acc_full == acc_ablated

    # trained model: both accuracies reported, sign not asserted
    t_full, t_ablated, t_delta = ablation_report(result.best_params, test_set)
    assert 0.0 <= t_full <= 1.0 and 0.0 <= t_ablated <= 1.0
    print(f"\n[criterion 9] PASS ablation identity bitwise; untrained delta 0; "
          f"trained full {t_full:.3f} vs ablated {t_ablated:.3f} "
          f"(delta {t_delta:+.3f})")


def test_criterion_10_roundtrip_and_schemas(toy_run, tmp_path):
    run, result, _ = toy_run

    # checkpoint round-trip: save -> load -> save byte-identical
    p1, p2 = tmp_path / "c1.srck", tmp_path / "c2.srck"
    meta = {"config": run.to_dict(), "best_epoch": result.best_epoch,
            "val_acc": result.best_val_acc, "test_acc": 0.0}
    save_checkpoint(str(p1), meta, dict(result.best_params.items()))
    meta2, tensors2 = load_checkpoint(str(p1))
    save_checkpoint(str(p2), meta2, tensors2)
    assert p1.read_bytes() == p2.read_bytes()
    for name, t in result.best_params.items():
        assert np.array_equal(t, tensors2[name])

    # analysis outputs conform to the declared schemas
    outdir = tmp_path / "report"
    assert cli.main(["inspect", str(p1), str(outdir)]) == 0
    p = run.host.sr.p
    with open(outdir / "activations.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["class"] + [f"block_{i}" for i in range(p)]
    assert len(rows) == 1 + 2 * run.data.classes

    with open(outdir / "delta.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["class", "channel", "pre_mean", "post_mean", "abs_delta", "shift_pct"]
    assert len(rows) == 1 + run.data.classes * run.host.sr.c

    with open(outdir / "ablation.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["acc_full", "acc_ablated", "delta"]
    assert len(rows) == 2

    pgms = sorted(outdir.glob("memory_block_*.pgm"))
    assert len(pgms) == p
    for path in pgms:
        header = path.read_bytes()
        assert header.startswith(b"P5\n")
        dims = header.split(b"\n", 3)
        assert dims[2] == b"255"
    print("\n[criterion 10] PASS checkpoint round-trip byte-identical; "
          "CSV/PGM schemas conform")
