"""Analysis readouts: activation stats, memory maps, deltas, ablation, files."""

import csv
import hashlib
import itertools
import sys
from dataclasses import replace

import numpy as np
import pytest

from srkit import analysis
from srkit.analysis import (
    ablation_report,
    activation_stats,
    collect_activations,
    feature_delta,
    memory_channel_means,
    write_ablation_csv,
    write_activations_csv,
    write_delta_csv,
    write_pgm,
)
from srkit.data import Dataset, SynthSpec, synth_generate
from srkit.errors import ConfigError, UsageError
from srkit.host import HostConfig, host_forward, host_forward_from, host_init
from srkit.rng import make_rng
from srkit.sr_block import SRConfig, sr_ablate, sr_forward
from srkit.train import EVAL_BATCH, evaluate

from oracles import capped_ids_loops, channel_mean_loops

SPEC = SynthSpec(classes=3, per_class=20, per_class_test=10, h=16, w=16, seed=8)
HOST = HostConfig(
    stage_channels=(4, 4, 8, 8),
    in_h=16,
    in_w=16,
    classes=3,
    sr_insert=3,
    sr=SRConfig(c=8, h=4, w=4, u=8, p=4),
)


@pytest.fixture(scope="module")
def untrained():
    params = host_init(HOST, make_rng(3))
    splits = synth_generate(SPEC)
    return params, splits


def params_digest(params):
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(t.tobytes())
    return h.hexdigest()


class TestCollect:
    def test_zero_fc2_gives_uniform_alpha(self, untrained):
        params, (train_set, val_set, _) = untrained
        frozen = params.copy()
        frozen.sr.fc2_w[:] = 0.0
        _, _, alpha = collect_activations(frozen, val_set)
        assert alpha.shape == (len(val_set), 4)
        assert np.allclose(alpha, 0.25, atol=1e-7)

    def test_all_classes_covers_dataset(self, untrained):
        params, (_, val_set, _) = untrained
        ids, labels, alpha = collect_activations(params, val_set)
        assert ids.tolist() == list(range(len(val_set)))  # ascending, every sample
        assert np.array_equal(labels, val_set.y)
        assert len(alpha) == len(val_set)

    def test_class_filter_and_cap(self, untrained, monkeypatch):
        """At most SAMPLE_CAP_PER_CLASS samples per class, the lowest ids first."""
        params, (_, val_set, _) = untrained
        monkeypatch.setattr(analysis, "SAMPLE_CAP_PER_CLASS", 1)
        ids, labels, alpha = collect_activations(params, val_set)
        assert ids.tolist() == sorted(
            int(np.flatnonzero(val_set.y == k)[0]) for k in range(SPEC.classes))
        assert np.array_equal(labels, val_set.y[ids])
        assert len(alpha) == len(ids)

    @pytest.mark.parametrize("cap", [1, 5])
    def test_cap_on_interleaved_labels_matches_loop_oracle(self, untrained, monkeypatch, cap):
        params, (train_set, _, _) = untrained
        perm = make_rng(11).permutation(len(train_set))
        shuffled = Dataset(train_set.x[perm], train_set.y[perm])
        monkeypatch.setattr(analysis, "SAMPLE_CAP_PER_CLASS", cap)
        ids, labels, alpha = collect_activations(params, shuffled)
        assert ids.tolist() == capped_ids_loops(shuffled.y, cap)
        assert np.array_equal(labels, shuffled.y[ids])
        assert len(alpha) == len(ids) == cap * SPEC.classes

    def test_empty_split_gives_empty_readout(self, untrained):
        params, (_, val_set, _) = untrained
        empty = Dataset(val_set.x[:0], val_set.y[:0])
        ids, labels, alpha = collect_activations(params, empty)
        assert len(ids) == len(labels) == 0 and alpha.shape == (0, 4)
        assert activation_stats((ids, labels, alpha)) == []

    def test_missing_sr_rejected(self, untrained):
        _, (_, val_set, _) = untrained
        plain = host_init(HostConfig(stage_channels=(4, 4, 8, 8), in_h=16, in_w=16, classes=3), make_rng(0))
        with pytest.raises(ConfigError):
            collect_activations(plain, val_set)


class TestStats:
    def test_single_record_zero_std(self):
        (s,) = activation_stats((np.array([0]), np.array([2]), np.array([[0.5, 0.5]])))
        assert s.class_label == 2
        assert np.array_equal(s.std, np.zeros(2))
        assert s.n_samples == 1

    def test_two_record_hand_case(self):
        (s,) = activation_stats(
            (np.array([0, 1]), np.array([0, 0]), np.array([[1.0, 0.0], [0.0, 1.0]])))
        assert np.allclose(s.mean, [0.5, 0.5])
        assert np.allclose(s.std, np.sqrt(0.5))

    def test_per_class_means_sum_to_one(self, untrained):
        params, (_, val_set, _) = untrained
        stats = activation_stats(collect_activations(params, val_set))
        for s in stats:
            assert abs(s.mean.sum() - 1.0) < 1e-4
            assert np.all(s.std >= 0)
        assert [s.class_label for s in stats] == sorted(s.class_label for s in stats)


class TestMemoryMaps:
    def test_zero_memory_zero_maps(self, untrained):
        params, _ = untrained
        maps = memory_channel_means(params.sr)
        assert maps.shape == (4, 4, 4)
        assert not maps.any()

    def test_single_channel_block(self):
        from srkit.sr_block import sr_init

        sr = sr_init(SRConfig(c=4, h=2, w=2, u=8, p=2), make_rng(4))
        sr.memory[0, 0] = 1.0  # one of four channels
        maps = memory_channel_means(sr)
        assert np.allclose(maps[0], 0.25)
        assert not maps[1:].any()

    def test_matches_loop_oracle(self, rng):
        params = host_init(HOST, make_rng(5))
        params.sr.memory[:] = rng.uniform(-1, 1, params.sr.memory.shape).astype(np.float32)
        maps = memory_channel_means(params.sr)
        for i in range(maps.shape[0]):
            want = channel_mean_loops(params.sr.memory[i])
            assert np.abs(maps[i] - want).max() < 1e-6

    def test_linearity(self, rng):
        params = host_init(HOST, make_rng(6))
        m1 = rng.uniform(-1, 1, params.sr.memory.shape).astype(np.float32)
        m2 = rng.uniform(-1, 1, params.sr.memory.shape).astype(np.float32)
        a, b = 0.7, -1.3
        sr = params.sr.copy()
        sr.memory[:] = m1
        maps1 = memory_channel_means(sr)
        sr.memory[:] = m2
        maps2 = memory_channel_means(sr)
        sr.memory[:] = (a * m1 + b * m2).astype(np.float32)
        combined = memory_channel_means(sr)
        assert np.abs(combined - (a * maps1 + b * maps2)).max() < 1e-5


class TestFeatureDelta:
    def test_zero_memory_zero_delta(self, untrained):
        params, (_, val_set, _) = untrained
        deltas = feature_delta(params, val_set)
        for d in deltas:
            assert not d.abs_delta.any()
            finite = d.shift_pct[np.isfinite(d.shift_pct)]
            assert np.all(finite == 0.0)

    def test_uniform_epsilon_memory(self, untrained):
        params, (_, val_set, _) = untrained
        eps = 0.125
        boosted = params.copy()
        boosted.sr.memory[:] = eps
        deltas = feature_delta(boosted, val_set)
        for d in deltas:
            assert np.allclose(d.abs_delta, eps, rtol=1e-5)
            assert np.allclose(d.post_mean - d.pre_mean, eps, rtol=1e-4)

    def test_analysis_is_read_only(self, untrained):
        params, (_, val_set, test_set) = untrained
        before = params_digest(params)
        collect_activations(params, val_set)
        feature_delta(params, val_set)
        memory_channel_means(params.sr)
        ablation_report(params, test_set)
        assert params_digest(params) == before


class TestAblation:
    def test_untrained_delta_exactly_zero(self, untrained):
        params, (_, _, test_set) = untrained
        acc_full, acc_ablated, delta = ablation_report(params, test_set)
        assert acc_full == acc_ablated
        assert delta == 0.0

    def test_ablated_equals_identity_forward(self, rng):
        params = host_init(HOST, make_rng(7))
        params.sr.memory[:] = rng.uniform(-1, 1, params.sr.memory.shape).astype(np.float32)
        from srkit.sr_block import sr_ablate

        ablated = sr_ablate(params.sr)
        x = rng.uniform(-1, 1, (3, 8, 4, 4)).astype(np.float32)
        out, _ = sr_forward(ablated, x)
        assert np.array_equal(out, x)


def memory_host(stage):
    """Untrained host with SR after ``stage`` and a 3·N(0,1) memory bank."""
    cfg = HostConfig(stage_channels=(4, 4, 8, 8), in_h=16, in_w=16, classes=3,
                     sr_insert=stage)
    params = host_init(cfg, make_rng(3))
    params.sr.memory[:] = 3.0 * make_rng(4).standard_normal(
        params.sr.memory.shape, dtype=np.float32)
    return params


def count_calls(monkeypatch, fn):
    """Record the arguments of every call of ``fn`` through every srkit
    module that imported it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("srkit.") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.fixture(scope="module")
def long_test_split():
    """300 test samples: more than one EVAL_BATCH, the last batch partial."""
    _, _, test_set = synth_generate(
        SynthSpec(classes=3, per_class=2, per_class_test=100, h=16, w=16, seed=8))
    assert EVAL_BATCH < len(test_set) < 2 * EVAL_BATCH
    return test_set


class TestOnePassAblation:
    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_equals_two_evaluates(self, stage, long_test_split):
        params = memory_host(stage)
        acc_full = evaluate(params, long_test_split)
        acc_ablated = evaluate(replace(params, sr=sr_ablate(params.sr)), long_test_split)
        assert acc_full != acc_ablated  # the memory bank changes predictions
        got = ablation_report(params, long_test_split)
        assert got == (acc_full, acc_ablated, acc_full - acc_ablated)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_suffix_logits_equal_ablated_host(self, stage, long_test_split):
        params = memory_host(stage)
        x = long_test_split.x
        _, cache = host_forward(params, x, "eval")
        want, _ = host_forward(replace(params, sr=sr_ablate(params.sr)), x, "eval")
        assert np.array_equal(host_forward_from(params, cache.sr_cache.x, stage), want)

    def test_suffix_from_input_is_plain_host(self, long_test_split):
        params = memory_host(3)
        plain = replace(params, cfg=replace(params.cfg, sr_insert=None), sr=None)
        want, _ = host_forward(plain, long_test_split.x, "eval")
        got = host_forward_from(params, long_test_split.x, 0)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("stage", [-1, 5])
    def test_suffix_stage_out_of_range(self, stage, long_test_split):
        with pytest.raises(UsageError, match="stage"):
            host_forward_from(memory_host(3), long_test_split.x, stage)

    @pytest.mark.parametrize("readout", [evaluate, ablation_report, collect_activations,
                                         feature_delta])
    def test_one_host_forward_per_batch(self, monkeypatch, long_test_split, readout):
        """Each readout forwards the split once, EVAL_BATCH samples a call (the
        analysis readouts with the per-class cap above the split's 100)."""
        monkeypatch.setattr(analysis, "SAMPLE_CAP_PER_CLASS", 100)
        forwards = count_calls(monkeypatch, host_forward)
        ablations = count_calls(monkeypatch, sr_ablate)
        readout(memory_host(3), long_test_split)
        sizes = [len(args[1]) for args in forwards]
        assert sizes == [EVAL_BATCH, len(long_test_split) - EVAL_BATCH] == [256, 44]
        assert not ablations


class TestTrainedModel:
    def test_class_conditional_alphas_differ(self, toy_run):
        _, result, (train_set, val_set, _) = toy_run
        stats = activation_stats(collect_activations(result.best_params, val_set))
        worst = max(
            np.abs(a.mean - b.mean).sum()
            for a, b in itertools.combinations(stats, 2)
        )
        assert worst > 0.01

    def test_shift_positive_for_every_class(self, toy_run):
        _, result, (_, val_set, _) = toy_run
        deltas = feature_delta(result.best_params, val_set)
        for d in deltas:
            assert np.nanmax(d.shift_pct) > 0.0
            assert d.abs_delta.max() > 0.0

    def test_trained_ablation_report(self, toy_run, tmp_path):
        _, result, (_, _, test_set) = toy_run
        acc_full, acc_ablated, delta = ablation_report(result.best_params, test_set)
        path = tmp_path / "ablation.csv"
        write_ablation_csv(str(path), acc_full, acc_ablated, delta)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["acc_full", "acc_ablated", "delta"]
        assert float(rows[1][0]) == acc_full
        assert float(rows[1][2]) == pytest.approx(delta)


class TestFileFormats:
    def test_activations_csv_layout(self, untrained, tmp_path):
        params, (_, val_set, _) = untrained
        stats = activation_stats(collect_activations(params, val_set))
        path = tmp_path / "activations.csv"
        write_activations_csv(str(path), stats)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        p = params.sr.cfg.p
        assert rows[0] == ["class"] + [f"block_{i}" for i in range(p)]
        assert len(rows) == 1 + 2 * len(stats)  # mean row then std row per class
        mean_row = np.array([float(v) for v in rows[1][1:]])
        assert abs(mean_row.sum() - 1.0) < 1e-4

    def test_delta_csv_layout(self, untrained, tmp_path):
        params, (_, val_set, _) = untrained
        deltas = feature_delta(params, val_set)
        path = tmp_path / "delta.csv"
        write_delta_csv(str(path), deltas)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["class", "channel", "pre_mean", "post_mean", "abs_delta", "shift_pct"]
        assert len(rows) == 1 + len(deltas) * params.sr.cfg.c

    def test_pgm_format(self, tmp_path, rng):
        img = rng.uniform(0, 1, (5, 7)).astype(np.float32)
        path = tmp_path / "map.pgm"
        write_pgm(str(path), img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n7 5\n255\n")
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.size == 35
        assert pixels.min() == 0 and pixels.max() == 255

    def test_pgm_constant_map_is_zero(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(str(path), np.zeros((3, 3), dtype=np.float32))
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert not pixels.any()
