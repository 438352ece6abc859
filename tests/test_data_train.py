"""Synthetic data generation, augmentation, SGD mechanics, training loop."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from srkit import train as train_mod
from srkit.config import parse_config
from srkit.data import SynthSpec, augment, class_template, synth_generate
from srkit.errors import ConfigError
from srkit.host import HostConfig, host_init
from srkit.rng import make_rng
from srkit.sr_block import SRConfig
from srkit.train import (
    TrainConfig,
    evaluate,
    lr_at,
    sgd_step,
    train,
)

from oracles import synth_splits_loops

SMALL_SPEC = SynthSpec(classes=4, per_class=30, per_class_test=10, h=16, w=16, seed=5)
SMALL_HOST = HostConfig(
    stage_channels=(8, 8, 8, 8),
    in_h=16,
    in_w=16,
    classes=4,
    sr_insert=3,
    sr=SRConfig(c=8, h=4, w=4, u=8, p=2),
    dropout_kind="channel",
    dropout_p=0.1,
)


class TestSynthData:
    def test_split_sizes_and_balance(self):
        train_set, val_set, test_set = synth_generate(SMALL_SPEC)
        assert len(train_set) == 4 * 27 and len(val_set) == 4 * 3
        assert len(test_set) == 4 * 10
        for k in range(4):
            assert (train_set.y == k).sum() == 27
            assert (val_set.y == k).sum() == 3

    def test_zero_noise_collapses_to_template(self):
        spec = SynthSpec(classes=3, per_class=10, per_class_test=5, noise_sigma=0.0, seed=1)
        train_set, _, _ = synth_generate(spec)
        for k in range(3):
            samples = train_set.x[train_set.y == k]
            assert np.array_equal(samples.min(axis=0), samples.max(axis=0))

    def test_same_seed_bitwise_identical(self):
        a = synth_generate(SMALL_SPEC)
        b = synth_generate(SMALL_SPEC)
        for da, db in zip(a, b):
            assert np.array_equal(da.x, db.x)
            assert np.array_equal(da.y, db.y)

    def test_train_stats_normalized(self):
        train_set, _, _ = synth_generate(SynthSpec(seed=3))
        means = train_set.x.mean(axis=(0, 2, 3))
        stds = train_set.x.std(axis=(0, 2, 3))
        assert np.abs(means).max() < 1e-3
        assert np.abs(stds - 1.0).max() < 1e-3

    def test_linear_probe_oracle(self):
        """Multinomial logistic regression on raw pixels must already work."""
        train_set, _, test_set = synth_generate(SynthSpec())
        x = train_set.x.reshape(len(train_set), -1).astype(np.float64)
        y = train_set.y
        k = 10
        w = np.zeros((k, x.shape[1]))
        onehot = np.eye(k)[y]
        for _ in range(120):
            logits = x @ w.T
            logits -= logits.max(axis=1, keepdims=True)
            probs = np.exp(logits)
            probs /= probs.sum(axis=1, keepdims=True)
            grad = (probs - onehot).T @ x / len(x)
            w -= 0.5 * grad
        xt = test_set.x.reshape(len(test_set), -1).astype(np.float64)
        acc = float((np.argmax(xt @ w.T, axis=1) == test_set.y).mean())
        assert acc > 0.6, f"linear probe accuracy {acc:.3f}"

    @pytest.mark.parametrize("spec", [
        SynthSpec(),
        SynthSpec(classes=3, per_class=37, per_class_test=3, channels=2, h=5, w=7, seed=9),
        SynthSpec(per_class=9),
        SynthSpec(noise_sigma=0),
        SynthSpec(per_class=1, per_class_test=1),
    ], ids=["default", "small_odd", "empty_val", "no_noise", "one_sample"])
    def test_splits_match_per_class_oracle(self, spec):
        """Every split's images and labels are the per-class loop's, byte for
        byte, in dtype, shape and C order (empty_val and one_sample have an
        empty validation split)."""
        for got, want in zip(synth_generate(spec), synth_splits_loops(spec), strict=True):
            for a, b in ((got.x, want.x), (got.y, want.y)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.flags.c_contiguous
                assert a.tobytes() == b.tobytes()

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            SynthSpec(classes=1)
        with pytest.raises(ConfigError):
            SynthSpec(noise_sigma=-0.1)


class TestAugment:
    def test_disabled_is_identity(self, rng):
        batch = rng.uniform(-1, 1, (4, 3, 8, 8)).astype(np.float32)
        out = augment(batch, make_rng(0), flip=False)
        assert out is batch

    def test_double_flip_restores(self, rng):
        batch = rng.uniform(-1, 1, (4, 3, 8, 8)).astype(np.float32)
        flipped = batch[:, :, :, ::-1]
        assert np.array_equal(flipped[:, :, :, ::-1], batch)

    def test_flip_mirrors_templates(self):
        spec = SynthSpec(classes=5, seed=2)
        template = class_template(spec, 1)[None]
        # drive the flip branch deterministically: find a seed that flips
        for seed in range(50):
            out = augment(template, make_rng(seed), flip=True)
            if not np.array_equal(out, template):
                mirrored = template[:, :, :, ::-1]
                r = np.corrcoef(out.ravel(), mirrored.ravel())[0, 1]
                assert r > 0.999
                return
        pytest.fail("no flip occurred in 50 seeds")

    def test_some_flipped_some_not(self, rng):
        batch = rng.uniform(-1, 1, (64, 3, 8, 8)).astype(np.float32)
        out = augment(batch, make_rng(123), flip=True)
        changed = [not np.array_equal(out[i], batch[i]) for i in range(64)]
        assert any(changed) and not all(changed)


class TestSgd:
    def _tiny_params(self):
        cfg = HostConfig(
            stage_channels=(2, 2, 2, 2), in_h=4, in_w=4, classes=2
        )
        return host_init(cfg, make_rng(1))

    def _zero_grads(self, params):
        import copy

        grads = params.copy()
        for _, g in grads.items():
            g[:] = 0.0
        return grads

    def test_noop_without_grads_or_decay(self):
        params = self._tiny_params()
        before = params.copy()
        cfg = TrainConfig(weight_decay=0.0)
        sgd_step(params, self._zero_grads(params), {}, cfg, lr=cfg.lr0)
        for (_, a), (_, b) in zip(params.items(), before.items()):
            assert np.array_equal(a, b)

    def test_plain_sgd_step(self):
        params = self._tiny_params()
        before = params.copy()
        grads = self._zero_grads(params)
        for _, g in grads.items():
            g[:] = 0.5
        cfg = TrainConfig(lr0=0.1, momentum=0.0, weight_decay=0.0, decay_epochs=())
        sgd_step(params, grads, {}, cfg, lr=cfg.lr0)
        for (_, a), (_, b) in zip(params.items(), before.items()):
            assert np.allclose(a, b - 0.05, atol=1e-7)

    def test_momentum_recursion_hand_case(self):
        params = self._tiny_params()
        p0 = {n: t.astype(np.float64) for n, t in params.items()}
        g1 = {n: np.full_like(t, 0.25, dtype=np.float64) for n, t in params.items()}
        g2 = {n: np.full_like(t, -0.5, dtype=np.float64) for n, t in params.items()}
        cfg = TrainConfig(lr0=0.1, momentum=0.9, weight_decay=0.0, decay_epochs=())
        velocity = {}
        grads = params.copy()
        for _, g in grads.items():
            g[:] = 0.25
        sgd_step(params, grads, velocity, cfg, lr=cfg.lr0)
        for _, g in grads.items():
            g[:] = -0.5
        sgd_step(params, grads, velocity, cfg, lr=cfg.lr0)
        for name, t in params.items():
            v1 = g1[name]
            p1 = p0[name] - 0.1 * v1
            v2 = 0.9 * v1 + g2[name]
            p2 = p1 - 0.1 * v2
            assert np.allclose(t, p2, atol=1e-6), name

    def test_weight_decay_shrinks_norm(self):
        params = self._tiny_params()
        before = float(sum((t ** 2).sum() for _, t in params.items()))
        cfg = TrainConfig(weight_decay=5e-4, momentum=0.0, decay_epochs=())
        sgd_step(params, self._zero_grads(params), {}, cfg, lr=cfg.lr0)
        after = float(sum((t ** 2).sum() for _, t in params.items()))
        assert after < before

    def test_memory_decay_flag(self):
        cfg_host = HostConfig(
            stage_channels=(2, 2, 2, 2), in_h=4, in_w=4, classes=2,
            sr_insert=3, sr=SRConfig(c=2, h=1, w=1, u=2, p=2, allow_off_grid=True),
        )
        params = host_init(cfg_host, make_rng(3))
        params.sr.memory[:] = 1.0
        grads = params.copy()
        for _, g in grads.items():
            g[:] = 0.0
        cfg = TrainConfig(weight_decay=0.1, momentum=0.0, decay_memory=False, decay_epochs=())
        sgd_step(params, grads, {}, cfg, lr=cfg.lr0)
        assert np.array_equal(params.sr.memory, np.ones_like(params.sr.memory))
        cfg = TrainConfig(weight_decay=0.1, momentum=0.0, decay_memory=True, decay_epochs=())
        sgd_step(params, grads, {}, cfg, lr=cfg.lr0)
        assert np.all(params.sr.memory < 1.0)

    def test_gradients_must_match_parameter_names(self):
        """Gradients without the SR block's tensors are rejected, naming the
        first missing one, before any tensor moves; so are extra ones."""
        cfg_host = HostConfig(
            stage_channels=(2, 2, 2, 2), in_h=4, in_w=4, classes=2,
            sr_insert=3, sr=SRConfig(c=2, h=1, w=1, u=2, p=2, allow_off_grid=True),
        )
        params = host_init(cfg_host, make_rng(3))
        before = params.copy()
        grads = params.copy()
        grads.sr = None
        cfg, velocity = TrainConfig(), {}
        with pytest.raises(ConfigError, match="sr.squeeze_w"):
            sgd_step(params, grads, velocity, cfg, lr=cfg.lr0)
        assert velocity == {}
        for (_, a), (_, b) in zip(params.items(), before.items()):
            assert np.array_equal(a, b)
        with pytest.raises(ConfigError, match="sr.squeeze_w"):
            sgd_step(grads, params.copy(), {}, cfg, lr=cfg.lr0)


class TestSchedule:
    def test_reference_positions(self):
        cfg = TrainConfig(epochs=200)
        assert cfg.resolved_decay_epochs() == (60, 120, 160)

    def test_scaled_positions(self):
        cfg = TrainConfig(epochs=30)
        assert cfg.resolved_decay_epochs() == (9, 18, 24)

    def test_non_increasing_with_exact_drops(self):
        cfg = TrainConfig(epochs=30, lr0=0.1, lr_decay_factor=0.2)
        lrs = [lr_at(cfg, e) for e in range(cfg.epochs)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        drops = sum(1 for a, b in zip(lrs, lrs[1:]) if b < a)
        assert drops == len(cfg.resolved_decay_epochs())

    def test_explicit_epochs_win(self):
        cfg = TrainConfig(epochs=10, decay_epochs=(4, 8))
        assert cfg.resolved_decay_epochs() == (4, 8)
        assert lr_at(cfg, 3) == pytest.approx(0.1)
        assert lr_at(cfg, 4) == pytest.approx(0.02)
        assert lr_at(cfg, 8) == pytest.approx(0.004)


class TestTrainLoop:
    def test_zero_epochs_returns_initial(self):
        cfg = TrainConfig(epochs=0, seed=21)
        result = train(SMALL_HOST, cfg, SMALL_SPEC)
        assert result.history == []
        fresh = host_init(SMALL_HOST, make_rng(21))
        for (_, a), (_, b) in zip(result.best_params.items(), fresh.items()):
            assert np.array_equal(a, b)

    def test_deterministic_checkpoints(self):
        cfg = TrainConfig(epochs=2, batch=32, seed=9)
        r1 = train(SMALL_HOST, cfg, SMALL_SPEC)
        r2 = train(SMALL_HOST, cfg, SMALL_SPEC)
        for (_, a), (_, b) in zip(r1.best_params.items(), r2.best_params.items()):
            assert np.array_equal(a, b)
        assert [h.val_acc for h in r1.history] == [h.val_acc for h in r2.history]

    def test_best_checkpoint_contract(self):
        cfg = TrainConfig(epochs=4, batch=32, seed=10)
        result = train(SMALL_HOST, cfg, SMALL_SPEC)
        _, val_set, _ = synth_generate(SMALL_SPEC)
        assert result.best_val_acc == max(h.val_acc for h in result.history)
        assert evaluate(result.best_params, val_set) == result.best_val_acc
        first_best = min(
            h.epoch for h in result.history if h.val_acc == result.best_val_acc
        )
        assert result.best_epoch == first_best

    def test_class_mismatch_rejected(self):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ConfigError, match="classes"):
            train(SMALL_HOST, cfg, SynthSpec(classes=7, per_class=10))

    def test_loss_decreases_over_first_steps(self):
        """Mean first-vs-last loss over 3 seeds on one fixed batch."""
        from srkit.host import host_backward, host_forward

        spec = SynthSpec(classes=4, per_class=20, per_class_test=5, h=16, w=16, seed=1)
        train_set, _, _ = synth_generate(spec)
        xb, yb = train_set.x[:32], train_set.y[:32]
        drops = []
        for seed in (0, 1, 2):
            params = host_init(SMALL_HOST, make_rng(seed))
            cfg = TrainConfig(lr0=0.05, weight_decay=0.0, decay_epochs=())
            velocity = {}
            losses = []
            step_rng = make_rng(seed + 100)
            for _ in range(50):
                _, cache = host_forward(params, xb, "train", step_rng)
                loss, grads = host_backward(params, cache, yb)
                losses.append(loss)
                sgd_step(params, grads, velocity, cfg, lr=cfg.lr0)
            drops.append(losses[0] - losses[-1])
        assert np.mean(drops) > 0.0

    @pytest.mark.parametrize("sr_insert, softmaxes", [(3, 1), (None, 0)])
    def test_one_softmax_per_step_in_the_sr_gate_only(self, monkeypatch, sr_insert,
                                                       softmaxes):
        """A step's loss and gradient come from one cross_entropy_fwd, so
        softmax_fwd runs only in the SR gate, once per step."""
        from srkit import ops

        calls, per_step = [], []
        softmax, forward, step = ops.softmax_fwd, train_mod.host_forward, train_mod.sgd_step

        def traced_forward(params, x, mode="eval", rng=None):
            calls.clear()
            return forward(params, x, mode, rng)

        def traced_step(*args):
            per_step.append(len(calls))
            step(*args)

        monkeypatch.setattr(ops, "softmax_fwd", lambda z: calls.append(z) or softmax(z))
        monkeypatch.setattr(train_mod, "host_forward", traced_forward)
        monkeypatch.setattr(train_mod, "sgd_step", traced_step)
        train(replace(SMALL_HOST, sr_insert=sr_insert),
              TrainConfig(epochs=1, batch=64, seed=3), SMALL_SPEC)
        assert per_step == [softmaxes] * 2

    def test_train_holds_one_step_of_intermediates(self, monkeypatch, use_workers):
        """Between steps the loop keeps only its momentum buffers: the memory held
        when each host_forward starts stays flat, and no later step peaks above
        the first one by more than those buffers."""
        use_workers(1)  # one thread: the same allocations in the same order each step
        run = parse_config({})
        held, peaks = [], []
        forward, step = train_mod.host_forward, train_mod.sgd_step

        def traced_forward(params, x, mode="eval", rng=None):
            if mode == "train":
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return forward(params, x, mode, rng)

        def traced_step(*args):
            step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(train_mod, "host_forward", traced_forward)
        monkeypatch.setattr(train_mod, "sgd_step", traced_step)
        tracemalloc.start()
        try:
            train(run.host, TrainConfig(epochs=1, batch=30, seed=3),
                  SynthSpec(per_class=14, per_class_test=1))
        finally:
            tracemalloc.stop()
        momentum = 4 * sum(p.size for _, p in host_init(run.host, make_rng(0)).items())
        margin = momentum + 256 * 1024
        assert len(peaks) == 5
        assert max(held[1:]) - held[0] < margin
        assert max(peaks[1:4]) - peaks[0] < margin  # the full-size steps 2-4 against step 1
