"""SR block: init, forward/backward, worker pool, accounting, ablation, invariants."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srkit import ops
from srkit.errors import ConfigError, DimensionError, UsageError
from srkit.rng import make_rng
from srkit.sr_block import (
    SRConfig,
    _matmul_rows,
    recall_map,
    sr_ablate,
    sr_backward,
    sr_forward,
    sr_init,
    sr_overhead,
    sr_param_count,
)

from oracles import (
    fd_gradient,
    max_rel_err,
    resnet18_cifar100_param_count,
    resnet50_imagenet_param_count,
    sr_block_unsplit,
)

RESNET50_BASELINE = 25_557_032
RESNET18_CIFAR100_BASELINE = 11_220_132


def small_cfg(**kw):
    defaults = dict(c=3, h=4, w=4, u=3, p=3, allow_off_grid=True)
    defaults.update(kw)
    return SRConfig(**defaults)


class TestInit:
    def test_weight_bound(self):
        params = sr_init(SRConfig(c=4, h=3, w=3, u=8, p=4), make_rng(0))
        bound = 0.5  # sqrt(1/4)
        for w in (params.squeeze_w, params.fc1_w, params.fc2_w):
            assert np.all(w > -bound) and np.all(w < bound)

    def test_memory_exactly_zero(self):
        params = sr_init(SRConfig(c=5, h=2, w=3, u=8, p=7, allow_off_grid=True), make_rng(3))
        assert params.memory.shape == (7, 5, 2, 3)
        assert not params.memory.any()

    def test_same_seed_bit_identical(self):
        cfg = SRConfig(c=6, h=4, w=4, u=8, p=5, allow_off_grid=True)
        a, b = sr_init(cfg, make_rng(99)), sr_init(cfg, make_rng(99))
        for (_, ta), (_, tb) in zip(a.items(), b.items()):
            assert np.array_equal(ta, tb)

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="sr.u"):
            SRConfig(c=4, h=2, w=2, u=7, p=4).validate()
        with pytest.raises(ConfigError, match="sr.p"):
            SRConfig(c=4, h=2, w=2, u=8, p=1).validate()
        with pytest.raises(ConfigError, match="sr.p"):
            SRConfig(c=4, h=2, w=2, u=8, p=21).validate()
        SRConfig(c=4, h=2, w=2, u=7, p=1, allow_off_grid=True).validate()
        with pytest.raises(ConfigError, match="sr.c"):
            SRConfig(c=0, h=2, w=2, u=8, p=4).validate()


class TestForward:
    def test_identity_at_init(self):
        cfg = small_cfg()
        params = sr_init(cfg, make_rng(1))
        rng = make_rng(2)
        for _ in range(10):
            x = rng.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
            out, cache = sr_forward(params, x)
            assert np.array_equal(out, x)
            assert np.abs(cache.alpha.sum(axis=1) - 1.0).max() < 1e-6

    def test_identical_blocks_add_block(self):
        params = sr_init(small_cfg(), make_rng(5))
        rng = make_rng(6)
        block = rng.uniform(-1, 1, (3, 4, 4)).astype(np.float32)
        params.memory[:] = block
        x = rng.uniform(-1, 1, (4, 3, 4, 4)).astype(np.float32)
        out, _ = sr_forward(params, x)
        assert np.allclose(out, x + block, rtol=1e-5, atol=1e-6)

    def test_saturated_alpha_adds_selected_block(self):
        cfg = small_cfg(p=2, u=4)
        params = sr_init(cfg, make_rng(7))
        # drive the two logits far apart regardless of the hidden vector
        params.fc2_w[0, :] = 40.0
        params.fc2_w[1, :] = -40.0
        params.fc1_w[:] = np.abs(params.fc1_w) + 0.1  # keep hidden positive
        params.squeeze_w[:] = np.abs(params.squeeze_w) + 0.1
        params.memory[0] = 1.0
        x = make_rng(8).uniform(0.1, 1.0, (3, 3, 4, 4)).astype(np.float32)
        out, cache = sr_forward(params, x)
        assert cache.alpha[:, 0].min() > 1 - 1e-6
        assert np.allclose(out, x + 1.0, atol=1e-5)

    def test_shape_preserved_and_mismatch_rejected(self):
        params = sr_init(small_cfg(), make_rng(1))
        x = make_rng(2).uniform(-1, 1, (5, 3, 4, 4)).astype(np.float32)
        out, _ = sr_forward(params, x)
        assert out.shape == x.shape
        with pytest.raises(DimensionError, match="channel"):
            sr_forward(params, np.zeros((1, 4, 4, 4), dtype=np.float32))


class TestBackward:
    def test_zero_memory_passthrough(self):
        params = sr_init(small_cfg(), make_rng(10))
        x = make_rng(11).uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
        _, cache = sr_forward(params, x)
        g = make_rng(12).uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
        grads, grad_x = sr_backward(params, cache, g)
        assert np.array_equal(grad_x, g)
        grad_alpha = np.tensordot(g, params.memory, axes=([1, 2, 3], [1, 2, 3]))
        assert not grad_alpha.any()

    def test_saturated_alpha_memory_grad(self):
        cfg = small_cfg(p=2, u=4)
        params = sr_init(cfg, make_rng(13))
        params.fc2_w[0, :] = 40.0
        params.fc2_w[1, :] = -40.0
        params.fc1_w[:] = np.abs(params.fc1_w) + 0.1
        params.squeeze_w[:] = np.abs(params.squeeze_w) + 0.1
        params.memory[:] = make_rng(14).uniform(-1, 1, params.memory.shape).astype(np.float32)
        x = make_rng(15).uniform(0.1, 1.0, (3, 3, 4, 4)).astype(np.float32)
        _, cache = sr_forward(params, x)
        g = make_rng(16).uniform(-1, 1, x.shape).astype(np.float32)
        grads, _ = sr_backward(params, cache, g)
        assert np.allclose(grads.memory[0], g.sum(axis=0), atol=1e-5)
        assert np.abs(grads.memory[1]).max() < 1e-5

    def test_full_fd_check(self):
        cfg = SRConfig(c=3, h=4, w=4, u=8, p=3, allow_off_grid=True)
        rng = make_rng(17)
        params = sr_init(cfg, rng, dtype=np.float64)
        params.memory[:] = rng.uniform(-1, 1, params.memory.shape)
        x = rng.uniform(-1, 1, (2, 3, 4, 4))
        g = rng.uniform(-1, 1, (2, 3, 4, 4))

        def loss():
            out, _ = sr_forward(params, x)
            return float(np.sum(out * g))

        _, cache = sr_forward(params, x)
        grads, grad_x = sr_backward(params, cache, g)
        assert max_rel_err(grad_x, fd_gradient(loss, x)) < 1e-3
        grad_map = dict(grads.items())
        for name, tensor in params.items():
            assert max_rel_err(grad_map[name], fd_gradient(loss, tensor)) < 1e-3, name

    def test_hidden_relu_variant_fd(self):
        cfg = SRConfig(c=2, h=3, w=3, u=4, p=3, hidden_relu=True, allow_off_grid=True)
        rng = make_rng(18)
        params = sr_init(cfg, rng, dtype=np.float64)
        params.memory[:] = rng.uniform(-1, 1, params.memory.shape)
        x = rng.uniform(-1, 1, (2, 2, 3, 3))
        g = rng.uniform(-1, 1, (2, 2, 3, 3))

        def loss():
            return float(np.sum(sr_forward(params, x)[0] * g))

        _, cache = sr_forward(params, x)
        grads, grad_x = sr_backward(params, cache, g)
        assert max_rel_err(grad_x, fd_gradient(loss, x, step=1e-4)) < 1e-3
        for name, tensor in params.items():
            analytic = dict(grads.items())[name]
            assert max_rel_err(analytic, fd_gradient(loss, tensor, step=1e-4)) < 1e-3

    def test_missing_and_stale_cache(self):
        params = sr_init(small_cfg(), make_rng(19))
        x = make_rng(20).uniform(-1, 1, (1, 3, 4, 4)).astype(np.float32)
        _, cache = sr_forward(params, x)
        with pytest.raises(UsageError):
            sr_backward(params, None, x)
        other = sr_init(small_cfg(), make_rng(21))
        with pytest.raises(UsageError):
            sr_backward(other, cache, x)

    @pytest.mark.parametrize("shape", [(1, 4, 4, 4), (2, 3, 4, 4), (3, 4, 4)])
    def test_misshapen_grad_out_is_named(self, shape):
        params = sr_init(small_cfg(), make_rng(22))
        _, cache = sr_forward(params, make_rng(23).uniform(-1, 1, (1, 3, 4, 4)))
        with pytest.raises(DimensionError, match=r"^grad_out: shape is"):
            sr_backward(params, cache, np.zeros(shape))


RESNET_SHAPE = dict(c=1024, h=14, w=14, u=16, p=10)  # perfbench's sr_block_resnet
WIDE_SHAPE = dict(c=512, h=16, w=16, u=16, p=10)
DEFAULT_HOST_SHAPE = dict(c=64, h=8, w=8, u=8, p=4)  # after stage 3 of the default host


def pool_case(n, shape, seed=0):
    """An SR block with a 0.1*N(0,1) memory bank, input and upstream gradient."""
    rng = make_rng(seed)
    params = sr_init(SRConfig(**shape), rng)
    params.memory[:] = 0.1 * rng.standard_normal(params.memory.shape, dtype=np.float32)
    x = rng.random((n, shape["c"], shape["h"], shape["w"]), dtype=np.float32)
    return params, x, rng.standard_normal(x.shape, dtype=np.float32)


def digests(out, grads, grad_x):
    named = {"out": out, **grads, "grad_x": grad_x}
    return {k: (t.dtype.str, hashlib.sha256(t.tobytes()).hexdigest()) for k, t in named.items()}


class TestWorkerPool:
    """The memory-bound passes run in blocks fixed by the shape on the ops
    worker pool, with the bits of the unsplit formulas."""

    # batch 32 at the ResNet shape: 7 blocks of 5 rows or 32768 columns, the
    # last ragged; batch 17 at 512x16x16: row blocks of 8 would leave a last
    # block of one row (a gemv in numpy), so they grow to 9 and 8; p = 1 makes
    # the memory gradient a gemv, which stays one block; batch 9 at the ResNet
    # shape: the squeeze's blocks of 2 samples end in one of one sample
    @pytest.mark.parametrize("n, shape", [
        (32, RESNET_SHAPE), (17, WIDE_SHAPE),
        (40, dict(c=1024, h=7, w=7, u=8, p=1, allow_off_grid=True)), (9, RESNET_SHAPE)])
    def test_same_bytes_as_unsplit_formulas_on_1_2_3_workers(
            self, use_workers, pool_submissions, n, shape):
        params, x, g = pool_case(n, shape)
        want = digests(*sr_block_unsplit(params, x, g))
        for k in (1, 2, 3):
            use_workers(k)
            out, cache = sr_forward(params, x)
            grads, grad_x = sr_backward(params, cache, g)
            assert digests(out, dict(grads.items()), grad_x) == want, f"{k} workers"
            del out, cache, grads, grad_x
        assert len(pool_submissions) > 0

    @pytest.mark.parametrize("pass_", ["recall", "residual add", "squeeze", "gate gradient"])
    def test_overflow_raises_from_a_worker(self, use_workers, pool_submissions, pass_):
        params, x, g = pool_case(17, WIDE_SHAPE)
        params.memory[:] = 3e38
        if pass_ == "recall":  # weights that are not convex, so the products overflow
            run = lambda: recall_map(params, np.full((17, params.cfg.p), 4.0, np.float32))
        elif pass_ == "residual add":  # uniform alpha recalls 3e38, and x + 3e38 overflows
            params.squeeze_w[:] = 0.0
            x[:] = 3e38
            run = lambda: sr_forward(params, x)[0]
        elif pass_ == "squeeze":  # 4 * 3e38 overflows in every product
            params.squeeze_w[:] = 4.0
            x[:] = 3e38
            run = lambda: ops.conv1x1_fwd(x, params.squeeze_w)
        else:  # g * 3e38 overflows in the sums of the gate's gemm
            g[:] = 1.0
            run = lambda: _matmul_rows(g.reshape(17, -1), params.memory.reshape(10, -1).T)
        use_workers(2)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            run()
        assert len(pool_submissions) > 0
        with np.errstate(over="ignore"):
            assert np.isinf(run()).all()

    def test_every_pass_splits_at_the_resnet_shape(self, use_workers, chunk_calls):
        params, x, g = pool_case(32, RESNET_SHAPE)
        use_workers(2)
        _, cache = sr_forward(params, x)
        sr_backward(params, cache, g)
        assert {name for name, n, size in chunk_calls if n > size} == {
            "conv1x1_fwd.<locals>.squeeze", "_matmul_columns.<locals>.block",
            "_rows_into.<locals>.block", "_matmul_rows.<locals>.block",
            "conv1x1_bwd.<locals>.channel_major", "conv1x1_bwd.<locals>.scale"}
        assert all(n > size for _, n, size in chunk_calls)
        assert [-(-n // size) for name, n, size in chunk_calls
                if name == "_matmul_rows.<locals>.block"] == [2]  # the gate: two row blocks

    @pytest.mark.parametrize("n", [128, 256])
    def test_default_host_shape_runs_inline(self, use_workers, pool_submissions, n):
        params, x, g = pool_case(n, DEFAULT_HOST_SHAPE)
        use_workers(2)
        _, cache = sr_forward(params, x)
        sr_backward(params, cache, g)
        assert pool_submissions == []


class TestAccounting:
    def test_table_scale_count(self):
        # 1024 + 14*14*16 + 16*10 + 10*1024*14*14, evaluated by hand
        assert sr_param_count(SRConfig(c=1024, h=14, w=14, u=16, p=10)) == 2_011_360

    def test_minimal_count(self):
        cfg = SRConfig(c=1, h=1, w=1, u=1, p=1, allow_off_grid=True)
        assert sr_param_count(cfg) == 4

    def test_r18_scale_count(self):
        assert sr_param_count(SRConfig(c=512, h=4, w=4, u=8, p=12)) == 99_040

    def test_overhead_values(self):
        cfg10 = SRConfig(c=1024, h=14, w=14, u=16, p=10)
        assert sr_overhead(cfg10, RESNET50_BASELINE) == 7.87
        cfg2 = SRConfig(c=1024, h=14, w=14, u=16, p=2)
        assert sr_overhead(cfg2, RESNET50_BASELINE) == 1.59
        cfg20 = SRConfig(c=1024, h=14, w=14, u=16, p=20)
        assert abs(sr_overhead(cfg20, RESNET50_BASELINE) - 15.73) <= 0.05
        cfg_r18 = SRConfig(c=512, h=4, w=4, u=8, p=12)
        assert abs(sr_overhead(cfg_r18, RESNET18_CIFAR100_BASELINE) - 0.88) <= 0.02

    def test_baseline_constants_rederived(self):
        assert resnet50_imagenet_param_count() == RESNET50_BASELINE
        assert resnet18_cifar100_param_count() == RESNET18_CIFAR100_BASELINE

    def test_bad_baseline(self):
        with pytest.raises(ConfigError):
            sr_overhead(small_cfg(), 0)

    def test_count_equals_allocation(self):
        for u in (8, 16, 32):
            for p in range(2, 21):
                cfg = SRConfig(c=3, h=2, w=3, u=u, p=p)
                params = sr_init(cfg, make_rng(0))
                assert sr_param_count(cfg) == sum(t.size for _, t in params.items())


class TestAblate:
    def test_forward_identity_bitwise(self):
        params = sr_init(small_cfg(), make_rng(30))
        params.memory[:] = make_rng(31).uniform(-1, 1, params.memory.shape).astype(np.float32)
        ablated = sr_ablate(params)
        x = make_rng(32).uniform(-1, 1, (3, 3, 4, 4)).astype(np.float32)
        out, _ = sr_forward(ablated, x)
        assert np.array_equal(out, x)
        assert params.memory.any(), "ablation must not mutate the original"

    def test_noop_on_fresh_params(self):
        params = sr_init(small_cfg(), make_rng(33))
        ablated = sr_ablate(params)
        for (_, a), (_, b) in zip(params.items(), ablated.items()):
            assert np.array_equal(a, b)


class TestInvariants:
    @given(st.integers(0, 2**31 - 1))
    def test_identity_at_init_property(self, seed):
        rng = make_rng(seed)
        cfg = SRConfig(
            c=int(rng.integers(1, 6)),
            h=int(rng.integers(1, 5)),
            w=int(rng.integers(1, 5)),
            u=int(rng.integers(1, 6)),
            p=int(rng.integers(2, 6)),
            allow_off_grid=True,
        )
        params = sr_init(cfg, rng)
        x = rng.uniform(-1, 1, (2, cfg.c, cfg.h, cfg.w)).astype(np.float32)
        out, _ = sr_forward(params, x)
        assert np.array_equal(out, x)

    def test_convexity_bound(self):
        cfg = small_cfg(p=4)
        rng = make_rng(40)
        params = sr_init(cfg, rng)
        params.memory[:] = rng.uniform(-2, 2, params.memory.shape).astype(np.float32)
        x = rng.uniform(-1, 1, (6, 3, 4, 4)).astype(np.float32)
        out, _ = sr_forward(params, x)
        added = out - x
        lo = params.memory.min(axis=0)[None]
        hi = params.memory.max(axis=0)[None]
        eps = 1e-5
        assert np.all(added >= lo - eps)
        assert np.all(added <= hi + eps)

    def test_permutation_equivariance(self):
        cfg = small_cfg(p=5)
        rng = make_rng(41)
        params = sr_init(cfg, rng)
        params.memory[:] = rng.uniform(-1, 1, params.memory.shape).astype(np.float32)
        x = rng.uniform(-1, 1, (3, 3, 4, 4)).astype(np.float32)
        out, _ = sr_forward(params, x)
        perm = rng.permutation(cfg.p)
        shuffled = params.copy()
        shuffled.memory[:] = params.memory[perm]
        shuffled.fc2_w[:] = params.fc2_w[perm]
        out_perm, _ = sr_forward(shuffled, x)
        assert np.abs(out - out_perm).max() < 1e-6

    def test_closed_form_memory_grad_matches_fd(self):
        cfg = SRConfig(c=2, h=2, w=2, u=3, p=3, allow_off_grid=True)
        rng = make_rng(42)
        params = sr_init(cfg, rng, dtype=np.float64)
        params.memory[:] = rng.uniform(-1, 1, params.memory.shape)
        x = rng.uniform(-1, 1, (3, 2, 2, 2))
        g = rng.uniform(-1, 1, (3, 2, 2, 2))
        _, cache = sr_forward(params, x)
        grads, _ = sr_backward(params, cache, g)
        loss = lambda: float(np.sum(sr_forward(params, x)[0] * g))
        assert max_rel_err(grads.memory, fd_gradient(loss, params.memory)) < 1e-3
