"""Primitive forward/backward rules against hand values, loop oracles, and
central finite differences."""

import math
import multiprocessing
import os
import queue
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srkit import ops
from srkit.errors import ConfigError, DimensionError, NumericError
from srkit.rng import make_rng

from oracles import (
    conv1x1_channels,
    conv1x1_loops,
    conv3x3_bwd_loops,
    conv3x3_loops,
    fd_gradient,
    matmul_loops,
    max_rel_err,
)

FD_TOL = 1e-3

# (n, c, h, w) for the conv3x3 loop oracles. At each stride both patch layouts
# (ops._conv3x3_layout) run, with one chunk and with a batch split over two.
ORACLE_SHAPES = [
    (2, 3, 5, 4), (2, 3, 7, 7), (2, 1, 5, 4), (ops._CHUNK + 2, 1, 5, 4),
    (2, 1, 9, 8), (ops._CHUNK + 2, 3, 5, 4), (ops._CHUNK + 2, 1, 9, 8),
]


def u(rng, *shape):
    return rng.uniform(-1.0, 1.0, shape)


def channels_last(c, ow):
    """Whether the conv3x3 ops take channels-last patches for c channels, ow wide."""
    return ops._conv3x3_layout(np.zeros((1, c, 3, 3)), ow)[0]


class TestConv1x1:
    def test_zero_input(self, rng):
        x = np.zeros((2, 3, 4, 4), dtype=np.float32)
        out = ops.conv1x1_fwd(x, u(rng, 3).astype(np.float32))
        assert np.array_equal(out, np.zeros((2, 1, 4, 4), dtype=np.float32))
        # every product is -0.0, and -0.0 + -0.0 stays -0.0 in the loop: the
        # sign must survive inline and on the pool (more than ops._TASK elements)
        for shape in [(2, 3, 4, 4), (6, 1024, 14, 14)]:
            weight = -1.0 - rng.random(shape[1], dtype=np.float32)
            out = ops.conv1x1_fwd(np.zeros(shape, dtype=np.float32), weight)
            assert not out.any() and np.signbit(out).all()

    def test_channel_mean_weight(self):
        x = np.zeros((1, 4, 2, 2), dtype=np.float32)
        for ch in range(4):
            x[0, ch] = ch + 1
        weight = np.full(4, 0.25, dtype=np.float32)
        out = ops.conv1x1_fwd(x, weight)
        assert np.allclose(out, 2.5)

    def test_matches_loop_oracle_bitwise(self, rng):
        for _ in range(5):
            x = u(rng, 2, 3, 2, 2).astype(np.float32)
            weight = u(rng, 3).astype(np.float32)
            got = ops.conv1x1_fwd(x, weight)
            want = conv1x1_loops(x, weight)
            assert np.array_equal(got, want), "accumulation order must match"
        # shapes of more than ops._TASK elements: pooled blocks of 2 samples
        # and of one, and h*w = 1, where the channel axis would be innermost
        for shape in [(9, 1024, 14, 14), (20, 60000, 1, 1)]:
            x = rng.standard_normal(shape, dtype=np.float32)
            weight = rng.standard_normal(shape[1], dtype=np.float32)
            got = ops.conv1x1_fwd(x, weight)
            assert got.tobytes() == conv1x1_channels(x, weight).tobytes(), shape

    def test_shape_error_names_axis(self, rng):
        with pytest.raises(DimensionError, match="channel"):
            ops.conv1x1_fwd(u(rng, 2, 3, 4, 4), u(rng, 5))

    def test_bwd_zero_grad(self, rng):
        x = u(rng, 2, 3, 4, 4)
        grad_x, grad_w = ops.conv1x1_bwd(x, u(rng, 3), np.zeros((2, 1, 4, 4)))
        assert not grad_x.any() and not grad_w.any()

    def test_bwd_indicator_weight(self):
        x = np.ones((1, 2, 3, 3))
        weight = np.array([1.0, 0.0])
        grad_x, _ = ops.conv1x1_bwd(x, weight, np.ones((1, 1, 3, 3)))
        assert np.array_equal(grad_x[:, 0], np.ones((1, 3, 3)))
        assert np.array_equal(grad_x[:, 1], np.zeros((1, 3, 3)))

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_bwd_weight_above_one_task_near_float64_tensordot(self, rng, dtype, tol):
        """More than ops._TASK elements: one gemv per sample, in blocks on the
        pool, added in sample order; also h*w = 1, gemvs of inner length one."""
        for shape in [(9, 1024, 14, 14), (20, 60000, 1, 1)]:
            x = rng.standard_normal(shape).astype(dtype)
            g = rng.standard_normal((shape[0], 1, *shape[2:])).astype(dtype)
            _, grad_w = ops.conv1x1_bwd(x, np.ones(shape[1], dtype), g)
            want = np.tensordot(x.astype(np.float64), g[:, 0].astype(np.float64),
                                axes=([0, 2, 3], [0, 1, 2]))
            assert grad_w.dtype == dtype and max_rel_err(grad_w, want) <= tol, shape

    def test_bwd_matches_fd(self, rng):
        for _ in range(20):
            x, weight = u(rng, 2, 3, 3, 2), u(rng, 3)
            g = u(rng, 2, 1, 3, 2)
            grad_x, grad_w = ops.conv1x1_bwd(x, weight, g)
            loss = lambda: float(np.sum(ops.conv1x1_fwd(x, weight) * g))
            assert max_rel_err(grad_x, fd_gradient(loss, x)) < FD_TOL
            assert max_rel_err(grad_w, fd_gradient(loss, weight)) < FD_TOL


class TestLinear:
    def test_identity_weight(self, rng):
        x = u(rng, 3, 4)
        assert np.array_equal(ops.linear_fwd(x, np.eye(4)), x)

    def test_hand_case(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ops.linear_fwd(x, np.eye(2)), x)

    def test_matches_loop_oracle(self, rng):
        x, weight = u(rng, 3, 5), u(rng, 4, 5)
        assert max_rel_err(ops.linear_fwd(x, weight), matmul_loops(x, weight)) < 1e-12

    def test_dimension_error(self, rng):
        with pytest.raises(DimensionError):
            ops.linear_fwd(u(rng, 3, 5), u(rng, 4, 6))

    def test_bwd_zero_grad(self, rng):
        grad_x, grad_w = ops.linear_bwd(u(rng, 3, 5), u(rng, 4, 5), np.zeros((3, 4)))
        assert not grad_x.any() and not grad_w.any()

    def test_bwd_identity_weight(self, rng):
        g = u(rng, 3, 4)
        grad_x, _ = ops.linear_bwd(u(rng, 3, 4), np.eye(4), g)
        assert np.array_equal(grad_x, g)

    def test_bwd_matches_fd(self, rng):
        for _ in range(20):
            x, weight, g = u(rng, 2, 4), u(rng, 3, 4), u(rng, 2, 3)
            grad_x, grad_w = ops.linear_bwd(x, weight, g)
            loss = lambda: float(np.sum(ops.linear_fwd(x, weight) * g))
            assert max_rel_err(grad_x, fd_gradient(loss, x)) < FD_TOL
            assert max_rel_err(grad_w, fd_gradient(loss, weight)) < FD_TOL


class TestSoftmax:
    def test_uniform(self):
        probs = ops.softmax_fwd(np.zeros((1, 10)))
        assert np.allclose(probs, 0.1, atol=1e-7)

    def test_closed_form(self):
        probs = ops.softmax_fwd(np.log(np.array([[1.0, 3.0]])))
        assert np.allclose(probs, [[0.25, 0.75]], atol=1e-7)

    def test_large_logits_no_overflow(self):
        probs = ops.softmax_fwd(np.array([[1000.0, 1000.0]]))
        assert np.allclose(probs, 0.5)
        assert np.all(np.isfinite(probs))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            ops.softmax_fwd(np.array([[np.nan, 0.0]]))
        with pytest.raises(NumericError):
            ops.softmax_fwd(np.array([[np.inf, 0.0]]))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_rows_normalized_and_positive(self, seed, p):
        logits = make_rng(seed).uniform(-50, 50, (4, p)).astype(np.float32)
        probs = ops.softmax_fwd(logits)
        assert np.all(probs > 0) and np.all(probs < 1 + 1e-6)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6

    def test_bwd_translation_invariance(self):
        probs = np.full((2, 4), 0.25)
        grad = ops.softmax_bwd(probs, np.full((2, 4), 3.7))
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_bwd_hand_case(self):
        grad = ops.softmax_bwd(np.array([[0.25, 0.75]]), np.array([[1.0, 0.0]]))
        assert np.allclose(grad, [[0.1875, -0.1875]], atol=1e-12)

    def test_bwd_matches_fd(self, rng):
        for _ in range(20):
            logits, g = u(rng, 2, 4), u(rng, 2, 4)
            grad = ops.softmax_bwd(ops.softmax_fwd(logits), g)
            loss = lambda: float(np.sum(ops.softmax_fwd(logits) * g))
            assert max_rel_err(grad, fd_gradient(loss, logits)) < FD_TOL


class TestConv3x3:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_loop_oracle(self, rng, stride):
        x, weight = u(rng, 2, 3, 5, 4), u(rng, 4, 3, 3, 3)
        got = ops.conv3x3_fwd(x, weight, stride)
        want = conv3x3_loops(x, weight, stride)
        assert got.shape == want.shape
        assert max_rel_err(got, want) < 1e-12

    def test_output_extents(self, rng):
        x = u(rng, 1, 2, 32, 32)
        w = u(rng, 2, 2, 3, 3)
        assert ops.conv3x3_fwd(x, w, 1).shape == (1, 2, 32, 32)
        assert ops.conv3x3_fwd(x, w, 2).shape == (1, 2, 16, 16)

    def test_deterministic(self, rng):
        x = u(rng, 2, 3, 8, 8).astype(np.float32)
        w = u(rng, 4, 3, 3, 3).astype(np.float32)
        assert np.array_equal(ops.conv3x3_fwd(x, w, 2), ops.conv3x3_fwd(x, w, 2))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_bwd_matches_fd(self, rng, stride):
        for _ in range(20):
            x, weight = u(rng, 2, 2, 4, 4), u(rng, 2, 2, 3, 3)
            out_shape = ops.conv3x3_fwd(x, weight, stride).shape
            g = rng.uniform(-1, 1, out_shape)
            grad_x, grad_w = ops.conv3x3_bwd(x, weight, g, stride)
            loss = lambda: float(np.sum(ops.conv3x3_fwd(x, weight, stride) * g))
            assert max_rel_err(grad_x, fd_gradient(loss, x)) < FD_TOL
            assert max_rel_err(grad_w, fd_gradient(loss, weight)) < FD_TOL

    def test_bad_grad_shape(self, rng):
        with pytest.raises(DimensionError):
            ops.conv3x3_bwd(u(rng, 1, 2, 4, 4), u(rng, 2, 2, 3, 3), u(rng, 1, 2, 3, 3), 1)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_bwd_matches_loop_oracle(self, rng, shape, stride):
        x, weight = u(rng, *shape), u(rng, 4, shape[1], 3, 3)
        out = ops.conv3x3_fwd(x, weight, stride)
        assert max_rel_err(out, conv3x3_loops(x, weight, stride)) < 1e-12
        g = u(rng, *out.shape)
        grad_x, grad_w = ops.conv3x3_bwd(x, weight, g, stride)
        want_x, want_w = conv3x3_bwd_loops(x, weight, g, stride)
        assert grad_x.shape == x.shape and grad_w.shape == weight.shape
        assert max_rel_err(grad_x, want_x) < 1e-12
        assert max_rel_err(grad_w, want_w) < 1e-12
        assert np.array_equal(ops.conv3x3_bwd_weight(x, weight, g, stride), grad_w)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_oracle_shapes_cover_both_layouts(self, stride):
        for chunks in (1, 2):
            cases = [s for s in ORACLE_SHAPES if -(-s[0] // ops._CHUNK) == chunks]
            taken = {channels_last(c, (w - 1) // stride + 1) for _, c, _, w in cases}
            assert taken == {False, True}

    def test_layout_rule_on_the_default_host(self):
        stages = ((3, 32), (16, 16), (32, 8), (64, 4))  # (c, ow) of stages 1-4
        assert [channels_last(c, ow) for c, ow in stages] == [False, True, True, True]

    @pytest.mark.parametrize("stride", [1, 2])
    def test_float32_stays_float32(self, rng, stride):
        for c, w in ((3, 4), (1, 9)):  # channels-last, then NCHW at both strides
            x = u(rng, 2, c, 5, w).astype(np.float32)
            weight = u(rng, 4, c, 3, 3).astype(np.float32)
            out = ops.conv3x3_fwd(x, weight, stride)
            grad_x, grad_w = ops.conv3x3_bwd(x, weight, out, stride)
            grad_w_only = ops.conv3x3_bwd_weight(x, weight, out, stride)
            assert out.dtype == grad_x.dtype == grad_w.dtype == np.float32
            assert grad_w_only.dtype == np.float32

    @pytest.mark.parametrize("stride", [1, 2])
    def test_non_contiguous_input_matches_copy(self, rng, stride):
        for c, w in ((3, 8), (1, 16)):  # channels-last, then NCHW at both strides
            base = u(rng, 3, c, 9, w).astype(np.float32)
            weight = u(rng, 4, c, 3, 3).astype(np.float32)
            for x in (base[::2, :, 1:6, ::2], base.transpose(0, 1, 3, 2)):
                assert not x.flags.c_contiguous
                dense = np.ascontiguousarray(x)
                out = ops.conv3x3_fwd(x, weight, stride)
                assert np.array_equal(out, ops.conv3x3_fwd(dense, weight, stride))
                for got, want in zip(ops.conv3x3_bwd(x, weight, out, stride),
                                     ops.conv3x3_bwd(dense, weight, out, stride)):
                    assert np.array_equal(got, want)
                assert np.array_equal(ops.conv3x3_bwd_weight(x, weight, out, stride),
                                      ops.conv3x3_bwd_weight(dense, weight, out, stride))


def _conv_sum_in_child(results, x, weight):
    results.put(float(ops.conv3x3_fwd(x, weight).sum()))


class TestWorkerPool:
    """The conv chunks run on a pool of SRKIT_THREADS workers, with the bits of
    the one-thread loop."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES + [
        (ops._CHUNK, 3, 5, 4), (ops._CHUNK, 1, 9, 8), (2 * ops._CHUNK + 3, 3, 6, 5)])
    def test_bits_do_not_depend_on_worker_count(self, rng, use_workers, shape, stride):
        x = u(rng, *shape).astype(np.float32)
        weight = u(rng, 4, shape[1], 3, 3).astype(np.float32)
        g = u(rng, shape[0], 4, (shape[2] - 1) // stride + 1,
              (shape[3] - 1) // stride + 1).astype(np.float32)
        results = []
        for k in (1, 2, 3):
            use_workers(k)
            results.append([ops.conv3x3_fwd(x, weight, stride),
                            *ops.conv3x3_bwd(x, weight, g, stride),
                            ops.conv3x3_bwd_weight(x, weight, g, stride)])
        for got in results[1:]:
            for a, b in zip(got, results[0]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_stress_more_workers_than_cores(self, rng, use_workers):
        """Chunks may finish in any order on 4 workers that switch every
        microsecond; every output must still hold the one-thread bits."""
        x = u(rng, 8 * ops._CHUNK + 5, 8, 9, 8).astype(np.float32)
        weight = u(rng, 6, 8, 3, 3).astype(np.float32)
        g = u(rng, x.shape[0], 6, 5, 4).astype(np.float32)

        def run():
            return [ops.conv3x3_fwd(x, weight, 2), *ops.conv3x3_bwd(x, weight, g, 2)]

        use_workers(1)
        want = [a.tobytes() for a in run()]
        use_workers(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert [a.tobytes() for a in run()] == want
        finally:
            sys.setswitchinterval(interval)

    def test_results_come_back_in_chunk_order(self, use_workers):
        """Block 0 runs on the calling thread and finishes last; the others run
        on pool threads."""
        use_workers(3)

        def late_first(b):
            time.sleep(0.05 if b == 0 else 0.0)
            return b, threading.current_thread().name

        got = ops._each_chunk(late_first, 3 * ops._CHUNK)
        assert [b for b, _ in got] == [0, ops._CHUNK, 2 * ops._CHUNK]
        assert got[0][1] == threading.current_thread().name
        assert all(name.startswith("srkit-conv") for _, name in got[1:])

    @pytest.mark.parametrize("k, blocks, groups", [
        (2, 5, [2, 3]), (3, 7, [2, 2, 3]), (4, 2, [1, 1]), (2, 8, [4, 4])])
    def test_each_group_of_blocks_runs_on_one_thread(self, use_workers, k, blocks, groups):
        """Contiguous groups of sizes that differ by at most one, the larger
        last: the calling thread runs the first, one pool thread each other."""
        use_workers(k)

        def block(b):
            time.sleep(0.005)
            return b, threading.current_thread().name

        got = ops._each_chunk(block, blocks * ops._CHUNK)
        assert [b for b, _ in got] == list(range(0, blocks * ops._CHUNK, ops._CHUNK))
        cuts = np.cumsum([0] + groups)
        runs = [[name for _, name in got[lo:hi]] for lo, hi in zip(cuts, cuts[1:])]
        assert runs[0] == [threading.current_thread().name] * groups[0]
        for run in runs[1:]:
            assert run == [run[0]] * len(run) and run[0].startswith("srkit-conv")

    @pytest.mark.parametrize("k", [2, 3, 12])
    def test_a_pass_hands_groups_minus_one_tasks_to_the_pool(
            self, rng, use_workers, pool_submissions, k):
        x = u(rng, 8 * ops._CHUNK, 3, 6, 5).astype(np.float32)
        use_workers(k)
        ops.conv3x3_fwd(x, u(rng, 4, 3, 3, 3).astype(np.float32))
        assert len(pool_submissions) == min(k, 8) - 1

    def test_conv3x3_fwd_splits_in_chunks(self, rng, use_workers, chunk_calls):
        n = 2 * ops._CHUNK + 3  # a ragged last chunk of 3 samples
        x, weight = u(rng, n, 3, 6, 5).astype(np.float32), u(rng, 4, 3, 3, 3).astype(np.float32)
        use_workers(2)
        ops.conv3x3_fwd(x, weight)
        assert chunk_calls == [(n, ops._CHUNK)]

    def test_every_group_finishes_before_an_error_propagates(self, use_workers):
        use_workers(2)
        done = threading.Event()

        def block(b):
            if b == 0:
                raise ValueError("group 0")
            time.sleep(0.05)
            done.set()

        with pytest.raises(ValueError, match="group 0"):
            ops._each_chunk(block, 2 * ops._CHUNK)
        assert done.is_set()

    def test_the_first_failing_group_raises(self, use_workers):
        use_workers(3)

        def block(b):
            if b == 0:  # fails after the later groups have failed
                time.sleep(0.02)
            raise ValueError(f"block {b}")

        with pytest.raises(ValueError, match="block 0"):
            ops._each_chunk(block, 3 * ops._CHUNK)
        with pytest.raises(ValueError, match=f"block {ops._CHUNK}"):
            ops._each_chunk(lambda b: block(b) if b else None, 3 * ops._CHUNK)

    @pytest.mark.parametrize("k, n", [(1, 3 * ops._CHUNK), (2, ops._CHUNK), (2, 1)])
    def test_one_worker_or_one_chunk_runs_inline(self, use_workers, k, n):
        use_workers(k)
        names = ops._each_chunk(lambda b: threading.current_thread().name, n)
        assert names == [threading.current_thread().name] * -(-n // ops._CHUNK)

    @given(st.integers(1, 400), st.integers(1, 1 << 21))
    def test_block_size_leaves_no_block_of_one_entry(self, n, each):
        size = ops._block_size(n, each)
        assert size >= max(2, ops._TASK // each)
        assert n <= size or n % size != 1

    def test_errstate_reaches_the_workers(self, use_workers):
        use_workers(2)
        x = np.full((2 * ops._CHUNK, 2, 5, 4), 1e30, np.float32)
        weight = np.full((3, 2, 3, 3), 1e30, np.float32)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            ops.conv3x3_fwd(x, weight)
        with np.errstate(over="ignore"):
            assert np.isinf(ops.conv3x3_fwd(x, weight)).any()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_makes_its_own_pool(self, use_workers):
        """A child forked after the pool exists has none of its threads; it
        must make a pool of its own instead of waiting on the dead one."""
        use_workers(2)
        x = np.ones((3 * ops._CHUNK, 2, 6, 5), np.float32)
        weight = np.ones((3, 2, 3, 3), np.float32)
        want = float(ops.conv3x3_fwd(x, weight).sum())
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_conv_sum_in_child, args=(results, x, weight))
        child.start()
        try:
            got = results.get(timeout=30)
        except queue.Empty:
            got = None
        finally:
            child.join(5)
            if child.is_alive():
                child.kill()
        assert got == want

    def test_thread_count_default_and_override(self, monkeypatch):
        monkeypatch.delenv("SRKIT_THREADS", raising=False)
        assert ops.worker_count() >= 1
        monkeypatch.setenv("SRKIT_THREADS", "3")
        assert ops.worker_count() == 3


class TestSmallPrimitives:
    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.array_equal(ops.relu_fwd(x), [[0.0, 0.0, 2.0]])

    def test_relu_bwd_matches_fd(self, rng):
        for _ in range(20):
            x = u(rng, 2, 3, 4, 4)
            x = np.where(np.abs(x) < 0.05, 0.3, x)  # stay off the kink
            g = u(rng, 2, 3, 4, 4)
            grad = ops.relu_bwd(x, g)
            loss = lambda: float(np.sum(ops.relu_fwd(x) * g))
            assert max_rel_err(grad, fd_gradient(loss, x)) < FD_TOL

    @staticmethod
    def relu_case(rng):
        """float32 x and g above one _TASK (row blocks of 16 and 4), with
        +-0, NaN and +-inf in both, every pairing in the first and last row."""
        x, g = (u(rng, 20, 16, 64, 64).astype(np.float32) for _ in range(2))
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf], np.float32)
        for row in (0, -1):
            x[row, 0, 0, :25], g[row, 0, 0, :25] = np.repeat(special, 5), np.tile(special, 5)
        return x, g

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
    def test_relu_bytes_in_place_or_not(self, rng, use_workers, chunk_calls, k):
        x, g = self.relu_case(rng)
        want_fwd, want_bwd = np.maximum(x, 0), g * (x > 0)
        use_workers(k)
        y, h = x.copy(), g.copy()
        got = [ops.relu_fwd(x), ops.relu_fwd(y, y), ops.relu_bwd(x, g), ops.relu_bwd(x, h, h)]
        assert got[1] is y and got[3] is h
        for a, want in zip(got, (want_fwd, want_fwd, want_bwd, want_bwd)):
            assert a.dtype == want.dtype and a.tobytes() == want.tobytes()
        assert set(chunk_calls) == {(20, 16)}

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_relu_bwd_mask_from_output(self, rng):
        x, g = self.relu_case(rng)
        assert ops.relu_bwd(ops.relu_fwd(x), g).tobytes() == ops.relu_bwd(x, g).tobytes()

    def test_avgpool_fwd(self, rng):
        x = u(rng, 2, 3, 4, 4)
        assert np.allclose(ops.global_avgpool_fwd(x), x.mean(axis=(2, 3)))

    def test_avgpool_bwd_matches_fd(self, rng):
        for _ in range(20):
            x, g = u(rng, 2, 3, 4, 4), u(rng, 2, 3)
            grad = ops.global_avgpool_bwd(x.shape, g)
            loss = lambda: float(np.sum(ops.global_avgpool_fwd(x) * g))
            assert max_rel_err(grad, fd_gradient(loss, x)) < FD_TOL

    def test_add_and_flatten(self, rng):
        a = u(rng, 1, 2, 2, 2)
        flat = ops.flatten_fwd(a)
        assert flat.shape == (1, 8)
        assert np.array_equal(ops.flatten_bwd(flat, a.shape), a)

    def test_cross_entropy_hand_value(self):
        logits = np.array([[0.0, 0.0]])
        loss, probs = ops.cross_entropy_fwd(logits, np.array([0]))
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-6)
        assert np.allclose(probs, 0.5)

    def test_cross_entropy_confident_grad_near_zero(self):
        logits = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        labels = np.array([0, 1])
        _, probs = ops.cross_entropy_fwd(logits, labels)
        grad = ops.cross_entropy_bwd(probs, labels)
        assert np.linalg.norm(grad) <= 1e-5

    def test_cross_entropy_bwd_matches_fd(self, rng):
        for _ in range(20):
            logits = u(rng, 3, 4)
            labels = rng.integers(0, 4, 3)
            _, probs = ops.cross_entropy_fwd(logits, labels)
            grad = ops.cross_entropy_bwd(probs, labels)
            loss = lambda: ops.cross_entropy_fwd(logits, labels)[0]
            assert max_rel_err(grad, fd_gradient(loss, logits)) < FD_TOL

    def test_cross_entropy_probs_are_softmax_bits(self):
        """One cross_entropy_fwd serves a step's loss and its gradient: its
        probabilities are softmax_fwd's, bit for bit."""
        logits = make_rng(7).normal(0.0, 3.0, (128, 10)).astype(np.float32)
        _, probs = ops.cross_entropy_fwd(logits, make_rng(8).integers(0, 10, 128))
        assert probs.dtype == np.float32
        assert probs.tobytes() == ops.softmax_fwd(logits).tobytes()


class TestDropout:
    def test_p_zero_is_identity(self, rng):
        x = u(rng, 2, 3, 4, 4).astype(np.float32)
        mask = ops.dropout_mask(x.shape, 0.0, make_rng(0), channelwise=True)
        assert np.array_equal(ops.dropout_apply(x, mask), x)

    def test_channel_mask_reproducible(self):
        m1 = ops.dropout_mask((4, 8, 2, 2), 0.5, make_rng(42), channelwise=True)
        m2 = ops.dropout_mask((4, 8, 2, 2), 0.5, make_rng(42), channelwise=True)
        assert np.array_equal(m1, m2)
        assert m1.shape == (4, 8, 1, 1)

    def test_channelwise_zeroes_whole_channels(self, rng):
        x = np.ones((2, 6, 3, 3), dtype=np.float32)
        mask = ops.dropout_mask(x.shape, 0.5, make_rng(7), channelwise=True)
        out = ops.dropout_apply(x, mask)
        for n in range(2):
            for c in range(6):
                channel = out[n, c]
                assert channel.min() == channel.max(), "channels drop atomically"

    def test_inverted_scaling_values(self, rng):
        mask = ops.dropout_mask((3, 5, 2, 2), 0.25, make_rng(3), channelwise=False)
        values = set(np.unique(mask).tolist())
        assert values <= {0.0, np.float32(1.0 / 0.75)}

    def test_bad_p_rejected(self, rng):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                ops.dropout_mask((1, 2, 2, 2), p, make_rng(0), channelwise=False)

    @pytest.mark.parametrize("channelwise", [False, True])
    def test_bwd_matches_fd(self, rng, channelwise):
        for _ in range(20):
            x = u(rng, 2, 3, 4, 4)
            mask = ops.dropout_mask(
                x.shape, 0.4, make_rng(11), channelwise=channelwise, dtype=np.float64
            )
            g = u(rng, 2, 3, 4, 4)
            grad = ops.dropout_bwd(mask, g)
            loss = lambda: float(np.sum(ops.dropout_apply(x, mask) * g))
            assert max_rel_err(grad, fd_gradient(loss, x)) < FD_TOL


def test_float32_outputs_stay_float32(rng):
    x = u(rng, 2, 3, 4, 4).astype(np.float32)
    w = u(rng, 4, 3, 3, 3).astype(np.float32)
    assert ops.conv3x3_fwd(x, w, 1).dtype == np.float32
    assert ops.conv1x1_fwd(x, u(rng, 3).astype(np.float32)).dtype == np.float32
    assert ops.global_avgpool_fwd(x).dtype == np.float32
