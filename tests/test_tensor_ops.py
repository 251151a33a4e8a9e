import contextlib
import gc
import re
import weakref

import numpy as np
import pytest

from atscalm.nn import Tensor, bilstm_final, no_grad, ops
from atscalm.nn.lstm import LstmWeights, lstm_final
from atscalm.util import PipelineError, keyed_rng
from bn_pool_oracle import (maxpool2d_grad_reference, maxpool2d_reference,
                            residual_tail_reference)
from conv_oracle import conv2d_reference
from gradcheck import grad_check
from lstm_oracle import add, matmul, mul, sigmoid, split, tanh
from memtrace import traced_peak


def rand(shape, key):
    return keyed_rng("ops", key).normal(0, 1, shape)


class TestElementwise:
    def test_relu_values(self):
        out = ops.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_add_broadcast_backward(self):
        a = Tensor(rand((3, 4), 1), requires_grad=True)
        b = Tensor(rand((4,), 2), requires_grad=True)
        err = grad_check(lambda: add(a, b), [a, b])
        assert err < 1e-8

    def test_sigmoid_tanh_grads(self):
        x = Tensor(rand((5, 3), 4), requires_grad=True)
        assert grad_check(lambda: sigmoid(x), [x]) < 1e-8
        assert grad_check(lambda: tanh(x), [x]) < 1e-8

    def test_sigmoid_matches_two_branch_formula_exactly(self):
        x = np.concatenate([rand(997, 8) * 30.0,
                            [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]])
        pos = x >= 0
        want = np.empty_like(x)
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        assert np.array_equal(ops._sigmoid(x), want, equal_nan=True)

    def test_relu_grad_away_from_kink(self):
        vals = rand((4, 4), 6)
        vals[np.abs(vals) < 1e-3] = 0.5
        x = Tensor(vals, requires_grad=True)
        assert grad_check(lambda: ops.relu(x), [x]) < 1e-6


class TestLinear:
    """The fused node against the composed ``add(matmul(x, w), b)``."""

    @staticmethod
    def _leaves(dtype=np.float64):
        return [Tensor(rand(shape, key).astype(dtype), requires_grad=True)
                for shape, key in (((7, 5), 8), ((5, 3), 9), ((3,), 10))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_add_of_matmul(self, dtype):
        g = rand((7, 3), 11)
        results = []
        for op in (ops.linear, lambda x, w, b: add(matmul(x, w), b)):
            leaves = self._leaves(dtype)
            out = op(*leaves)
            out.backward(g)
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_one_node_over_its_inputs(self):
        x, w, b = self._leaves()
        assert ops.linear(x, w, b)._parents == (x, w, b)

    def test_grad(self):
        leaves = self._leaves()
        assert grad_check(lambda: ops.linear(*leaves), leaves) < 1e-8

    @pytest.mark.parametrize("xs,ws,bs", [((2, 3), (4, 2), (2,)), ((3,), (3, 2), (2,)),
                                          ((2, 3), (3, 2), (1, 2)), ((2, 3), (3, 2), (3,))],
                             ids=["x-w", "x-not-2d", "b-2d", "b-not-k"])
    def test_shape_mismatch_named(self, xs, ws, bs):
        with pytest.raises(PipelineError,
                           match=re.escape(f"linear shape mismatch: x {xs}, w {ws}, b {bs}")):
            ops.linear(Tensor(np.ones(xs)), Tensor(np.ones(ws)), Tensor(np.ones(bs)))


class TestConv2d:
    def test_all_ones_kernel(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = ops.conv2d(x, w, stride=1, pad=0)
        assert out.data.shape == (1, 1, 3, 3)
        assert np.allclose(out.data, 9.0)

    def test_stride_pad_shapes(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        assert ops.conv2d(x, w, stride=2, pad=1).data.shape == (2, 4, 4, 4)

    def test_grad_with_bias(self):
        x = Tensor(rand((2, 2, 5, 6), 13), requires_grad=True)
        w = Tensor(rand((3, 2, 3, 3), 14), requires_grad=True)
        b = Tensor(rand((3, 1, 1), 15), requires_grad=True)
        err = grad_check(lambda: add(ops.conv2d(x, w, stride=2, pad=1), b), [x, w, b])
        assert err < 1e-6

    def test_channel_mismatch(self):
        with pytest.raises(PipelineError):
            ops.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), 1, 0)

    # Every conv kind of the encoder: the 7x7/2 stem on one channel, the
    # 3x3/1 and 3x3/2 block convs, the 1x1/2 downsample and a stage3-like
    # 2x8 map. Odd sizes make the stride-2 windows skip the last row/column.
    ENCODER_CONVS = {
        "stem": ((2, 1, 16, 23), (4, 1, 7, 7), 2, 3),
        "3x3/1": ((2, 3, 6, 10), (5, 3, 3, 3), 1, 1),
        "3x3/2": ((2, 3, 7, 10), (4, 3, 3, 3), 2, 1),
        "1x1/2": ((2, 3, 7, 10), (4, 3, 1, 1), 2, 0),
        "stage3": ((3, 6, 2, 8), (6, 6, 3, 3), 1, 1),
        # A deep kernel on a small map: a stride-1 dx by the tap scatter.
        "3x3/1-deep": ((2, 16, 2, 3), (8, 16, 3, 3), 1, 1),
    }

    @staticmethod
    def _run(x, w, g, stride, pad):
        """Forward conv2d, then backward with ``g`` as its output gradient."""
        y = ops.conv2d(x, w, stride=stride, pad=pad)
        y.backward(g)
        return y

    @pytest.mark.parametrize("kind", sorted(ENCODER_CONVS))
    def test_matches_tap_loop_oracle(self, kind):
        xs, ws, stride, pad = self.ENCODER_CONVS[kind]
        x = Tensor(rand(xs, 40), requires_grad=True)
        w = Tensor(rand(ws, 41), requires_grad=True)
        shape = ops.conv2d(Tensor(x.data), Tensor(w.data), stride=stride, pad=pad).data.shape
        g = rand(shape, 42)
        y = self._run(x, w, g, stride, pad)
        for got, want in zip((y.data, x.grad, w.grad), conv2d_reference(x.data, w.data, g, stride, pad)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_input_without_grad_gets_none(self):
        xs, ws, stride, pad = self.ENCODER_CONVS["stem"]
        x = Tensor(rand(xs, 43))
        w = Tensor(rand(ws, 44), requires_grad=True)
        g = rand(ops.conv2d(x, w, stride=stride, pad=pad).data.shape, 45)
        self._run(x, w, g, stride, pad)
        assert x.grad is None
        dw_ref = conv2d_reference(x.data, w.data, g, stride, pad)[2]
        assert np.max(np.abs(w.grad - dw_ref)) <= 1e-12 * np.max(np.abs(dw_ref))

    def test_stage3_backward_peak_memory(self):
        """One forward and backward of the widest encoder conv (N=8, C=O=512,
        2x8 map, 3x3) stays below 60 MB of new allocations. Its dW is 18.9 MB
        and is copied once into ``w.grad``; a per-sample (N, O, C*3*3) dW
        stack would be 151 MB on its own."""
        x = Tensor(rand((8, 512, 2, 8), 46), requires_grad=True)
        w = Tensor(rand((512, 512, 3, 3), 47), requires_grad=True)
        g = rand((8, 512, 2, 8), 48)
        _, peak, _ = traced_peak(lambda: self._run(x, w, g, 1, 1))
        assert peak < 60e6, f"conv2d forward+backward peaked at {peak / 1e6:.1f} MB"

    def test_tiled_forward_equals_single_sample_forwards(self):
        """Tiles split only the GEMM's columns: a batch that takes three tiles
        gives, byte for byte, the outputs of one forward per sample."""
        x = rand((8, 64, 16, 64), 51)
        w = rand((64, 64, 3, 3), 52)
        assert len(ops._tiles(8, 64 * 9 * 16 * 64 * 8)) == 3
        got = ops.conv2d(Tensor(x), Tensor(w), stride=1, pad=1).data
        want = np.concatenate([ops.conv2d(Tensor(x[i : i + 1]), Tensor(w), stride=1, pad=1).data
                               for i in range(8)])
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_stage0_peak_below_one_column_matrix(self):
        """Forward and backward of a stage0 conv (N=8, C=O=64, 16x64 map, 3x3
        pad 1) peak below the 37.7 MB that its untiled im2col columns take."""
        x = Tensor(rand((8, 64, 16, 64), 53), requires_grad=True)
        w = Tensor(rand((64, 64, 3, 3), 54), requires_grad=True)
        g = rand((8, 64, 16, 64), 55)
        columns = 64 * 9 * 8 * 16 * 64 * 8
        _, peak, _ = traced_peak(lambda: ops.conv2d(x, w, stride=1, pad=1).backward(g))
        assert peak < columns, f"conv2d forward+backward peaked at {peak / 1e6:.1f} MB"

    def test_forward_keeps_no_columns(self):
        """A grad-requiring forward (N=8, C=O=64, 16x64 map, 3x3 pad 1) keeps
        no more than its output and 1 MB: the 37.7 MB im2col columns are
        rebuilt in backward, not held by its closure."""
        x = Tensor(rand((8, 64, 16, 64), 49), requires_grad=True)
        w = Tensor(rand((64, 64, 3, 3), 50), requires_grad=True)
        y, _, held = traced_peak(lambda: ops.conv2d(x, w, stride=1, pad=1))
        assert held <= y.data.nbytes + 1e6, f"forward keeps {held / 1e6:.1f} MB"


class TestMaxPool:
    def test_forward_known(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ops.maxpool2d(Tensor(x), kernel=2, stride=2, pad=0)
        assert np.array_equal(out.data.reshape(2, 2), [[5, 7], [13, 15]])

    def test_grad(self):
        vals = rand((2, 2, 6, 6), 17) * 10  # spread out to stay off ties
        x = Tensor(vals, requires_grad=True)
        err = grad_check(lambda: ops.maxpool2d(x, 3, 2, 1), [x])
        assert err < 1e-6

    # Ties as relu and rounding make them: zeros, and values drawn from a
    # handful of levels, so a window often holds its maximum twice.
    SHAPES = [((n, c, h, w), kernel, stride, pad, ties)
              for n, c, h, w, kernel, stride, pad in [
                  (1, 1, 4, 4, 3, 2, 1), (2, 3, 7, 9, 3, 2, 1), (1, 2, 8, 8, 2, 2, 0),
                  (2, 2, 5, 6, 3, 1, 1), (3, 1, 9, 5, 3, 2, 0), (1, 4, 16, 33, 3, 2, 1),
                  (2, 1, 6, 6, 2, 1, 0), (1, 2, 10, 7, 3, 3, 1), (2, 2, 11, 13, 3, 2, 1),
                  (1, 3, 32, 64, 3, 2, 1)]
              for ties in ("relu", "levels")]

    @staticmethod
    def _tied(shape, kernel, stride, pad, ties):
        rng = keyed_rng("pool", shape, kernel, stride, pad, ties)
        if ties == "relu":
            return rng, np.maximum(rng.normal(0, 1, shape), 0.0)
        return rng, rng.integers(0, 3, shape) * 0.1

    @pytest.mark.parametrize("shape,kernel,stride,pad,ties", SHAPES)
    def test_backward_bit_identical_to_scatter(self, shape, kernel, stride, pad, ties):
        rng, vals = self._tied(shape, kernel, stride, pad, ties)
        x = Tensor(vals, requires_grad=True)
        out = ops.maxpool2d(x, kernel, stride, pad)
        g = rng.normal(0, 1, out.data.shape) * 10.0 ** rng.uniform(-8, 8, out.data.shape)
        out.backward(g)
        want = maxpool2d_grad_reference(vals, g, kernel, stride, pad)
        assert x.grad.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("train", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("shape,kernel,stride,pad,ties", SHAPES)
    def test_forward_bit_identical_to_window_argmax(self, shape, kernel, stride, pad, ties, train):
        _, vals = self._tied(shape, kernel, stride, pad, ties)
        want = maxpool2d_reference(vals, kernel, stride, pad)
        with no_grad() if not train else contextlib.nullcontext():
            out = ops.maxpool2d(Tensor(vals, requires_grad=True), kernel, stride, pad)
        assert out.requires_grad == train
        assert out.data.tobytes() == want.tobytes()

    @staticmethod
    def _stem_output():
        """A relu'd stem output (N=4, 64 channels, 32x128), channel-major as
        batchnorm returns it."""
        return np.maximum(rand((64, 4, 32, 128), 19), 0.0).transpose(1, 0, 2, 3)

    def test_no_grad_forward_allocates_output_only(self):
        vals = self._stem_output()
        with no_grad():
            out, peak, _ = traced_peak(lambda: ops.maxpool2d(Tensor(vals), 3, 2, 1))
        # and numpy's ufunc buffers: 8192 elements for each of three strided operands
        assert peak <= out.data.nbytes + 256 * 1024, f"peaked at {peak / 1e6:.1f} MB"

    def test_backward_gradient_is_input_sized(self):
        # the gradient is no view into a padded buffer that it keeps alive
        x = Tensor(self._stem_output(), requires_grad=True)
        out = ops.maxpool2d(x, 3, 2, 1)
        g = np.ones(out.data.shape)
        _, _, held = traced_peak(lambda: out.backward(g))
        assert x.grad.flags.c_contiguous
        assert held <= x.data.nbytes + 64 * 1024, f"backward keeps {held / 1e6:.1f} MB"

    def test_forward_keeps_no_index(self):
        x = Tensor(self._stem_output(), requires_grad=True)
        out, _, held = traced_peak(lambda: ops.maxpool2d(x, 3, 2, 1))
        assert held <= out.data.nbytes + 1e6, f"forward keeps {held / 1e6:.1f} MB"

    @pytest.mark.parametrize("shape,message", [
        ((4, 5, 6), "maxpool2d expects NCHW, got (4, 5, 6)"),
        ((1, 1, 1, 1, 1), "maxpool2d expects NCHW"),
        ((1, 2, 1, 5), "maxpool2d output would be empty for input (1, 2, 1, 5), kernel 3"),
    ])
    def test_bad_input_named(self, shape, message):
        with pytest.raises(PipelineError, match=re.escape(message)):
            ops.maxpool2d(Tensor(np.zeros(shape)), 3, 2, 0)


class TestGlobalAvgPool:
    def test_constant_map(self):
        x = Tensor(np.full((2, 3, 4, 5), 2.5))
        assert np.allclose(ops.global_avg_pool(x).data, 2.5)

    def test_grad(self):
        x = Tensor(rand((2, 3, 4, 4), 19), requires_grad=True)
        assert grad_check(lambda: ops.global_avg_pool(x), [x]) < 1e-8


class TestBatchNorm:
    def test_train_normalizes(self):
        x = Tensor(rand((8, 4, 6, 6), 21) * 3 + 1)
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        out = ops.batchnorm2d(x, gamma, beta, Tensor(np.zeros(4)), Tensor(np.ones(4)), train=True)
        assert np.max(np.abs(out.data.mean(axis=(0, 2, 3)))) < 1e-3
        assert np.max(np.abs(out.data.var(axis=(0, 2, 3)) - 1.0)) < 1e-3

    def test_eval_uses_frozen_stats(self):
        x = Tensor(rand((4, 2, 3, 3), 22))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        mean, var = np.array([1.0, -1.0]), np.array([4.0, 0.25])
        out = ops.batchnorm2d(x, gamma, beta, Tensor(mean), Tensor(var), train=False)
        want = (x.data - mean[None, :, None, None]) / np.sqrt(var[None, :, None, None] + ops.BN_EPS)
        assert np.allclose(out.data, want)

    def test_train_grad(self):
        x = Tensor(rand((3, 4, 5, 5), 23), requires_grad=True)
        gamma = Tensor(keyed_rng("bn", 1).uniform(0.5, 1.5, 4), requires_grad=True)
        beta = Tensor(rand((4,), 24) * 0.1, requires_grad=True)

        def f():
            mean, var = Tensor(np.zeros(4)), Tensor(np.ones(4))
            return ops.batchnorm2d(x, gamma, beta, mean, var, True)

        assert grad_check(f, [x, gamma, beta]) < 1e-6


class TestFusedResidualTail:
    """The fused batchnorm, skip add and relu against the unfused graph."""

    @staticmethod
    def _inputs(key, skip, shape=(3, 4, 5, 6)):
        """x in the (C, N, H, W)-major layout conv2d returns; the skip, when
        asked, in NCHW or in that layout (an identity or a downsample skip)."""
        rng = keyed_rng("fused", key)
        n, c, h, w = shape
        x = rng.normal(0.3, 2.0, (c, n, h, w)).transpose(1, 0, 2, 3)
        gamma = rng.uniform(0.5, 1.5, c)
        beta = rng.normal(0, 0.5, c)
        mean, var = rng.normal(0, 0.3, c), rng.uniform(0.5, 2.0, c)
        s = None
        if skip == "nchw":
            s = rng.normal(0, 1, shape)
        elif skip == "conv":
            s = rng.normal(0, 1, (c, n, h, w)).transpose(1, 0, 2, 3)
        g = rng.normal(0, 1, (c, n, h, w)).transpose(1, 0, 2, 3)   # as conv2d backward passes it
        return x, gamma, beta, mean, var, s, g

    @pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
    @pytest.mark.parametrize("skip", [None, "nchw", "conv"],
                             ids=["no-skip", "skip-nchw", "skip-conv"])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_bit_identical_to_unfused(self, train, skip, relu):
        """Large enough that the channel sums of backward would round
        differently if the fused output took another memory layout."""
        x, gamma, beta, mean, var, s, g = self._inputs((train, skip, relu), skip, (8, 3, 16, 32))
        results = []
        for op in (ops.batchnorm2d, residual_tail_reference):
            leaves = [Tensor(a, requires_grad=True)
                      for a in (x, gamma, beta) + ((s,) if skip else ())]
            buffers = Tensor(mean.copy()), Tensor(var.copy())
            out = op(*leaves[:3], *buffers, train, skip=leaves[3] if skip else None, relu=relu)
            out.backward(g)
            results.append([out.data] + [t.grad for t in leaves] + [b.data for b in buffers])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_relu_zeroes_the_gradient_where_the_output_is_zero(self):
        x, gamma, beta, mean, var, s, g = self._inputs("mask", "nchw")
        skip = Tensor(s, requires_grad=True)
        out = ops.batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), Tensor(mean),
                              Tensor(var), False, skip=skip, relu=True)
        assert np.any(out.data == 0.0) and np.all(out.data >= 0.0)
        out.backward(g)
        assert np.array_equal(skip.grad, g * (out.data > 0.0))

    def test_skip_relu_grad(self):
        x = Tensor(rand((3, 4, 5, 5), 60), requires_grad=True)
        gamma = Tensor(keyed_rng("bn", 2).uniform(0.5, 1.5, 4), requires_grad=True)
        beta = Tensor(rand((4,), 61) * 0.1, requires_grad=True)
        skip = Tensor(rand((3, 4, 5, 5), 62), requires_grad=True)

        def f():
            mean, var = Tensor(np.zeros(4)), Tensor(np.ones(4))
            return ops.batchnorm2d(x, gamma, beta, mean, var, True, skip=skip, relu=True)

        assert grad_check(f, [x, gamma, beta, skip]) < 1e-6

    def test_skip_shape_mismatch_named(self):
        x = Tensor(rand((2, 3, 4, 4), 64))
        with pytest.raises(PipelineError, match="skip"):
            ops.batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), Tensor(np.zeros(3)),
                            Tensor(np.ones(3)), True, skip=Tensor(np.zeros((2, 3, 4, 5))))


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(rand((10, 10), 26))
        out = ops.dropout(x, 0.5, train=False, rng=None)
        assert np.array_equal(out.data, x.data)

    def test_train_mean_preserved(self):
        x = Tensor(np.ones((400, 250)))
        out = ops.dropout(x, 0.3, train=True, rng=keyed_rng("drop", 1))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_p_range(self):
        with pytest.raises(PipelineError):
            ops.dropout(Tensor(np.ones(3)), 1.0, train=True, rng=keyed_rng("d", 2))

    def test_train_grad_with_fixed_mask(self):
        x = Tensor(rand((6, 6), 27), requires_grad=True)
        assert grad_check(lambda: ops.dropout(x, 0.4, True, keyed_rng("dm", 3)), [x]) < 1e-8

    def test_float32_mask_is_the_float64_mask_rounded(self):
        """The same draws at either dtype: only the mask's dtype follows x."""
        masks = [ops.dropout(Tensor(np.ones((40, 30), dtype)), 0.3, True, keyed_rng("dm", 4)).data
                 for dtype in (np.float32, np.float64)]
        assert masks[0].dtype == np.float32
        assert np.array_equal(masks[0], masks[1].astype(np.float32))


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_sum_to_one(self):
        p = ops.softmax(rand((7, 5), 29))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9

    def test_one_hot_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0, 0.0]]))
        loss = ops.softmax_crossentropy(logits, np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)
        assert ops.softmax(logits.data)[0, 0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        logits = rand((4, 3), 30)
        p1 = ops.softmax(logits)
        p2 = ops.softmax(logits + 7.3)
        assert np.allclose(p1, p2)

    def test_grad(self):
        logits = Tensor(rand((6, 4), 31), requires_grad=True)
        targets = np.array([0, 1, 2, 3, 0, 1])
        assert grad_check(lambda: ops.softmax_crossentropy(logits, targets), [logits]) < 1e-7

    def test_float32_target_far_below_the_max_gives_the_float64_loss(self):
        """exp(-120) is 0 in float32: the softmax runs on a float64 copy."""
        logits = np.array([[0.0, -120.0, 0.0], [0.0, 0.0, 0.0]])
        want = ops.softmax_crossentropy(Tensor(logits), [1, 0]).item()
        assert want == pytest.approx(60.896, abs=1e-3)
        x = Tensor(logits.astype(np.float32), requires_grad=True)
        with np.errstate(all="raise"):
            loss = ops.softmax_crossentropy(x, [1, 0])
            loss.backward()
        assert loss.item() == want
        assert x.grad.dtype == np.float32 and np.all(np.isfinite(x.grad))


class TestConcatSplit:
    def test_concat_grad(self):
        a = Tensor(rand((2, 3), 32), requires_grad=True)
        b = Tensor(rand((2, 5), 33), requires_grad=True)
        assert grad_check(lambda: ops.concat([a, b], axis=1), [a, b]) < 1e-8

    def test_split_pieces(self):
        x = Tensor(np.arange(12.0).reshape(2, 6), requires_grad=True)
        a, b, c = split(x, [2, 2, 2], axis=1)
        assert np.array_equal(a.data, x.data[:, :2])
        assert np.array_equal(c.data, x.data[:, 4:])

    def test_split_grad(self):
        x = Tensor(rand((3, 9), 35), requires_grad=True)
        assert grad_check(lambda: ops.concat(split(x, [4, 5], axis=1), axis=1), [x]) < 1e-8

    def test_gather_grad_with_repeated_and_unused_rows(self):
        x = Tensor(rand((4, 3), 38), requires_grad=True)
        index = np.array([2, 0, 2, 2, 3, 0])        # row 1 is never taken
        r = rand((6, 3), 39)
        assert np.array_equal(ops.gather(x, index).data, x.data[index])
        assert grad_check(lambda: ops.gather(x, index), [x]) < 1e-8
        x.grad = None
        ops.gather(x, index).backward(r)
        assert np.array_equal(x.grad[1], np.zeros(3))
        assert np.allclose(x.grad[2], r[[0, 2, 3]].sum(axis=0), rtol=1e-15, atol=0)

    def test_split_sizes_must_cover(self):
        with pytest.raises(PipelineError):
            split(Tensor(np.ones((2, 5))), [2, 2], axis=1)


class TestReuseAccumulation:
    def test_tensor_used_twice_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        out = add(mul(x, x), x)   # x^2 + x -> d/dx = 2x + 1
        out.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_first_gradient_stored_without_copy(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        g = np.ones(3)
        t.accumulate(g)
        assert t.grad is g
        t.accumulate(g)
        assert t.grad is not g
        assert np.array_equal(g, np.ones(3))
        assert np.array_equal(t.grad, np.full(3, 2.0))

    def test_gradient_kept_in_the_tensor_dtype(self):
        """A float32 tensor keeps float32 gradients, also when they arrive
        as float64 and when a second one is added."""
        t = Tensor(np.ones(3, np.float32), requires_grad=True)
        t.accumulate(np.full(3, 0.1))
        assert t.grad.dtype == np.float32
        t.accumulate(np.full(3, 0.2))
        assert t.grad.dtype == np.float32
        assert np.array_equal(t.grad, np.full(3, np.float32(0.1) + np.float32(0.2)))

    def test_split_does_not_write_into_a_stored_gradient(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        held = np.ones(4)
        x.accumulate(held)
        a, b = split(x, [2, 2])
        a.backward(np.full(2, 3.0))
        b.backward(np.full(2, 5.0))
        assert np.array_equal(held, np.ones(4))
        assert np.array_equal(x.grad, [4.0, 4.0, 6.0, 6.0])


class TestDtypeFollowsInput:
    """Each op returns its output, and passes its gradients, in its inputs'
    dtype: float32 inputs are not widened in a forward or a backward, and
    float64 ones are not narrowed. The output's gradient is handed in as
    float64, as the models' float64 losses hand it on; the loss of
    `softmax_crossentropy` is itself float64."""

    DTYPES = [np.float32, np.float64]

    @staticmethod
    def _leaves(dtype, *arrays):
        return [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]

    @staticmethod
    def _check(out, leaves, dtype):
        out.backward(rand(out.data.shape, "dtype-g"))
        assert out.data.dtype == dtype
        for t in leaves:
            assert t.grad.dtype == dtype

    # "3x3/1" takes dx by the flipped kernel, the other three by the tap scatter
    @pytest.mark.parametrize("kind", ["3x3/1", "3x3/1-deep", "3x3/2", "stem"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_conv2d(self, dtype, kind):
        xs, ws, stride, pad = TestConv2d.ENCODER_CONVS[kind]
        x, w = self._leaves(dtype, rand(xs, 70), rand(ws, 71))
        self._check(ops.conv2d(x, w, stride=stride, pad=pad), [x, w], dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_maxpool2d(self, dtype):
        (x,) = self._leaves(dtype, rand((2, 3, 7, 9), 72))
        self._check(ops.maxpool2d(x, 3, 2, 1), [x], dtype)

    @pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
    @pytest.mark.parametrize("skip", [False, True], ids=["no-skip", "skip"])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_batchnorm2d(self, dtype, train, skip, relu):
        """The running statistics stay float64 whatever the input."""
        leaves = self._leaves(dtype, rand((3, 4, 5, 6), 73), 1.0 + 0.1 * rand((4,), 74),
                              rand((4,), 75), *([rand((3, 4, 5, 6), 76)] if skip else []))
        mean, var = Tensor(0.1 * rand((4,), 77)), Tensor(np.full(4, 1.5))
        out = ops.batchnorm2d(*leaves[:3], mean, var, train,
                              skip=leaves[3] if skip else None, relu=relu)
        self._check(out, leaves, dtype)
        assert mean.data.dtype == var.data.dtype == np.float64

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_global_avg_pool(self, dtype):
        (x,) = self._leaves(dtype, rand((2, 3, 4, 5), 78))
        self._check(ops.global_avg_pool(x), [x], dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_linear(self, dtype):
        leaves = self._leaves(dtype, rand((4, 6), 79), rand((6, 3), 80), rand((3,), 81))
        self._check(ops.linear(*leaves), leaves, dtype)

    def _lstm_leaves(self, dtype, key):
        """wx, wh and b of a 2-input, 3-unit LSTM direction."""
        return self._leaves(dtype, rand((2, 12), key), rand((3, 12), key + 1),
                            rand((1, 12), key + 2))

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_lstm_final(self, dtype, reverse):
        leaves = self._lstm_leaves(dtype, 82)
        xs = rand((4, 5, 2), 85).astype(dtype)
        self._check(lstm_final(xs, LstmWeights(*leaves), reverse), leaves, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bilstm_final(self, dtype):
        leaves = self._lstm_leaves(dtype, 86) + self._lstm_leaves(dtype, 89)
        xs = rand((4, 5, 2), 92).astype(dtype)
        out = bilstm_final(xs, LstmWeights(*leaves[:3]), LstmWeights(*leaves[3:]))
        self._check(out, leaves, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dropout_train(self, dtype):
        (x,) = self._leaves(dtype, rand((4, 3), 93))
        self._check(ops.dropout(x, 0.3, True, keyed_rng("dtype-drop", 0)), [x], dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax_crossentropy(self, dtype):
        """The one exception: the loss is float64 whatever the logits."""
        (logits,) = self._leaves(dtype, rand((5, 3), 94))
        loss = ops.softmax_crossentropy(logits, [0, 1, 2, 1, 0])
        loss.backward()
        assert loss.data.dtype == np.float64 and logits.grad.dtype == dtype


class TestNoGrad:
    def test_op_result_has_no_graph(self):
        x = Tensor(rand((2, 3), 40), requires_grad=True)
        with no_grad():
            y = mul(tanh(x), x)
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        assert np.array_equal(y.data, np.tanh(x.data) * x.data)

    def test_leaf_keeps_flag_and_mode_restored(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                leaf = Tensor(np.ones(2), requires_grad=True)
                raise RuntimeError
        assert leaf.requires_grad
        y = ops.relu(leaf)
        assert y.requires_grad and y._backward is not None


class TestGraphRelease:
    def test_interior_freed_by_refcount_after_backward(self):
        x = Tensor(rand((3, 4), 41), requires_grad=True)
        gc.disable()
        try:
            mid = tanh(x)
            ref = weakref.ref(mid)
            loss = mul(mid, mid)
            del mid
            loss.backward()
            del loss
            assert ref() is None
        finally:
            gc.enable()
        t = np.tanh(x.data)
        assert np.allclose(x.grad, 2.0 * t * (1.0 - t * t), rtol=0, atol=1e-15)

    def test_interior_grads_dropped_leaf_grads_kept(self):
        x = Tensor(rand((2, 2), 42), requires_grad=True)
        mid = ops.relu(x)
        loss = add(mid, 1.0)
        loss.backward()
        assert mid.grad is None and mid._parents == () and mid._backward is None
        assert np.array_equal(x.grad, (x.data > 0).astype(float))
