import numpy as np
import pytest

from atscalm.nn import Tensor, bilstm_final, init_lstm, no_grad
from atscalm.nn.lstm import LstmWeights, lstm_final
from atscalm.util import PipelineError, keyed_rng
from gradcheck import grad_check
from lstm_oracle import lstm_cell, lstm_param_count, lstm_run


def zero_weights(d, h):
    return LstmWeights(
        wx=Tensor(np.zeros((d, 4 * h)), requires_grad=True),
        wh=Tensor(np.zeros((h, 4 * h)), requires_grad=True),
        b=Tensor(np.zeros((1, 4 * h)), requires_grad=True),
    )


def init_lstm64(input_dim, hidden, seed):
    """`init_lstm`'s float32 weights cast to float64, for the float64
    gradcheck and the oracle comparisons."""
    w = init_lstm(input_dim, hidden, seed)
    return LstmWeights(*(Tensor(p.data.astype(np.float64), requires_grad=True)
                         for p in (w.wx, w.wh, w.b)))


def steps(n_steps, batch, dim, key="x"):
    return np.stack([keyed_rng(key, t).normal(0, 1, (batch, dim)) for t in range(n_steps)])


class TestLstmCell:
    def test_zero_weights_zero_output(self):
        w = zero_weights(3, 4)
        h = lstm_final(np.ones((3, 2, 3)), w)
        assert np.all(h.data == 0)

    def test_forget_gate_saturation_carries_cell(self):
        h_dim = 4
        w = zero_weights(3, h_dim)
        w.b.data[0, h_dim : 2 * h_dim] = 50.0   # forget gate wide open
        w.b.data[0, :h_dim] = -50.0             # input gate closed
        x = Tensor(keyed_rng("lstm", 0).normal(0, 1, (2, 3)))
        c_prev = Tensor(keyed_rng("lstm", 1).normal(0, 1, (2, h_dim)))
        h_prev = Tensor(np.zeros((2, h_dim)))
        _, c_t = lstm_cell(x, h_prev, c_prev, w)
        assert np.max(np.abs(c_t.data - c_prev.data)) < 1e-6

    def test_shape_mismatch(self):
        w = zero_weights(3, 4)
        with pytest.raises(PipelineError, match="D=5, weights D=3"):
            lstm_final(np.ones((1, 2, 5)), w)
        with pytest.raises(PipelineError, match="T >= 1"):
            lstm_final(np.ones((0, 2, 3)), w)
        with pytest.raises(PipelineError, match="T >= 1"):
            lstm_final(np.ones((2, 3)), w)

    def test_bptt_gradcheck_3_steps(self):
        w = init_lstm64(3, 4, seed=("bptt", 0))
        xs = steps(3, 2, 3)
        assert grad_check(lambda: lstm_final(xs, w), [w.wx, w.wh, w.b]) < 1e-5


class TestFusedAgainstOracle:
    """The fused op against the cell composed from primitive ops."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n_steps,dim", [(6, 2), (1, 25)])
    def test_gradcheck(self, reverse, n_steps, dim):
        w = init_lstm64(dim, 3, seed=("gc", n_steps, reverse))
        xs = steps(n_steps, 2, dim)
        assert grad_check(lambda: lstm_final(xs, w, reverse), [w.wx, w.wh, w.b]) < 1e-5

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n_steps,dim", [(25, 1), (1, 25), (4, 3)])
    def test_forward_bit_identical_and_grads_agree(self, reverse, n_steps, dim):
        w = init_lstm64(dim, 16, seed=("or", n_steps, reverse))
        xs = steps(n_steps, 7, dim)
        r = keyed_rng("r", 2).normal(0, 1, (7, 16))
        grads = []
        for h in (lstm_final(xs, w, reverse), lstm_run(xs, w, reverse)[0]):
            for p in (w.wx, w.wh, w.b):
                p.grad = None
            h.backward(r)
            grads.append((h.data, [p.grad.copy() for p in (w.wx, w.wh, w.b)]))
        (h_fused, g_fused), (h_oracle, g_oracle) = grads
        assert np.array_equal(h_fused, h_oracle)
        for a, b in zip(g_fused, g_oracle):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_no_grad_builds_no_node(self):
        w = init_lstm64(2, 5, seed=("ng", 0))
        xs = steps(4, 3, 2)
        with no_grad():
            h = lstm_final(xs, w)
        assert not h.requires_grad and h._parents == () and h._backward is None
        assert np.array_equal(h.data, lstm_run(xs, w)[0].data)


class TestFloat32:
    """`lstm_final` computes in its weights' dtype. At float32 weights and
    steps it matches the float64 run at the same values: the final h to
    F32_H_ABS, each weight gradient to F32_GRAD_REL of that gradient's
    largest float64 entry (about 25x and 10x the largest errors seen on the
    CAM's shapes)."""

    F32_H_ABS = 1e-6
    F32_GRAD_REL = 1e-5

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("hidden,batch", [(16, 7), (256, 9)])
    def test_matches_float64_at_the_same_weights(self, hidden, batch, reverse):
        w = init_lstm(1, hidden, seed=("f32", hidden))
        arrays = [p.data for p in (w.wx, w.wh, w.b)]
        xs = steps(25, batch, 1).astype(np.float32)
        r = keyed_rng("f32-r", batch).normal(0, 1, (batch, hidden))
        runs = {}
        for dtype in (np.float32, np.float64):
            wd = LstmWeights(*(Tensor(a.astype(dtype), requires_grad=True) for a in arrays))
            h = lstm_final(xs.astype(dtype), wd, reverse)
            h.backward(r)
            runs[dtype] = h.data, [p.grad for p in (wd.wx, wd.wh, wd.b)]
        (h32, g32), (h64, g64) = runs[np.float32], runs[np.float64]
        assert h32.dtype == np.float32 and all(g.dtype == np.float32 for g in g32)
        assert np.max(np.abs(h32 - h64)) <= self.F32_H_ABS
        for a, b in zip(g32, g64):
            assert np.max(np.abs(a - b)) <= self.F32_GRAD_REL * np.max(np.abs(b))


class TestParamCount:
    def test_formula(self):
        assert lstm_param_count(25, 256) == 4 * ((25 + 256 + 1) * 256)

    def test_matches_tensors(self):
        w = init_lstm(7, 5, seed=0)
        total = w.wx.data.size + w.wh.data.size + w.b.data.size
        assert total == lstm_param_count(7, 5)


class TestBiLstm:
    def test_reversal_swaps_direction_roles(self):
        fwd = init_lstm(2, 3, seed=("f", 1))
        bwd = init_lstm(2, 3, seed=("b", 1))
        xs = steps(5, 2, 2, key="seq")
        out = bilstm_final(xs, fwd, bwd).data
        out_rev_swapped = bilstm_final(xs[::-1], bwd, fwd).data
        swapped = np.concatenate([out_rev_swapped[:, 3:], out_rev_swapped[:, :3]], axis=1)
        assert np.max(np.abs(out - swapped)) < 1e-9

    def test_init_is_float32_rounding_of_the_float64_draw(self):
        w = init_lstm(4, 6, seed=("s", 3))
        r = 1.0 / np.sqrt(6)
        for name, shape in (("wx", (4, 24)), ("wh", (6, 24))):
            draw = keyed_rng("init", "uniform", (("s", 3), name), shape).uniform(-r, r, shape)
            got = getattr(w, name).data
            assert got.dtype == np.float32 and got.tobytes() == draw.astype(np.float32).tobytes()
        assert w.b.data.dtype == np.float32

    def test_deterministic_init(self):
        a = init_lstm(4, 6, seed=("s", 2))
        b = init_lstm(4, 6, seed=("s", 2))
        assert np.array_equal(a.wx.data, b.wx.data)
        assert np.array_equal(a.wh.data, b.wh.data)

    def test_forget_bias_initialized(self):
        w = init_lstm(4, 6, seed=0)
        assert np.all(w.b.data[0, 6:12] == 1.0)
        assert np.all(w.b.data[0, :6] == 0.0)
