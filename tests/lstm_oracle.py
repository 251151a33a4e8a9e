"""Reference LSTM composed from the primitive ops.

Gradients through time come from the generic reverse-mode machinery, so
this is the oracle the fused `atscalm.nn.lstm_final` is checked against.
The sigmoid and tanh ops exist only for it; the fused op applies the same
`_sigmoid` and `np.tanh` to its gates directly.
"""

from __future__ import annotations

import numpy as np

from atscalm.nn import LstmWeights, Tensor
from atscalm.nn.ops import _sigmoid, add, concat, matmul, mul, split
from atscalm.nn.tensor import as_tensor


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = _sigmoid(a.data)
    out = Tensor(y, a.requires_grad, (a,))

    def backward():
        a.accumulate(out.grad * y * (1.0 - y))

    out._backward = backward
    return out


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    out = Tensor(y, a.requires_grad, (a,))

    def backward():
        a.accumulate(out.grad * (1.0 - y * y))

    out._backward = backward
    return out


def lstm_param_count(input_dim: int, hidden: int) -> int:
    """Closed-form size of one direction's wx, wh and b."""
    return 4 * hidden * (input_dim + hidden + 1)


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, w: LstmWeights) -> tuple[Tensor, Tensor]:
    """Single step: c_t = sigm(f)*c + sigm(i)*tanh(g), h_t = sigm(o)*tanh(c_t)."""
    hid = w.hidden
    z = add(add(matmul(x, w.wx), matmul(h_prev, w.wh)), w.b)
    gi, gf, gg, go = split(z, [hid, hid, hid, hid], axis=1)
    c_t = add(mul(sigmoid(gf), c_prev), mul(sigmoid(gi), tanh(gg)))
    h_t = mul(sigmoid(go), tanh(c_t))
    return h_t, c_t


def lstm_run(xs: np.ndarray, w: LstmWeights, reverse: bool = False) -> tuple[Tensor, Tensor]:
    """Run the (T,B,D) steps ``xs`` from a zero state; returns the final (h, c)."""
    batch = xs.shape[1]
    h = Tensor(np.zeros((batch, w.hidden)))
    c = Tensor(np.zeros((batch, w.hidden)))
    for x in (xs[::-1] if reverse else xs):
        h, c = lstm_cell(Tensor(x), h, c, w)
    return h, c


def bilstm_final(xs: np.ndarray, fwd: LstmWeights, bwd: LstmWeights) -> Tensor:
    hf, _ = lstm_run(xs, fwd)
    hb, _ = lstm_run(xs, bwd, reverse=True)
    return concat([hf, hb], axis=1)
