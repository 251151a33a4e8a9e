"""Reference LSTM composed from primitive ops.

Gradients through time come from the generic reverse-mode machinery, so
this is the oracle the fused `atscalm.nn.lstm.lstm_final` is checked against.
The primitive ops that only the references need live here, not in
`atscalm.nn.ops`: ``add``, ``matmul``, ``mul``, ``split``, ``sigmoid``
and ``tanh``, with ``unbroadcast`` for the broadcasting ones and
``as_tensor``, which lets them take plain arrays too. The fused LSTM
applies the same `_sigmoid` and `np.tanh` to its gates directly;
`add(matmul(x, w), b)` is the reference for the fused `ops.linear`, and
`bn_pool_oracle.residual_tail_reference` adds its skip with `add`.
"""

from __future__ import annotations

import numpy as np

from atscalm.nn import Tensor
from atscalm.nn.lstm import LstmWeights
from atscalm.nn.ops import _sigmoid, concat
from atscalm.util import PipelineError


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad, (a, b))

    def backward():
        a.accumulate(unbroadcast(out.grad, a.data.shape))
        b.accumulate(unbroadcast(out.grad, b.data.shape))

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise PipelineError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad, (a, b))

    def backward():
        a.accumulate(out.grad @ b.data.T)
        b.accumulate(a.data.T @ out.grad)

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad, (a, b))

    def backward():
        a.accumulate(unbroadcast(out.grad * b.data, a.data.shape))
        b.accumulate(unbroadcast(out.grad * a.data, b.data.shape))

    out._backward = backward
    return out


def split(a, sizes, axis: int = 0) -> list[Tensor]:
    """Pieces of ``a`` along ``axis``; each piece's backward adds its
    gradient into a fresh zero array of ``a``'s shape."""
    a = as_tensor(a)
    if sum(sizes) != a.data.shape[axis]:
        raise PipelineError(f"split sizes {sizes} do not cover axis {axis} of {a.data.shape}")
    outs = []
    offset = 0
    for n in sizes:
        sl = [slice(None)] * a.data.ndim
        sl[axis] = slice(offset, offset + n)
        sl = tuple(sl)
        piece = Tensor(a.data[sl].copy(), a.requires_grad, (a,))

        def backward(piece=piece, sl=sl):
            g = np.zeros_like(a.data)
            g[sl] = piece.grad
            a.accumulate(g)

        piece._backward = backward
        outs.append(piece)
        offset += n
    return outs


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
