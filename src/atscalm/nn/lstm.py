"""Bidirectional LSTM as one fused sequence op per direction.

`lstm_final` runs a whole (T, B, D) sequence in numpy and returns the
final hidden state as a single graph node whose parents are the weights.
It keeps only the activated gates and the c and h sequences, and its
backward is hand-written backpropagation through time; each weight
gradient is one matmul or sum over all T·B rows. The forward adds
``(x@wx + h@wh) + b`` in the same order, and with the same sigmoid, as a
cell composed from the primitive ops, so its output matches that cell bit
for bit. It computes in its weights' dtype: h, c and the gates are held in
the dtype of ``wh``, so float32 weights and steps run in float32, and
float64 ones in float64.

Gate layout in the fused weight matrices is (input, forget, candidate,
output) along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util import PipelineError
from .init import seeded_init
from .ops import _sigmoid, concat
from .tensor import Tensor, grad_enabled


@dataclass
class LstmWeights:
    wx: Tensor   # (D, 4H)
    wh: Tensor   # (H, 4H)
    b: Tensor    # (1, 4H)

    @property
    def hidden(self) -> int:
        return self.wh.data.shape[0]

    @property
    def input_dim(self) -> int:
        return self.wx.data.shape[0]


def init_lstm(input_dim: int, hidden: int, seed) -> LstmWeights:
    """Uniform(-r, r) with r = 1/sqrt(hidden); forget-gate bias set to 1 to
    keep early memory open (standard trainability tweak)."""
    r = 1.0 / np.sqrt(hidden)
    wx = seeded_init((input_dim, 4 * hidden), "uniform", (seed, "wx"), r=r)
    wh = seeded_init((hidden, 4 * hidden), "uniform", (seed, "wh"), r=r)
    b = np.zeros((1, 4 * hidden), np.float32)
    b[0, hidden : 2 * hidden] = 1.0
    return LstmWeights(wx=wx, wh=wh, b=Tensor(b, requires_grad=True))


def lstm_final(xs: np.ndarray, w: LstmWeights, reverse: bool = False) -> Tensor:
    """Final hidden state (B, H) of a run over the (T, B, D) steps ``xs``
    from a zero state; ``reverse`` runs the steps last to first.

    ``xs`` is plain data: gradients flow into ``w`` only.
    """
    if xs.ndim != 3 or xs.shape[0] == 0:
        raise PipelineError(f"lstm_final needs (T, B, D) steps with T >= 1, got {xs.shape}")
    hid, dim = w.hidden, w.input_dim
    n_steps, batch = xs.shape[:2]
    if xs.shape[2] != dim:
        raise PipelineError(f"lstm_final steps have D={xs.shape[2]}, weights D={dim}")
    params = (w.wx, w.wh, w.b)
    need_grad = grad_enabled() and any(p.requires_grad for p in params)
    x = np.ascontiguousarray(xs[::-1] if reverse else xs)
    dtype = w.wh.data.dtype
    h = np.zeros((n_steps + 1, batch, hid), dtype)
    c = np.zeros((n_steps + 1, batch, hid), dtype)
    # Activated gates per step, kept for backward; one reused slot otherwise.
    gates = np.empty((n_steps if need_grad else 1, batch, 4 * hid), dtype)
    for t in range(n_steps):
        z = (x[t] @ w.wx.data + h[t] @ w.wh.data) + w.b.data
        a = gates[t % len(gates)]
        a[:, : 2 * hid] = _sigmoid(z[:, : 2 * hid])
        a[:, 2 * hid : 3 * hid] = np.tanh(z[:, 2 * hid : 3 * hid])
        a[:, 3 * hid :] = _sigmoid(z[:, 3 * hid :])
        i, f, g, o = np.split(a, 4, axis=1)
        c[t + 1] = f * c[t] + i * g
        h[t + 1] = o * np.tanh(c[t + 1])
    out = Tensor(h[-1].copy(), need_grad, params)

    def backward():
        gh = out.grad
        gc = np.zeros_like(gh)
        for t in range(n_steps - 1, -1, -1):
            a = gates[t]
            i, f, g, o = np.split(a, 4, axis=1)
            tc = np.tanh(c[t + 1])
            gc = gc + gh * o * (1.0 - tc * tc)
            dz = (gc * g * i * (1.0 - i), gc * c[t] * f * (1.0 - f),
                  gc * i * (1.0 - g * g), gh * tc * o * (1.0 - o))
            gc = gc * f
            for k, d in enumerate(dz):       # the gate slot now holds dL/dz
                a[:, k * hid : (k + 1) * hid] = d
            gh = a @ w.wh.data.T
        dz = gates.reshape(n_steps * batch, 4 * hid)
        w.wx.accumulate(x.reshape(n_steps * batch, dim).T @ dz)
        w.wh.accumulate(h[:-1].reshape(n_steps * batch, hid).T @ dz)
        w.b.accumulate(dz.sum(axis=0, keepdims=True))

    out._backward = backward
    return out


def bilstm_final(xs: np.ndarray, fwd: LstmWeights, bwd: LstmWeights) -> Tensor:
    """Concatenated [forward final h, backward final h] -> (B, 2H)."""
    return concat([lstm_final(xs, fwd), lstm_final(xs, bwd, reverse=True)], axis=1)
