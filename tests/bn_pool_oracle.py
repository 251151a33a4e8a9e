"""Reference batchnorm, residual tail and max-pool backward.

`batchnorm2d_reference` is the plain batchnorm whose closure keeps
``xhat``; `residual_tail_reference` composes it with `lstm_oracle.add`
and `ops.relu` as separate graph nodes. The fused
`atscalm.nn.ops.batchnorm2d` is checked against the composition bit for
bit. `maxpool2d_reference` takes each window's maximum with
``np.argmax`` over a copy of every window, and
`maxpool2d_grad_reference` scatters the pooled gradient with
``np.add.at`` over full index arrays: the formulas that the running
maximum and the tap loop of `ops.maxpool2d` replace.
"""

from __future__ import annotations

import numpy as np

from atscalm.nn import Tensor, ops
from lstm_oracle import add


def batchnorm2d_reference(x, gamma, beta, running_mean, running_var, train: bool) -> Tensor:
    axes = (0, 2, 3)
    if train:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean.data = (1.0 - ops.BN_MOMENTUM) * running_mean.data + ops.BN_MOMENTUM * mu
        running_var.data = (1.0 - ops.BN_MOMENTUM) * running_var.data + ops.BN_MOMENTUM * var
    else:
        mu, var = running_mean.data, running_var.data
    inv = 1.0 / np.sqrt(var + ops.BN_EPS)
    xhat = (x.data - mu[None, :, None, None]) * inv[None, :, None, None]
    y = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
    rg = x.requires_grad or gamma.requires_grad or beta.requires_grad
    out = Tensor(y, rg, (x, gamma, beta))

    def backward():
        g = out.grad
        gamma.accumulate((g * xhat).sum(axis=axes))
        beta.accumulate(g.sum(axis=axes))
        if not x.requires_grad:
            return
        gi = gamma.data[None, :, None, None] * inv[None, :, None, None]
        if train:
            mean_g = g.mean(axis=axes)[None, :, None, None]
            mean_gx = (g * xhat).mean(axis=axes)[None, :, None, None]
            x.accumulate(gi * (g - mean_g - xhat * mean_gx))
        else:
            x.accumulate(gi * g)

    out._backward = backward
    return out


def residual_tail_reference(x, gamma, beta, running_mean, running_var, train: bool,
                            skip=None, relu: bool = False) -> Tensor:
    """``relu(add(batchnorm2d(...), skip))``, each part its own node."""
    y = batchnorm2d_reference(x, gamma, beta, running_mean, running_var, train)
    if skip is not None:
        y = add(y, skip)
    return ops.relu(y) if relu else y


def maxpool2d_reference(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """``maxpool2d(x)``: each window copied out whole, then its first maximum
    taken by ``np.argmax``."""
    n, c, h, w = x.shape
    ho = (h + 2 * pad - kernel) // stride + 1
    wo = (w + 2 * pad - kernel) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride].reshape(n, c, ho, wo, kernel * kernel)
    return np.take_along_axis(windows, np.argmax(windows, axis=-1)[..., None], axis=-1)[..., 0]


def maxpool2d_grad_reference(x: np.ndarray, g: np.ndarray, kernel: int, stride: int,
                             pad: int) -> np.ndarray:
    """dx of ``maxpool2d(x)`` for the output gradient ``g``: each output's
    gradient added at its window's first maximum, in output order."""
    n, c, h, w = x.shape
    ho = (h + 2 * pad - kernel) // stride + 1
    wo = (w + 2 * pad - kernel) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride].reshape(n, c, ho, wo, kernel * kernel)
    di, dj = np.unravel_index(np.argmax(windows, axis=-1), (kernel, kernel))
    ni, ci, hi, wi = np.indices((n, c, ho, wo))
    dxp = np.zeros(xp.shape)
    np.add.at(dxp, (ni, ci, hi * stride + di, wi * stride + dj), g)
    return dxp[:, :, pad : pad + h, pad : pad + w]
