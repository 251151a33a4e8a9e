"""Reference conv2d written tap by tap.

For each kernel offset (i, j), the strided input plane that tap reads is
contracted with ``w[:, :, i, j]``: into the output for the forward pass,
into that plane of the padded input for dx, and into ``dw[:, :, i, j]``.
No im2col and no GEMM layout, so this is the oracle the one-GEMM
`atscalm.nn.ops.conv2d` is checked against.
"""

from __future__ import annotations

import numpy as np


def conv2d_reference(x: np.ndarray, w: np.ndarray, g: np.ndarray, stride: int,
                     pad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, dx, dw) of y = conv2d(x, w) for the output gradient ``g``."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros((n, o, ho, wo))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            tap = (slice(None), slice(None), slice(i, i + stride * ho, stride),
                   slice(j, j + stride * wo, stride))
            plane = xp[tap]                               # (N, C, Ho, Wo)
            y += np.einsum("nchw,oc->nohw", plane, w[:, :, i, j])
            dxp[tap] += np.einsum("nohw,oc->nchw", g, w[:, :, i, j])
            dw[:, :, i, j] = np.einsum("nohw,nchw->oc", g, plane)
    return y, dxp[:, :, pad : pad + h, pad : pad + wd], dw
