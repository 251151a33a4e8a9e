"""The differentiable ops the two models use: relu, concat, row gather,
conv2d, maxpool2d, global average pooling, batchnorm with a fused residual
add and relu, dropout, softmax cross-entropy and linear (matmul plus bias).
Each op takes Tensors, never converts a plain array, and returns one new
Tensor, one graph node, whose closure accumulates gradients into its
parents. Losses that a model owns, such as the encoder's
`contrastive_loss`, live beside that model as one fused node.

Every array an op makes follows its inputs' dtype: float32 inputs give
float32 outputs, gradients and scratch, and float64 inputs float64 ones.
Batchnorm's running statistics stay float64 and are cast to the input's
dtype where eval mode applies them. Dropout draws its mask as float64 and
casts it, so both dtypes drop the same units. The one float64 output is
the loss of `softmax_crossentropy`, which takes its softmax on a float64
copy of the logits and hands their gradient back in their own dtype.

A closure keeps only what its backward cannot rebuild from the arrays the
graph already holds. conv2d, maxpool2d and batchnorm2d keep nothing beyond
their parents and output: conv2d rebuilds its im2col columns, maxpool2d
its first-maximum tap index, batchnorm2d its normalized input, and the
relu that batchnorm applies reads its mask off the output. No op makes a
temporary of kh*kw times an activation's size: conv2d builds its columns
in sample tiles of at most TILE_BYTES, and maxpool2d takes a running
maximum over strided views of its input.
"""

from __future__ import annotations

import numpy as np

from ..util import PipelineError, even_ranges
from .tensor import Tensor


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), a.requires_grad, (a,))

    def backward():
        a.accumulate(out.grad * (a.data > 0.0))  # subgradient 0 at the kink

    out._backward = backward
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below: exp never overflows.
    # e <= 1, so the numerator max(e, x >= 0) is 1 where x >= 0 and e below.
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    rg = any(t.requires_grad for t in tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), rg, tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def backward():
        offset = 0
        for t, n in zip(tensors, sizes):
            sl = [slice(None)] * out.data.ndim
            sl[axis] = slice(offset, offset + n)
            t.accumulate(out.grad[tuple(sl)])
            offset += n

    out._backward = backward
    return out


def gather(a: Tensor, index) -> Tensor:
    """Rows ``a[index]`` of a 2-d ``a``; a row may be taken many times or
    never. Backward scatter-adds each output row's gradient into its source
    row."""
    out = Tensor(a.data[index], a.requires_grad, (a,))

    def backward():
        g = np.zeros_like(a.data)
        np.add.at(g, index, out.grad)
        a.accumulate(g)

    out._backward = backward
    return out


# Bytes of im2col columns built at once. Below glibc's 32 MiB mmap ceiling,
# so a freed tile's pages are reused by the next one instead of being
# mapped, faulted and zeroed again.
TILE_BYTES = 16 * 2**20


def _columns(x: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int) -> np.ndarray:
    """The im2col matrix of ``x`` (N,C,H,W) zero-padded by ``ph`` rows and
    ``pw`` columns: (C*kh*kw, N*Ho*Wo), one strided copy."""
    n, c = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]          # (N,C,Ho,Wo,kh,kw)
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, -1)


def _tiles(n: int, sample_bytes: int) -> list[tuple[int, int]]:
    """The fewest sample ranges [a, b) covering ``n`` samples whose columns,
    at ``sample_bytes`` per sample, stay within TILE_BYTES (one sample at
    least), as equal as can be: no tile is a small GEMM next to a big one."""
    return even_ranges(n, max(1, TILE_BYTES // sample_bytes))


def conv2d(x: Tensor, w: Tensor, stride: int, pad: int) -> Tensor:
    """2-d cross-correlation without bias: x (N,C,H,W), w (O,C,kh,kw).

    Each pass is a GEMM against im2col columns, (C*kh*kw, samples*Ho*Wo),
    built TILE_BYTES worth of samples at a time, so no pass holds the
    column matrix of the whole batch. A forward tile fills its own range of
    the output's GEMM columns; on the encoder's shapes the output is the
    one of a single untiled GEMM bit for bit. The output is a (N,O,Ho,Wo)
    view of a channel-major (O,N,Ho,Wo) array.

    The closure keeps nothing beyond its parents. Backward rebuilds the
    columns of ``x`` tile by tile and sums the tiles' dW GEMMs. For a
    stride-1 conv whose map is large next to its kernel, dx is the
    correlation of ``out.grad``, padded by kernel-1-pad, with the flipped,
    channel-swapped kernel: one GEMM per tile of the gradient's columns,
    with no scatter. Otherwise each tile of the gradient is multiplied by
    the kernel and added into the padded dx tap by tap.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or x.data.shape[1] != w.data.shape[1]:
        raise PipelineError(f"conv2d shape mismatch: x {x.data.shape}, w {w.data.shape}")
    n, c, h, wd = x.data.shape
    o, _, kh, kw = w.data.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise PipelineError(f"conv2d output would be empty for input {x.data.shape}, kernel {w.data.shape}")
    m = ho * wo
    wf = w.data.reshape(o, -1)
    dtype = np.result_type(x.data, w.data)
    tiles = _tiles(n, wf.shape[1] * m * dtype.itemsize)
    y = np.empty((o, n * m), dtype)
    for a, b in tiles:
        np.matmul(wf, _columns(x.data[a:b], kh, kw, stride, pad, pad), out=y[:, a * m : b * m])
    out = Tensor(y.reshape(o, n, ho, wo).transpose(1, 0, 2, 3), x.requires_grad or w.requires_grad,
                 (x, w))

    def backward():
        def grad_tile(a: int, b: int) -> np.ndarray:
            """(O, (b-a)*Ho*Wo) of samples a..b of ``out.grad``: a view when
            the gradient is channel-major, else a copy of one tile."""
            return out.grad[a:b].transpose(1, 0, 2, 3).reshape(o, (b - a) * m)

        if w.requires_grad:
            dw = None
            for a, b in tiles:
                part = grad_tile(a, b) @ _columns(x.data[a:b], kh, kw, stride, pad, pad).T
                dw = part if dw is None else np.add(dw, part, out=dw)
            w.accumulate(dw.reshape(w.data.shape))
        if not x.requires_grad:
            return
        # The flipped kernel is a copy of w. On the encoder's 3x3 convs it
        # beats the scatter from about 4*C <= N*H*W; stage3's 2x8 maps are
        # below that.
        if stride == 1 and pad < min(kh, kw) and 4 * c <= n * h * wd:
            wt = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
            dx = np.empty((c, n * h * wd), dtype)
            for a, b in _tiles(n, wt.shape[1] * h * wd * dtype.itemsize):
                np.matmul(wt, _columns(out.grad[a:b], kh, kw, 1, kh - 1 - pad, kw - 1 - pad),
                          out=dx[:, a * h * wd : b * h * wd])
            dx = dx.reshape(c, n, h, wd)
        else:
            dxp = np.zeros((c, n, h + 2 * pad, wd + 2 * pad), dtype)
            for a, b in tiles:
                dcols = (wf.T @ grad_tile(a, b)).reshape(c, kh, kw, b - a, ho, wo)
                for i, j in np.ndindex(kh, kw):
                    tap = dxp[:, a:b, i : i + stride * ho : stride, j : j + stride * wo : stride]
                    tap += dcols[:, i, j]
                del dcols                      # before the next tile's is made
            dx = dxp[:, :, pad : pad + h, pad : pad + wd]
        x.accumulate(dx.transpose(1, 0, 2, 3))

    out._backward = backward
    return out


def maxpool2d(x: Tensor, kernel: int, stride: int, pad: int) -> Tensor:
    """Max over each kernel x kernel window of x (N,C,H,W), padded with
    -inf; a tie goes to the first tap.

    No padded copy of the input is made: each tap is taken only over the
    output rows and columns whose window keeps that tap inside the input,
    and the -inf border it would read elsewhere never changes a maximum.
    The forward is a running ``np.maximum`` of ``y``, which starts at -inf,
    with those strided tap planes: no window copy and no index. The
    closure keeps nothing beyond its parent and output. Backward recomputes
    each output's first maximal tap, from the last tap down to the first,
    by comparing each plane with the output. It then adds each tap's share
    of the gradient into that tap's plane of dx, last tap first: an input
    position receives its contributions in ascending output order, the
    order of an ``np.add.at`` scatter, so the sums are the same to the bit.
    """
    if x.data.ndim != 4:
        raise PipelineError(f"maxpool2d expects NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    ho = (h + 2 * pad - kernel) // stride + 1
    wo = (w + 2 * pad - kernel) // stride + 1
    if ho < 1 or wo < 1:
        raise PipelineError(f"maxpool2d output would be empty for input {x.data.shape}, "
                            f"kernel {kernel}, stride {stride}, pad {pad}")

    def span(i: int, size: int, out_size: int) -> tuple[slice, slice]:
        """(outputs, inputs) along one axis where tap offset ``i`` reads the input."""
        lo = max(0, -(-(pad - i) // stride))
        hi = min(out_size, (size - 1 + pad - i) // stride + 1)
        return slice(lo, hi), slice(lo * stride + i - pad, (hi - 1) * stride + i - pad + 1, stride)

    # (tap index, output window, input plane) of every tap that reads the input
    taps = []
    for k, (i, j) in enumerate(np.ndindex(kernel, kernel)):
        (oy, iy), (ox, ix) = span(i, h, ho), span(j, w, wo)
        if oy.start < oy.stop and ox.start < ox.stop:
            taps.append((k, (..., oy, ox), (..., iy, ix)))

    y = np.full((n, c, ho, wo), -np.inf, x.data.dtype)
    for _, yw, xw in taps:
        np.maximum(y[yw], x.data[xw], out=y[yw])
    out = Tensor(y, x.requires_grad, (x,))

    def backward():
        last = kernel * kernel - 1
        arg = np.full(out.data.shape, last, dtype=np.int8 if last <= 127 else np.int64)
        for k, yw, xw in reversed(taps):
            if k < last:
                np.copyto(arg[yw], k, where=x.data[xw] == out.data[yw])
        dx = np.zeros(x.data.shape, x.data.dtype)
        for k, yw, xw in reversed(taps):
            dx[xw] += np.where(arg[yw] == k, out.grad[yw], 0.0)
        x.accumulate(dx)

    out._backward = backward
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """(N,C,H,W) -> (N,C) spatial mean."""
    if x.data.ndim != 4:
        raise PipelineError(f"global_avg_pool expects NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    out = Tensor(x.data.mean(axis=(2, 3)), x.requires_grad, (x,))

    def backward():
        x.accumulate(np.broadcast_to(out.grad[:, :, None, None] / (h * w), x.data.shape))

    out._backward = backward
    return out


BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
                running_var: Tensor, train: bool, skip: Tensor | None = None,
                relu: bool = False) -> Tensor:
    """Channel-wise normalization over (N,H,W); biased batch variance.

    Train mode normalizes with the batch statistics and updates the
    ``running_mean`` and ``running_var`` buffers, which keep their own
    dtype; eval mode applies them cast to the input's dtype, so a float32
    input is not normalized in float64.
    When asked, ``skip`` is added to ``gamma * xhat + beta`` and a relu is
    applied in place, so a residual tail (batchnorm, add, relu) is one graph
    node that holds one array, its output, and keeps no ``xhat``.

    Backward recomputes ``xhat`` from ``x``, which the graph holds as a
    parent, with the forward's expression, and takes the relu mask from the
    output (``out > 0`` exactly where its input was). The results are the
    ones of ``relu(add(batchnorm2d(...), skip))`` bit for bit. It holds at
    most three arrays of the input's size: once masked, the output's
    gradient is released, and dx is written into the buffer of the
    ``g * xhat`` product after its channel sums are taken.
    """
    if x.data.ndim != 4 or gamma.data.shape != (x.data.shape[1],):
        raise PipelineError(f"batchnorm2d shape mismatch: x {x.data.shape}, gamma {gamma.data.shape}")
    parents = (x, gamma, beta)
    if skip is not None:
        if skip.data.shape != x.data.shape:
            raise PipelineError(f"batchnorm2d skip {skip.data.shape} does not match "
                                f"x {x.data.shape}")
        parents += (skip,)
    axes = (0, 2, 3)
    count = x.data.size // x.data.shape[1]
    if train:
        mu = x.data.mean(axis=axes)
        d = x.data - mu[None, :, None, None]
        var = (d * d).sum(axis=axes) / count       # x.var(axes), bit for bit
        running_mean.data = (1.0 - BN_MOMENTUM) * running_mean.data + BN_MOMENTUM * mu
        running_var.data = (1.0 - BN_MOMENTUM) * running_var.data + BN_MOMENTUM * var
    else:
        mu = running_mean.data.astype(x.data.dtype, copy=False)
        var = running_var.data.astype(x.data.dtype, copy=False)
        d = x.data - mu[None, :, None, None]
    mu = mu[None, :, None, None]
    inv = (1.0 / np.sqrt(var + BN_EPS))[None, :, None, None]
    y = d                                          # this call's own array
    y *= inv
    y *= gamma.data[None, :, None, None]
    y += beta.data[None, :, None, None]
    if skip is not None:
        # Not in place: the sum takes the memory layout an unfused add would
        # give it, so backward's channel sums add in the same order.
        y = y + skip.data
    if relu:
        np.maximum(y, 0.0, out=y)
    out = Tensor(y, any(p.requires_grad for p in parents), parents)

    def backward():
        g = out.grad
        if relu:
            g = g * (out.data > 0.0)   # subgradient 0 at the kink
            out.grad = None            # not read again: free it before xhat is made
        if skip is not None:
            skip.accumulate(g)
        xhat = (x.data - mu) * inv
        gx = g * xhat
        gx_sum, g_sum = gx.sum(axis=axes), g.sum(axis=axes)
        gamma.accumulate(gx_sum)
        beta.accumulate(g_sum)
        if not x.requires_grad:
            return
        gi = gamma.data[None, :, None, None] * inv
        if train:
            # The sums were handed on as gradients, so divide into new arrays:
            # equal to gx.mean(axes) and g.mean(axes) bit for bit.
            mean_gx = (gx_sum / count)[None, :, None, None]
            dx = np.subtract(g, (g_sum / count)[None, :, None, None], out=gx)
            xhat *= mean_gx
            dx -= xhat
            dx *= gi
            x.accumulate(dx)
        else:
            x.accumulate(gi * g)

    out._backward = backward
    return out


def dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: train-mode expectation equals the input. Dropping
    nothing (eval mode, or p = 0) returns the input itself."""
    if not (0.0 <= p < 1.0):
        raise PipelineError(f"dropout p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise PipelineError("train-mode dropout needs an explicit rng")
    mask = ((rng.random(x.data.shape) >= p) / (1.0 - p)).astype(x.data.dtype, copy=False)
    out = Tensor(x.data * mask, x.requires_grad, (x,))

    def backward():
        x.accumulate(out.grad * mask)

    out._backward = backward
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_crossentropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy over the batch.

    ``targets`` is an int vector of class indices, shape (N,). The softmax
    is taken on a float64 copy of the logits, so a float32 probability
    that underflows to 0 gives no infinite loss; the loss is float64, and
    ``logits`` takes the gradient in its own dtype.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise PipelineError(f"softmax_crossentropy shapes: logits {logits.data.shape}, targets {targets.shape}")
    probs = softmax(logits.data.astype(np.float64, copy=False))
    n = logits.data.shape[0]
    picked = np.clip(probs[np.arange(n), targets], 1e-300, None)
    loss_val = -np.mean(np.log(picked))
    out = Tensor(loss_val, logits.requires_grad, (logits,))

    def backward():
        d = probs.copy()
        d[np.arange(n), targets] -= 1.0
        logits.accumulate(out.grad * d / n)

    out._backward = backward
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x (N,D) @ w (D,K) + b (K,) as one node. The forward adds the bias to
    the product, and backward hands on ``g @ w.T``, ``x.T @ g`` and the
    column sums of ``g``: the results of a matmul node under a broadcasting
    add node, bit for bit."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise PipelineError(f"linear shape mismatch: x {x.data.shape}, w {w.data.shape}, "
                            f"b {b.data.shape}")
    out = Tensor(x.data @ w.data + b.data, x.requires_grad or w.requires_grad or b.requires_grad,
                 (x, w, b))

    def backward():
        x.accumulate(out.grad @ w.data.T)
        w.accumulate(x.data.T @ out.grad)
        b.accumulate(out.grad.sum(axis=0))

    out._backward = backward
    return out
