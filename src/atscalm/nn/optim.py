"""Adam with bias correction."""

from __future__ import annotations

import numpy as np

from ..util import PipelineError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
CHUNK = 32768   # elements per pass: the scratch arrays and moment pieces are 256 KiB each in float64


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        # each parameter's moments, as the CHUNK-element pieces a step walks
        self.m: dict[str, list[np.ndarray]] = {}
        self.v: dict[str, list[np.ndarray]] = {}
        self.step_count = 0

    def step(self):
        """One update over the named parameters; a missing grad counts as zero.

        Each parameter is walked in ``CHUNK``-element pieces through two
        chunk-sized scratch arrays, and ``m``, ``v`` and ``p.data`` are
        updated in place, so each array keeps its identity. The moments are
        held as one array per piece, made on the first step: no step
        allocates more than a piece at a time, so the first one needs no
        free block of a parameter's size (the encoder's largest is 9.4 MB)
        and fills the space the freed gradients leave. The moments and the
        scratch take each parameter's dtype, so a float32 parameter is
        updated in float32 throughout. Every operation is the one of the
        textbook form ``p - lr * (m / bc1) / (sqrt(v / bc2) + eps)``, in the
        same order, so the results are bit-identical to it. The step
        consumes the gradients: each ``p.grad`` is None once its parameter
        is updated.
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        a = None
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise PipelineError(f"Adam parameter {name} is not a contiguous array")
            pf = p.data.reshape(-1)
            if a is None or a.dtype != pf.dtype:
                a, b, zeros = (np.empty(CHUNK, pf.dtype), np.empty(CHUNK, pf.dtype),
                               np.zeros(CHUNK, pf.dtype))
            starts = range(0, pf.size, CHUNK)
            if name not in self.m:
                self.m[name] = [np.zeros(min(CHUNK, pf.size - lo), pf.dtype) for lo in starts]
                self.v[name] = [np.zeros(min(CHUNK, pf.size - lo), pf.dtype) for lo in starts]
            gf = None if p.grad is None else p.grad.reshape(-1)
            for lo, m, v in zip(starts, self.m[name], self.v[name]):
                piece = slice(lo, lo + CHUNK)
                ac, bc = a[: m.size], b[: m.size]
                g = zeros[: m.size] if gf is None else gf[piece]
                np.multiply(g, 1.0 - BETA1, out=ac)  # m = BETA1 * m + (1 - BETA1) * g
                m *= BETA1
                m += ac
                np.multiply(g, 1.0 - BETA2, out=ac)  # v = BETA2 * v + (1 - BETA2) * g * g
                ac *= g
                v *= BETA2
                v += ac
                np.divide(m, bc1, out=ac)            # p -= lr * m_hat / (sqrt(v_hat) + EPS)
                ac *= self.lr
                np.divide(v, bc2, out=bc)
                np.sqrt(bc, out=bc)
                bc += EPS
                ac /= bc
                pf[piece] -= ac
            p.grad = None
