"""Adam with bias correction."""

from __future__ import annotations

import numpy as np

from ..util import PipelineError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
CHUNK = 32768   # elements per pass: the two scratch arrays are 256 KiB each


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def step(self):
        """One update over the named parameters; a missing grad counts as zero.

        Each parameter is walked in ``CHUNK``-element pieces through two
        chunk-sized scratch arrays, and ``m``, ``v`` and ``p.data`` are
        updated in place, so each array keeps its identity and a step
        allocates no array of a parameter's size beyond ``m`` and ``v`` on
        the first step. Every operation is the one of the textbook form
        ``p - lr * (m / bc1) / (sqrt(v / bc2) + eps)``, in the same order, so
        the results are bit-identical to it. The step consumes the
        gradients: each ``p.grad`` is None once its parameter is updated.
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        a, b, zeros = np.empty(CHUNK), np.empty(CHUNK), np.zeros(CHUNK)
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise PipelineError(f"Adam parameter {name} is not a contiguous array")
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            pf, mf, vf = (arr.reshape(-1) for arr in (p.data, self.m[name], self.v[name]))
            gf = None if p.grad is None else p.grad.reshape(-1)
            for lo in range(0, pf.size, CHUNK):
                piece = slice(lo, lo + CHUNK)
                m, v = mf[piece], vf[piece]
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
