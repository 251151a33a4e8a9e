"""Adam with bias correction."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def step(self):
        """One update over the named parameters; missing grads count as zero.

        ``m``, ``v`` and ``p.data`` are updated in place, so each parameter's
        array keeps its identity and a step allocates two scratch arrays of
        one parameter's size. Every operation is the one of the textbook form
        ``p - lr * (m / bc1) / (sqrt(v / bc2) + eps)``, in the same order, so
        the results are bit-identical to it.
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            a = np.multiply(g, 1.0 - BETA1)      # m = BETA1 * m + (1 - BETA1) * g
            m *= BETA1
            m += a
            np.multiply(g, 1.0 - BETA2, out=a)   # v = BETA2 * v + (1 - BETA2) * g * g
            a *= g
            v *= BETA2
            v += a
            np.divide(m, bc1, out=a)             # p -= lr * m_hat / (sqrt(v_hat) + EPS)
            a *= self.lr
            b = np.divide(v, bc2)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            p.data -= a

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()
