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
        """One update over the named parameters; missing grads count as zero."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()
