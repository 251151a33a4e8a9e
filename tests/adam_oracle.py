"""Reference Adam: the textbook out-of-place update, one new array per
term. The in-place `atscalm.nn.Adam.step` is checked against it bit for
bit."""

from __future__ import annotations

import numpy as np

from atscalm.nn.optim import BETA1, BETA2, EPS


def adam_steps(data: dict[str, np.ndarray], grads: list[dict], lr: float) -> dict[str, np.ndarray]:
    """Parameters after one step per entry of ``grads``; a name missing
    from a step's dict, or mapped to None, has a zero gradient."""
    data = {name: d.copy() for name, d in data.items()}
    m = {name: np.zeros_like(d) for name, d in data.items()}
    v = {name: np.zeros_like(d) for name, d in data.items()}
    for t, step in enumerate(grads, start=1):
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name in data:
            g = step.get(name)
            g = g if g is not None else np.zeros_like(data[name])
            m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
            v[name] = BETA2 * v[name] + (1.0 - BETA2) * g * g
            m_hat = m[name] / bc1
            v_hat = v[name] / bc2
            data[name] = data[name] - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return data
