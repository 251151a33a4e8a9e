"""Central finite-difference gradient verification.

The callable must rebuild its graph from the given parameter tensors on
every invocation and be deterministic (fix any dropout rng inside it). Its
output may have any shape: the check reduces it to the scalar
``sum(out * r)`` with a fixed cotangent ``r``, keyed by the output's shape,
and seeds backward with ``r``.
"""

from __future__ import annotations

import numpy as np

from atscalm.nn import Tensor
from atscalm.util import keyed_rng


def grad_check(f, params: list[Tensor], eps: float = 1e-5) -> float:
    """Max over all elements of |analytic - numeric| / max(1, |a|, |n|)."""
    for p in params:
        p.grad = None
    out = f()
    assert np.all(np.isfinite(out.data)), "non-finite output in grad_check"
    r = keyed_rng("grad_check", out.data.shape).normal(0, 1, out.data.shape)
    out.backward(r)
    analytic = []
    for p in params:
        if p.grad is None:
            analytic.append(np.zeros_like(p.data))
        else:
            assert np.all(np.isfinite(p.grad)), "non-finite gradient detected"
            analytic.append(p.grad.copy())

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(np.sum(f().data * r))
            flat[i] = orig - eps
            lo = float(np.sum(f().data * r))
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]), abs(numeric))
            worst = max(worst, err)
    return worst
