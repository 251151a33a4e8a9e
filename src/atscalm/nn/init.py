"""Seeded parameter initializers."""

from __future__ import annotations

import numpy as np

from ..util import PipelineError, keyed_rng
from .tensor import Tensor


def seeded_init(shape, scheme: str, seed, fan_in: int | None = None,
                r: float | None = None) -> Tensor:
    """A trainable tensor, deterministic per (shape, scheme, seed).

    - "kaiming-uniform": U(-b, b) with b = sqrt(6 / fan_in), the uniform
      distribution whose std matches sqrt(2 / fan_in).
    - "uniform": U(-r, r).
    """
    shape = tuple(int(s) for s in shape)
    rng = keyed_rng("init", scheme, seed, shape)
    if scheme == "kaiming-uniform":
        if fan_in is None:
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
        bound = np.sqrt(6.0 / fan_in)
    elif scheme == "uniform":
        if r is None:
            raise PipelineError("uniform scheme needs r")
        bound = float(r)
    else:
        raise PipelineError(f"unknown init scheme {scheme!r}")
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)
