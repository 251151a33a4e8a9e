"""Seeded parameter initializers."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from ..util import PipelineError, keyed_rng
from .tensor import Tensor

_init_mode = threading.local()


@contextmanager
def no_init():
    """Draw nothing in this thread: `seeded_init` returns a read-only
    zero-byte placeholder of the right shape, for a model whose state is
    about to be replaced, as `load_model` does."""
    prev = getattr(_init_mode, "enabled", True)
    _init_mode.enabled = False
    try:
        yield
    finally:
        _init_mode.enabled = prev


def seeded_init(shape, scheme: str, seed, fan_in: int | None = None,
                r: float | None = None) -> Tensor:
    """The trainable float32 rounding of a float64 draw keyed by (shape, scheme, seed).

    - "kaiming-uniform": U(-b, b) with b = sqrt(6 / fan_in), the uniform
      distribution whose std matches sqrt(2 / fan_in).
    - "uniform": U(-r, r).
    """
    shape = tuple(int(s) for s in shape)
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
    if not getattr(_init_mode, "enabled", True):
        return Tensor(np.broadcast_to(np.float32(0.0), shape), requires_grad=True)
    draw = keyed_rng("init", scheme, seed, shape).uniform(-bound, bound, shape)
    return Tensor(draw.astype(np.float32), requires_grad=True)
