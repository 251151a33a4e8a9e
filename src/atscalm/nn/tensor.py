"""Minimal dense tensor with reverse-mode differentiation.

A tensor holds a float32 array as float32 and any other value as float64,
and its gradient is held in the same dtype as its data. The ops in
`atscalm.nn.ops` take Tensors only: a caller wraps a plain array in
`Tensor` once. They follow their inputs' dtype, so a model that hands them
float32 tensors computes in float32 and everything else stays float64.

``backward`` releases the graph as it goes: once an interior node has
passed its gradient on, its gradient, closure and parent links are
dropped, so the graph is freed by reference counting alone. Only leaf
tensors keep ``.grad``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from ..util import PipelineError

_grad_mode = threading.local()


def grad_enabled() -> bool:
    return getattr(_grad_mode, "enabled", True)


@contextmanager
def no_grad():
    """Build no graph in this thread: op results are plain values with no
    parents and no backward closure. Leaf tensors keep their flag."""
    prev = grad_enabled()
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, parents=()):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        if parents and not grad_enabled():
            requires_grad, parents = False, ()
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(parents)
        self._bw = None

    @property
    def _backward(self):
        return self._bw

    @_backward.setter
    def _backward(self, fn):
        # A closure on a tensor that needs no gradient would never run and
        # would only keep its inputs alive.
        self._bw = fn if self.requires_grad else None

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray):
        """Add ``g`` to ``.grad``, in this tensor's dtype. A first gradient of
        that dtype is stored as is, not copied: no op writes into a gradient
        array, neither into ``.grad`` (a sum makes a new one) nor into an
        array it has passed here."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self.grad = np.add(self.grad, g, dtype=self.data.dtype)

    def backward(self, grad=None):
        """Reverse accumulation from this node; visits each node once and
        releases it once its gradient has been passed on."""
        if not self.requires_grad:
            raise PipelineError("backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward()
            node.grad, node._backward, node._parents = None, None, ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"
