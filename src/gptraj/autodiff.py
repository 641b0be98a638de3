"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The engine is a classic Wengert tape: every operation returns a ``Tensor``
holding its value, its parent nodes, and a vector-Jacobian-product closure.
``backward`` walks the tape once in reverse topological order. Primitives are
matrix-level (batched matmul, reductions, elementwise transcendentals, a
batched PSD inverse), so tapes stay short even for whole training steps.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (pure forward evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A tape node: float64 array plus backward plumbing.

    ``_vjp`` maps the upstream gradient to one gradient per parent (``None``
    for parents that do not require gradient flow).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = parents
        self._vjp: Callable[[np.ndarray], tuple] | None = vjp

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # arithmetic sugar; all dispatch to the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """A learnable leaf. ``data`` is copied so callers keep ownership."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(*parents: Tensor) -> bool:
    return _GRAD_ENABLED and any(
        p.requires_grad or p._parents or p._vjp is not None for p in parents
    )


def _make(data, parents, vjp):
    if _tracked(*parents):
        return Tensor(data, parents=parents, vjp=vjp)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                         _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                         _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                         _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    def vjp(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb
    return _make(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """``a @ b`` with numpy's rules: 1-D operands are a row or a column, and
    leading axes batch (and broadcast) over stacks of matrices."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data
    a2 = a.data[None, :] if a.data.ndim == 1 else a.data
    b2 = b.data[:, None] if b.data.ndim == 1 else b.data
    out2 = np.broadcast_shapes(a2.shape[:-2], b2.shape[:-2]) + (a2.shape[-2],
                                                                b2.shape[-1])

    def vjp(g):
        g = np.reshape(g, out2)
        ga = _unbroadcast(g @ np.swapaxes(b2, -1, -2), a2.shape)
        gb = _unbroadcast(np.swapaxes(a2, -1, -2) @ g, b2.shape)
        return ga.reshape(a.data.shape), gb.reshape(b.data.shape)

    return _make(out, (a, b), vjp)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.T, (a,), lambda g: (g.T,))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data * a.data, (a,), lambda g: (2.0 * g * a.data,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return _make(out, (a,), lambda g: (g * mask,))


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    return _make(out, tuple(parts), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def narrow(a, start: int, stop: int, axis: int = 0) -> Tensor:
    """Contiguous slice along ``axis``."""
    a = as_tensor(a)
    index = (slice(None),) * axis + (slice(start, stop),)
    out = a.data[index]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _make(out, (a,), vjp)


def stack(parts: Sequence) -> Tensor:
    """Stack equally shaped tensors along a new leading axis."""
    parts = [as_tensor(p) for p in parts]
    out = np.stack([p.data for p in parts])
    return _make(out, tuple(parts), lambda g: tuple(g))


def gather0(a, idx) -> Tensor:
    """Select entries/rows along axis 0 by integer index array."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), vjp)


def psd_inverse(a) -> Tensor:
    """Differentiable (A + jitter I)^-1 of each symmetric PSD matrix in a
    (..., n, n) stack.

    Each matrix is factored by :func:`gptraj.psdlinalg.cholesky_factor`,
    with its jitter ladder; a failure raises its ``NotPSD`` with ``group``
    set to the matrix's index in the flattened stack. The gradient is
    -A^-T G A^-T.
    """
    from . import psdlinalg  # deferred: psdlinalg imports this module

    a = as_tensor(a)
    n = a.data.shape[-1]
    eye = np.eye(n)
    inv = np.empty(a.data.shape)
    flat = inv.reshape(-1, n, n)
    for i, m in enumerate(a.data.reshape(-1, n, n)):
        try:
            factor = psdlinalg.cholesky_factor(m)
        except psdlinalg.NotPSD as e:
            raise psdlinalg.NotPSD(e.pivot, e.jitter, group=i) from e
        flat[i] = psdlinalg.solve_with_factor(factor, eye)
    inv_t = np.swapaxes(inv, -1, -2)
    return _make(inv, (a,), lambda g: (-(inv_t @ g @ inv_t),))


def backward(root: Tensor) -> None:
    """Accumulate gradients of a scalar ``root`` into every tape leaf."""
    if root.data.ndim != 0:
        raise ValueError("backward expects a scalar loss")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for p, g in zip(node._parents, node._vjp(node.grad)):
            if g is None:
                continue
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            p.grad += g


def grad(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradient map of a scalar loss for the named parameters.

    Parameters absent from the tape get zero gradients. Existing ``.grad``
    buffers on the parameters are reset first.
    """
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss")
    for p in params.values():
        p.grad = None
    backward(loss)
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
