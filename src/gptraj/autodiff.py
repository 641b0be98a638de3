"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The engine is a classic Wengert tape: every operation returns a ``Tensor``
holding its value, its parent nodes, and a vector-Jacobian-product closure.
``backward`` walks the tape once in reverse topological order. Primitives are
matrix-level (batched matmul, a dense layer ``linear``, reductions,
elementwise transcendentals; ``psdlinalg`` adds the RBF kernel and a batched
PSD inverse), so tapes stay short even for whole training steps: each of the
six dense layers of the encoder, planner and classifier is one ``linear``
node.
An operation on constants (tensors that neither require a gradient nor come
from the tape) returns a constant and records nothing, so a frozen model,
whose tensors are all constants, runs without a tape.

The vjp contract: a node's vjp takes the upstream gradient and returns one
thunk per parent, which computes that parent's gradient. ``backward`` calls
the thunks of the parents that need a gradient (parameters and tape nodes,
not constants), in parent order, and no others, so no operation computes a
gradient that is dropped. Neither a vjp nor its thunks write into the
upstream gradient. A thunk returns its parent's gradient in the parent's
shape, as a view of the upstream gradient or as an array that nothing else
holds, which ``backward`` may keep as the parent's gradient. A view is kept
only by the last parent that needs a gradient, since the node drops its own
gradient after that parent; earlier parents copy it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

class Tensor:
    """A tape node: float64 array plus backward plumbing.

    ``_vjp`` maps the upstream gradient to one gradient thunk per parent.
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(*parents: Tensor) -> bool:
    # only a tape node (one with a vjp) has parents
    return any(p.requires_grad or p._vjp is not None for p in parents)


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
    return _make(out, (a, b), lambda g: (lambda: _unbroadcast(g, a.data.shape),
                                         lambda: _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return _make(out, (a, b), lambda g: (lambda: _unbroadcast(g, a.data.shape),
                                         lambda: _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return _make(out, (a, b), lambda g: (
        lambda: _unbroadcast(g * b.data, a.data.shape),
        lambda: _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return _make(out, (a, b), lambda g: (
        lambda: _unbroadcast(g / b.data, a.data.shape),
        lambda: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def matmul(a, b) -> Tensor:
    """``a @ b`` over operands of two or more axes: leading axes batch (and
    broadcast) over stacks of matrices."""
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data @ b.data, (a, b), lambda g: (
        lambda: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
        lambda: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)))


def linear(x, w, b) -> Tensor:
    """``x @ wᵀ + b``: the rows of ``x`` (N, fan_in) through a weight matrix
    ``w`` (fan_out, fan_in) and a bias ``b`` (fan_out,), as one node. The
    weight's gradient gᵀ x comes out in the weight's own layout."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    out = x.data @ w.data.T
    out += b.data
    return _make(out, (x, w, b), lambda g: (lambda: g @ w.data,
                                            lambda: g.T @ x.data,
                                            lambda: _unbroadcast(g, b.data.shape)))


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = as_tensor(a)
    return _make(np.swapaxes(a.data, -1, -2), (a,),
                 lambda g: (lambda: np.swapaxes(g, -1, -2),))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (lambda: np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / a.data.shape[axis])


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (lambda: g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (lambda: g / a.data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (lambda: g * (1.0 - out * out),))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (lambda: g * 0.5 / out,))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data * a.data, (a,), lambda g: (lambda: 2.0 * g * a.data,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (lambda: g * mask,))


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return _make(out, (a,), lambda g: (lambda: g * mask,))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,),
                 lambda g: (lambda: g.reshape(a.data.shape),))


def narrow(a, start: int, stop: int, axis: int = 0) -> Tensor:
    """Contiguous slice along ``axis``."""
    a = as_tensor(a)
    index = (slice(None),) * axis + (slice(start, stop),)
    out = a.data[index]

    def grad_a(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return full

    return _make(out, (a,), lambda g: (lambda: grad_a(g),))


def gather0(a, idx) -> Tensor:
    """Select entries/rows along axis 0 by an integer index array of ids in
    [0, len(a))."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]

    def grad_a(g):
        # one bincount over flat (row, column) ids: np.add.at's in-order sums
        width = math.prod(a.data.shape[1:])
        ids = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        return np.bincount(ids, weights=np.reshape(g, -1),
                           minlength=a.data.size).reshape(a.data.shape)

    return _make(out, (a,), lambda g: (lambda: grad_a(g),))


def backward(root: Tensor, into: dict[int, np.ndarray] | None = None) -> None:
    """Accumulate gradients of a scalar ``root`` into the leaves that
    require them; constant leaves keep ``grad`` None, and a tape node drops
    its gradient once it has passed it on to its parents.

    The topological walk pushes only tape nodes (those with a vjp), so it
    never visits a leaf, parameter or constant; the tape nodes keep their
    order, and so do the sums of their gradients.

    ``into`` maps the ``id`` of a leaf to a buffer of its shape that becomes
    its ``grad``: the first gradient is copied into it, later ones added.
    """
    if root.data.ndim != 0:
        raise ValueError("backward expects a scalar loss")
    into = into or {}
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
            if p._vjp is not None and id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        # constants take no gradient: their thunks never run
        needy = [i for i, p in enumerate(node._parents)
                 if p.requires_grad or p._vjp is not None]
        thunks = node._vjp(node.grad)
        for i in needy:
            p, g = node._parents[i], thunks[i]()
            if p.grad is not None:
                p.grad += g
            elif id(p) in into:
                p.grad = into[id(p)]
                p.grad[...] = g
            elif g.flags.writeable and (i == needy[-1]
                                        or not np.may_share_memory(g, node.grad)):
                # a new array, which nothing else holds, or, for the last
                # parent, a view of node.grad, which is dropped below
                p.grad = g
            else:
                p.grad = np.array(g)  # a copy: a later parent may read g
        node.grad = None


def grad(loss: Tensor, params: dict[str, Tensor],
         out: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Write the gradient of a scalar loss for each named parameter into
    its buffer in ``out``, a map of buffers of the parameters' shapes, and
    return ``out``.

    Existing ``.grad`` buffers on the parameters are reset first; the buffer
    of a parameter absent from the tape is zeroed.
    """
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss")
    for p in params.values():
        p.grad = None
    backward(loss, {id(p): out[name] for name, p in params.items()})
    for name, p in params.items():
        if p.grad is None:
            out[name].fill(0.0)
    return out
