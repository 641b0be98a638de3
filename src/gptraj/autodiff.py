"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The engine is a classic Wengert tape: every operation returns a ``Tensor``
holding its value, its parent nodes, and a vector-Jacobian-product closure.
``grad`` walks the tape once in reverse topological order and writes the
named parameters' gradients into buffers the caller owns; no tensor holds a
gradient. Primitives are matrix-level (batched matmul, reductions, ``exp``
and ``tanh``; ``psdlinalg`` adds the RBF kernel and a batched PSD inverse),
so tapes stay short even for whole training steps: a two-layer tanh network
is one ``mlp`` node (the GP classifier is one; ``basemodel`` builds its
encoder and its planner from that network's forward and backward; ``losses``
makes each loss family one node, from the numpy ops of its chain). A fused
node's vjp replays the backward ops of the chain it replaces, in that
chain's order, so its values and gradients have the chain's bytes.
An operation on constants (tensors that neither require a gradient nor come
from the tape) returns a constant and records nothing, so a frozen model,
whose tensors are all constants, runs without a tape.

The vjp contract: a node's vjp takes the upstream gradient and returns one
thunk per parent, which computes that parent's gradient. ``grad`` calls the
thunks of the parents that need a gradient (tape nodes and the named
parameters, not constants), in parent order, and no others, so no operation
computes a gradient that is dropped. Neither a vjp nor its thunks write into
the upstream gradient. A thunk returns its parent's gradient in the parent's
shape, as a view of the upstream gradient or as an array that nothing else
holds, which ``grad`` may keep, and later add into, as a tape node's
gradient. A view is kept only by the last parent that needs a gradient,
since the node's own gradient is dropped after that parent; earlier parents
copy it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

class Tensor:
    """A tape node: float64 array plus backward plumbing.

    ``_vjp`` maps the upstream gradient to one gradient thunk per parent.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = parents
        self._vjp: Callable[[np.ndarray], tuple] | None = vjp

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

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


def matmul(a, b) -> Tensor:
    """``a @ b`` over operands of two or more axes: leading axes batch (and
    broadcast) over stacks of matrices."""
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data @ b.data, (a, b), lambda g: (
        lambda: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
        lambda: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)))


def mlp_forward(x, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray]:
    """The hidden rows ``tanh(x @ w1ᵀ + b1)`` and the output rows
    ``hidden @ w2ᵀ + b2`` of the array operands: weight matrices are
    (fan_out, fan_in) and biases (fan_out,)."""
    h = x @ w1.T
    h += b1
    np.tanh(h, out=h)
    out = h @ w2.T
    out += b2
    return h, out


def mlp_thunks(x, w1, b1, w2, b2, h, g) -> tuple:
    """The gradient thunks of ``mlp``'s parents (x, w1, b1, w2, b2), given
    as arrays, for the upstream gradient ``g`` of its output and its hidden
    rows ``h``: the backward ops of a dense layer, ``tanh`` and a dense
    layer, a weight's gradient gᵀ x coming out in the weight's own layout.
    The gradient at the first layer's output is made once, by the first
    thunk that needs it."""
    @functools.cache
    def g_pre():
        return (g @ w2) * (1.0 - h * h)

    return (lambda: g_pre() @ w1, lambda: g_pre().T @ x,
            lambda: _unbroadcast(g_pre(), b1.shape),
            lambda: g.T @ h, lambda: _unbroadcast(g, b2.shape))


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """A dense layer, ``tanh`` and a dense layer as one node, with the bytes
    of that chain (``composed_mlp`` in ``tests/composed.py``) in value and
    gradients."""
    parents = tuple(as_tensor(t) for t in (x, w1, b1, w2, b2))
    arrays = [t.data for t in parents]
    h, out = mlp_forward(*arrays)
    return _make(out, parents, lambda g: mlp_thunks(*arrays, h, g))


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


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (lambda: g * (1.0 - out * out),))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data * a.data, (a,), lambda g: (lambda: 2.0 * g * a.data,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (lambda: g * mask,))


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
    return _make(a.data[idx], (a,), lambda g: (lambda: scatter0(g, idx, a.data.shape),))


def scatter0(g, idx, shape: tuple) -> np.ndarray:
    """``gather0``'s gradient: the rows of ``g`` summed into a zero array of
    ``shape`` at the ids ``idx``, by one bincount over flat (row, column)
    ids, which adds in the order of ``np.add.at``."""
    width = math.prod(shape[1:])
    ids = (np.reshape(idx, (-1, 1)) * width + np.arange(width)).reshape(-1)
    return np.bincount(ids, weights=np.reshape(g, -1),
                       minlength=math.prod(shape)).reshape(shape)


def grad(loss: Tensor, params: dict[str, Tensor],
         out: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Write the gradient of a scalar loss for each named parameter into
    its buffer in ``out``, a map of buffers of the parameters' shapes, and
    return ``out``. A parameter's first gradient is copied into its buffer
    and later ones added; the buffer of a parameter the tape never reaches
    is zeroed. One tensor under two names raises a ValueError naming both.

    The topological walk pushes only tape nodes (those with a vjp), so it
    never visits a leaf, parameter or constant; the tape nodes keep their
    order, and so do the sums of their gradients. A tape node's gradient
    lives in this call only, and is dropped once passed on to its parents.
    """
    if loss.data.ndim != 0:
        raise ValueError("grad expects a scalar loss")
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)] if loss._vjp is not None else []
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

    bufs = {id(p): out[name] for name, p in params.items()}
    if len(bufs) < len(params):
        first = {}
        for name, p in params.items():
            if id(p) in first:
                raise ValueError(f"parameters {first[id(p)]!r} and {name!r} are one tensor")
            first[id(p)] = name
    written: set[int] = set()
    grads = {id(loss): np.ones_like(loss.data)}  # tape nodes' gradients, by id
    for node in reversed(topo):
        upstream = grads.pop(id(node))
        # constants take no gradient: their thunks never run
        needy = [i for i, p in enumerate(node._parents)
                 if p._vjp is not None or id(p) in bufs]
        thunks = node._vjp(upstream)
        for i in needy:
            key, g = id(node._parents[i]), thunks[i]()
            if key in written:
                bufs[key] += g
            elif key in bufs:
                bufs[key][...] = g
                written.add(key)
            elif key in grads:
                grads[key] += g
            elif g.flags.writeable and (i == needy[-1]
                                        or not np.may_share_memory(g, upstream)):
                # a new array, which nothing else holds, or, for the last
                # parent, a view of upstream, which is dropped after it
                grads[key] = g
            else:
                grads[key] = np.array(g)  # a copy: a later parent may read g
    for key, buf in bufs.items():
        if key not in written:
            buf.fill(0.0)
    return out
