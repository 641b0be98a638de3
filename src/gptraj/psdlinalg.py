"""RBF kernel evaluation and numerically guarded PSD linear algebra.

``kernel_matrix`` is the one RBF implementation: ``kernel`` is its one-entry
case and ``kernel_matrix_t`` its differentiable form, a single tape node
with closed-form gradients. Both take leading batch axes, so every codebook
group's Gram matrix comes from one call.

Every Cholesky factorization in the package goes through ``cholesky_factor``:
a dpotrf factorization with a fixed jitter escalation ladder. GP
conditioning reaches it through ``autodiff.psd_inverse``, once per group.
The learnable noise variances are *not* part of the jitter; jitter is
purely a numerical guard so the learned noise stays interpretable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from . import autodiff
from .autodiff import Tensor

JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)
MAX_DIM = 4096


class NotPSD(Exception):
    """Factorization failed at the maximum jitter.

    ``pivot`` is the zero-based index of the smallest failing pivot;
    ``group``, when known, the index of the failing matrix in a stack of
    per-group matrices.
    """

    def __init__(self, pivot: int, jitter: float, group: int | None = None):
        self.pivot = pivot
        self.jitter = jitter
        self.group = group
        where = "" if group is None else f"group {group}: "
        super().__init__(
            f"{where}matrix not positive definite: pivot {pivot} failed at "
            f"jitter {jitter:g}")


@dataclass(frozen=True)
class KernelParams:
    """RBF hyperparameters stored in log space so they stay positive.

    lengthscale = exp(log_lengthscale), outputscale = exp(log_outputscale).
    """

    log_lengthscale: float = 0.0
    log_outputscale: float = 0.0

    @property
    def lengthscale(self) -> float:
        return float(np.exp(self.log_lengthscale))

    @property
    def outputscale(self) -> float:
        return float(np.exp(self.log_outputscale))


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor of (A + jitter_used * I)."""

    lower: np.ndarray
    dim: int
    jitter_used: float


def kernel(x, y, p: KernelParams) -> float:
    """RBF kernel sigma_f^2 * exp(-||x - y||^2 / (2 l^2)) for two vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"kernel inputs must be equal-length vectors, got {x.shape} vs {y.shape}")
    return float(kernel_matrix(x, y, p)[0, 0])


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances (..., N, M) between the rows of x (..., N, D) and
    y (..., M, D), clipped at 0, in one buffer updated in place: a call over
    many rows holds one such array instead of one per arithmetic step."""
    d2 = x @ np.swapaxes(y, -1, -2)
    d2 *= 2.0
    np.subtract(np.sum(x * x, axis=-1)[..., :, None], d2, out=d2)
    d2 += np.sum(y * y, axis=-1)[..., None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def kernel_matrix(xs, ys, p: KernelParams) -> np.ndarray:
    """Pairwise kernel matrix; entry (..., i, j) = kernel(xs[..., i, :], ys[..., j, :], p).

    Leading axes batch independent matrices, e.g. (G, C, D) x (G, C, D) ->
    (G, C, C). A 1-D input is one row.
    """
    x = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"token dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    k = _sq_dists(x, y)
    ell = p.lengthscale
    np.negative(k, out=k)
    k /= 2.0 * ell * ell
    np.exp(k, out=k)
    k *= p.outputscale ** 2
    return k


def cholesky_factor(a: np.ndarray) -> CholeskyFactor:
    """Factor A + jitter*I, escalating jitter through the fixed ladder."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected square matrix, got {a.shape}")
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds supported maximum {MAX_DIM}")
    info = 0
    for jitter in JITTER_LADDER:
        m = a if jitter == 0.0 else a + jitter * np.eye(n)
        c, info = lapack.dpotrf(m, lower=1, overwrite_a=False)
        if info == 0:
            return CholeskyFactor(lower=np.tril(c), dim=n, jitter_used=jitter)
    raise NotPSD(pivot=int(info) - 1, jitter=JITTER_LADDER[-1])


def solve_with_factor(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve (A + jitter I) X = B given the Cholesky factor of A."""
    b = np.asarray(b, dtype=np.float64)
    vec = b.ndim == 1
    rhs = b[:, None] if vec else b
    y = solve_triangular(factor.lower, rhs, lower=True)
    x = solve_triangular(factor.lower.T, y, lower=False)
    return x[:, 0] if vec else x


def chol_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (A + jitter I) X = B with the escalating-jitter policy."""
    return solve_with_factor(cholesky_factor(a), b)


def kernel_matrix_t(x, y, log_lengthscale, log_outputscale) -> Tensor:
    """Differentiable ``kernel_matrix`` between row-stacked token matrices
    (..., N, D) and (..., M, D), with the log-hyperparameters as tensors.

    One tape node. Its forward is ``kernel_matrix``; its backward recomputes
    the squared distances and applies the closed-form gradients
    dk/dd2 = -k / (2 l^2), dk/dlog_l = k d2 / l^2 and dk/dlog_sf = 2 k, with
    no gradient through distances clipped at 0.
    """
    x, y, log_ell, log_sf = (autodiff.as_tensor(t) for t in
                             (x, y, log_lengthscale, log_outputscale))
    p = KernelParams(float(log_ell.data), float(log_sf.data))
    k = kernel_matrix(x.data, y.data, p)
    x2, y2 = np.atleast_2d(x.data), np.atleast_2d(y.data)

    def vjp(g):
        d2 = _sq_dists(x2, y2)
        gk = g * k
        gd2 = np.where(d2 > 0.0, gk, 0.0) * (-0.5 / p.lengthscale ** 2)
        gx = 2.0 * (np.sum(gd2, axis=-1)[..., None] * x2 - gd2 @ y2)
        gy = 2.0 * (np.sum(gd2, axis=-2)[..., None] * y2
                    - np.swapaxes(gd2, -1, -2) @ x2)
        return (gx.reshape(x.data.shape), gy.reshape(y.data.shape),
                np.array(-2.0 * np.sum(gd2 * d2)), np.array(2.0 * np.sum(gk)))

    return autodiff._make(k, (x, y, log_ell, log_sf), vjp)
