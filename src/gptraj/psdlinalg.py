"""RBF kernel evaluation and numerically guarded PSD linear algebra.

All Gaussian-process conditioning in the package funnels through
``cholesky_factor`` / ``solve_with_factor``: a dpotrf factorization with a
fixed jitter escalation ladder. The learnable noise variances are *not* part
of the jitter; jitter is purely a numerical guard so the learned noise stays
interpretable.
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

    ``pivot`` is the zero-based index of the smallest failing pivot.
    """

    def __init__(self, pivot: int, jitter: float):
        self.pivot = pivot
        self.jitter = jitter
        super().__init__(
            f"matrix not positive definite: pivot {pivot} failed at jitter {jitter:g}"
        )


@dataclass(frozen=True)
class KernelParams:
    """RBF hyperparameters stored in log space so they stay positive.

    lengthscale = exp(log_lengthscale), outputscale = exp(log_outputscale),
    noise = exp(log_noise).
    """

    log_lengthscale: float = 0.0
    log_outputscale: float = 0.0
    log_noise: float = float(np.log(1e-2))

    @property
    def lengthscale(self) -> float:
        return float(np.exp(self.log_lengthscale))

    @property
    def outputscale(self) -> float:
        return float(np.exp(self.log_outputscale))

    @property
    def noise(self) -> float:
        return float(np.exp(self.log_noise))


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
    d2 = float(np.sum((x - y) ** 2))
    ell = p.lengthscale
    sf2 = p.outputscale ** 2
    return sf2 * float(np.exp(-d2 / (2.0 * ell * ell)))


def kernel_matrix(xs, ys, p: KernelParams) -> np.ndarray:
    """Pairwise kernel matrix; entry (i, j) = kernel(xs[i], ys[j], p)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if y.ndim == 1:
        y = y[None, :]
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"token dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    # one (len(xs), len(ys)) buffer, updated in place: a call over many rows
    # holds one such array instead of one per arithmetic step
    k = x @ y.T
    k *= 2.0
    np.subtract(np.sum(x * x, axis=1)[:, None], k, out=k)
    k += np.sum(y * y, axis=1)[None, :]
    np.maximum(k, 0.0, out=k)  # squared distances
    ell = p.lengthscale
    sf2 = p.outputscale ** 2
    np.negative(k, out=k)
    k /= 2.0 * ell * ell
    np.exp(k, out=k)
    k *= sf2
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


# --- differentiable versions used in training tapes -------------------------
#
# Same formulas as above, expressed over autodiff tensors. log-domain
# hyperparameters enter as tensors so kernel gradients flow into them.


def kernel_matrix_t(x: Tensor, y: Tensor, log_lengthscale: Tensor,
                    log_outputscale: Tensor) -> Tensor:
    """Differentiable pairwise RBF matrix between row-stacked token matrices."""
    x2 = autodiff.tsum(autodiff.square(x), axis=1)
    y2 = autodiff.tsum(autodiff.square(y), axis=1)
    cross = autodiff.matmul(x, autodiff.transpose(y))
    d2 = autodiff.add(
        autodiff.sub(autodiff.reshape(x2, (-1, 1)), autodiff.mul(cross, 2.0)),
        autodiff.reshape(y2, (1, -1)),
    )
    d2 = autodiff.relu(d2)  # clip the tiny negatives roundoff can produce
    inv2l2 = autodiff.mul(autodiff.exp(autodiff.mul(log_lengthscale, -2.0)), 0.5)
    sf2 = autodiff.exp(autodiff.mul(log_outputscale, 2.0))
    return autodiff.mul(sf2, autodiff.exp(autodiff.mul(autodiff.mul(d2, inv2l2), -1.0)))


def kernel_vector_t(token: Tensor, basis: Tensor, log_lengthscale: Tensor,
                    log_outputscale: Tensor) -> Tensor:
    """Differentiable kernel vector between one token and a basis matrix."""
    k = kernel_matrix_t(autodiff.reshape(token, (1, -1)), basis,
                        log_lengthscale, log_outputscale)
    return autodiff.reshape(k, (-1,))
