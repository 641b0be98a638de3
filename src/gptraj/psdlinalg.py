"""RBF kernel evaluation and numerically guarded PSD linear algebra.

``kernel_matrix`` is the one RBF implementation, sigma_f^2 *
exp(-||x - y||^2 / (2 l^2)) over the row pairs of two row matrices;
``kernel_matrix_t`` is its differentiable form, a single tape node with
closed-form gradients, and on constants (a frozen model's tensors are all
constants) it calls ``kernel_matrix``; ``group_gram_t`` is that node over
the Gram matrices of selected codebook groups. All take the hyperparameters
in log space and leading batch axes. Every operand has two or more axes: a
row is a (1, D) matrix. The kernel takes five elementwise passes over the
(..., N, M) buffer after one matmul x y^T: minus ||x||^2 / 2, minus
||y||^2 / 2, clipped at 0 from above, divided by l^2, then exp and a scaling
by sigma_f^2. The first three give -d2 / 2 bit for bit as the negated half
of ||x||^2 - 2 x.y + ||y||^2 clipped at 0 from below, since halving is exact
and rounding is symmetric under negation. The matmul stays x @ y^T so that
numpy computes a Gram matrix x @ x^T by its symmetric routine.

Every Cholesky factorization in the package goes through ``cholesky_factor``.
It factors a whole (..., n, n) stack with one batched ``np.linalg.cholesky``;
only if that fails are the matrices factored one by one, and only those that
fail climb a fixed jitter ladder, so a matrix's factor is the same bytes in
any stack. GP conditioning reaches it through ``psd_inverse``, whose
``solve_with_factor`` inverts the whole factored stack at once. The
learnable noise variances are *not* part of the jitter; jitter is purely a
numerical guard so the learned noise stays interpretable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tensor

JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)
MAX_DIM = 4096


class NotPSD(Exception):
    """Factorization failed at the maximum jitter.

    ``pivot`` is the zero-based index of the smallest failing pivot;
    ``group``, when known, the failing matrix's index in its stack, or, from
    GP conditioning, its codebook group's id.
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
class CholeskyFactor:
    """Lower-triangular factors (..., n, n) of each A + jitter * I in a stack.

    ``jitters`` (...) holds each matrix's jitter and ``jitter_used`` the
    largest of them.
    """

    lower: np.ndarray
    jitter_used: float
    jitters: np.ndarray


def _neg_half_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Negated half squared distances -d2 / 2 (..., N, M) between the rows
    of x (..., N, D) and y (..., M, D), clipped at 0 from above, in one
    buffer updated in place: a call over many rows holds one such array
    instead of one per arithmetic step."""
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"token dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    h = x @ np.swapaxes(y, -1, -2)
    h -= 0.5 * np.sum(x * x, axis=-1)[..., :, None]
    h -= 0.5 * np.sum(y * y, axis=-1)[..., None, :]
    np.minimum(h, 0.0, out=h)
    return h


def _rbf(h: np.ndarray, log_lengthscale, log_outputscale,
         out: np.ndarray) -> np.ndarray:
    """The kernel of negated half squared distances ``h``, written into
    ``out`` (which may be ``h``)."""
    ell = float(np.exp(log_lengthscale))
    np.divide(h, ell * ell, out=out)
    np.exp(out, out=out)
    out *= float(np.exp(log_outputscale)) ** 2
    return out


def kernel_matrix(xs, ys, log_lengthscale, log_outputscale) -> np.ndarray:
    """Pairwise kernel matrix; entry (..., i, j) is the kernel of
    xs[..., i, :] and ys[..., j, :] with lengthscale exp(log_lengthscale)
    and outputscale exp(log_outputscale).

    ``xs`` (..., N, D) and ``ys`` (..., M, D) are row matrices; leading axes
    batch independent matrices, e.g. (G, C, D) x (G, C, D) -> (G, C, C).
    """
    k = _neg_half_sq_dists(np.asarray(xs, dtype=np.float64),
                           np.asarray(ys, dtype=np.float64))
    return _rbf(k, log_lengthscale, log_outputscale, out=k)


def cholesky_factor(a: np.ndarray) -> CholeskyFactor:
    """Factor each matrix A of a (..., n, n) stack as A + jitter * I.

    One ``np.linalg.cholesky`` factors the whole stack at jitter 0. Only if
    it fails is each matrix factored alone: at jitter 0 the same way, and,
    where that fails, with dpotrf up the rest of the fixed ladder; a matrix
    that fails at the last rung raises ``NotPSD`` with ``group`` set to its
    index in the flattened stack (no group for a single matrix).
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ValueError(f"expected square matrices, got {a.shape}")
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds supported maximum {MAX_DIM}")
    try:
        return CholeskyFactor(lower=np.linalg.cholesky(a), jitter_used=0.0,
                              jitters=np.zeros(a.shape[:-2]))
    except np.linalg.LinAlgError:
        pass
    lower = np.empty_like(a)
    jitters = np.zeros(a.shape[:-2])
    flat_lower, flat_jitters = lower.reshape(-1, n, n), jitters.reshape(-1)
    for i, m in enumerate(a.reshape(-1, n, n)):
        try:
            flat_lower[i] = np.linalg.cholesky(m)
            continue
        except np.linalg.LinAlgError:
            pass
        from scipy.linalg import lapack  # loaded only for a matrix that needs jitter

        for jitter in JITTER_LADDER[1:]:
            c, info = lapack.dpotrf(m + jitter * np.eye(n), lower=1, overwrite_a=False)
            if info == 0:
                break
        else:
            raise NotPSD(pivot=int(info) - 1, jitter=JITTER_LADDER[-1],
                         group=i if a.ndim > 2 else None)
        flat_lower[i] = np.tril(c)
        flat_jitters[i] = jitter
    return CholeskyFactor(lower=lower, jitter_used=float(jitters.max()),
                          jitters=jitters)


def solve_with_factor(factor: CholeskyFactor) -> np.ndarray:
    """The inverse (A + jitter I)^-1 = L^-T L^-1 of every matrix of a
    factored stack, with every L^-1 from one batched ``np.linalg.inv``; numpy
    multiplies L^-1 by its own transpose with its symmetric routine."""
    l_inv = np.linalg.inv(factor.lower)
    return np.swapaxes(l_inv, -1, -2) @ l_inv


def psd_inverse(a) -> Tensor:
    """Differentiable (A + jitter I)^-1 of each symmetric PSD matrix in a
    (..., n, n) stack, from one ``cholesky_factor`` and one
    ``solve_with_factor`` call over the whole stack. A matrix that stays
    indefinite through the jitter ladder raises ``NotPSD`` with ``group``
    set to its index in the flattened stack. The gradient is -A^-T G A^-T.
    """
    a = autodiff.as_tensor(a)
    inv = solve_with_factor(cholesky_factor(a.data))
    inv_t = np.swapaxes(inv, -1, -2)
    return autodiff._make(inv, (a,), lambda g: (lambda: -(inv_t @ g @ inv_t),))


def kernel_matrix_t(x, y, log_lengthscale, log_outputscale) -> Tensor:
    """Differentiable ``kernel_matrix`` between row-stacked token matrices
    (..., N, D) and (..., M, D), with the log-hyperparameters as tensors.

    One tape node. Untracked, it is ``kernel_matrix``. Tracked, it keeps
    -d2 / 2 for the backward, which applies the closed-form gradients
    dk/dd2 = -k / (2 l^2), dk/dlog_l = k d2 / l^2 = -4 (dk/dd2) (-d2 / 2)
    and dk/dlog_sf = 2 k, with no gradient through distances clipped at 0.
    """
    x, y, log_ell, log_sf = (autodiff.as_tensor(t) for t in
                             (x, y, log_lengthscale, log_outputscale))
    return _kernel_node((x, y, log_ell, log_sf), x.data, y.data, lambda a: a)


def group_gram_t(basis, ids: np.ndarray, log_lengthscale, log_outputscale) -> Tensor:
    """``kernel_matrix_t(basis, basis, ...)[ids]`` of an (n_code, C, D)
    basis, for the distinct ascending ``ids`` only, with that call's
    gradient bytes under an upstream gradient zero outside ``ids``."""
    basis, log_ell, log_sf = (autodiff.as_tensor(t) for t in
                              (basis, log_lengthscale, log_outputscale))
    rows = basis.data[ids]  # one array in both slots: numpy's symmetric x x^T

    def scatter(a: np.ndarray) -> np.ndarray:
        full = np.zeros((len(basis.data), *a.shape[1:]))
        full[ids] = a
        return full

    return _kernel_node((basis, basis, log_ell, log_sf), rows, rows, scatter)


def _kernel_node(parents: tuple, x: np.ndarray, y: np.ndarray, scatter) -> Tensor:
    """``kernel_matrix(x, y, ...)`` as one node over ``parents`` (the rows'
    tensors, then the log-hyperparameters); ``scatter`` lays rows' stacks
    out in the parents' layout, so gradients and sums come out in it."""
    log_ell, log_sf = parents[2].data, parents[3].data
    if not autodiff._tracked(*parents):
        return Tensor(kernel_matrix(x, y, log_ell, log_sf))
    h = _neg_half_sq_dists(x, y)
    k = _rbf(h, log_ell, log_sf, out=np.empty_like(h))
    ell = float(np.exp(log_ell))

    def vjp(g):
        gd2 = np.multiply(g, k)
        sf_grad = np.array(2.0 * np.sum(scatter(gd2)))
        np.copyto(gd2, 0.0, where=~(h < 0.0))
        gd2 *= -0.5 / ell ** 2
        return (lambda: scatter(2.0 * (np.sum(gd2, axis=-1)[..., None] * x - gd2 @ y)),
                lambda: scatter(2.0 * (np.sum(gd2, axis=-2)[..., None] * y
                                       - np.swapaxes(gd2, -1, -2) @ x)),
                # scales gd2 in place: grad runs it after the two above
                lambda: np.array(4.0 * np.sum(scatter(np.multiply(gd2, h, out=gd2)))),
                lambda: sf_grad)

    return autodiff._make(k, parents, vjp)
