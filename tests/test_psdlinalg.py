"""Kernel closed forms, PSD checks, and solves against the Gauss-Jordan oracle."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj import autodiff
from gptraj.autodiff import Tensor
from gptraj.psdlinalg import (JITTER_LADDER, NotPSD, cholesky_factor, kernel_matrix,
                              kernel_matrix_t, psd_inverse, solve_with_factor)

from conftest import parameter
from oracles import (gauss_jordan_inverse, jacobi_eigenvalues, psd_inverse_ref,
                     rbf_seven_pass_ref)


UNIT = (0.0, 0.0)  # log lengthscale and log outputscale of the unit kernel


def test_kernel_closed_forms():
    x = np.array([[1.0, 0.0]])
    assert kernel_matrix(x, x, *UNIT)[0, 0] == pytest.approx(1.0)
    assert kernel_matrix(x, np.zeros((1, 2)), *UNIT)[0, 0] == pytest.approx(np.exp(-0.5))
    x = np.array([[3.0, 4.0, 0.0]])
    assert kernel_matrix(x, np.zeros((1, 3)), np.log(5.0), np.log(2.0))[0, 0] == (
        pytest.approx(4.0 * np.exp(-0.5)))


def test_kernel_length_mismatch():
    with pytest.raises(ValueError):
        kernel_matrix(np.zeros((1, 3)), np.zeros((1, 4)), *UNIT)


def test_kernel_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    p = (0.3, -0.2)
    sf2 = np.exp(-0.2) ** 2
    for _ in range(100):
        x, y = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        kxy = kernel_matrix(x, y, *p)[0, 0]
        assert kxy == pytest.approx(kernel_matrix(y, x, *p)[0, 0])
        assert 0.0 < kxy <= sf2
        assert kernel_matrix(x, x, *p)[0, 0] == pytest.approx(sf2)


def test_kernel_matrix_single_and_duplicate():
    p = (0.0, np.log(1.5))
    t = np.array([[0.3, -0.2]])
    assert np.allclose(kernel_matrix(t, t, *p), [[1.5 ** 2]])
    two = np.array([[1.0, 2.0], [1.0, 2.0]])
    m = kernel_matrix(two, two, *p)
    assert np.allclose(m, 1.5 ** 2)


def test_kernel_matrix_psd_by_jacobi():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(5, 3))
    m = kernel_matrix(xs, xs, *UNIT)
    eigs = jacobi_eigenvalues(m)
    assert eigs.min() >= -1e-10


def test_chol_solve_identity_and_diagonal():
    x = solve_with_factor(cholesky_factor(np.eye(3)))
    assert np.allclose(x, np.eye(3))
    assert cholesky_factor(np.eye(3)).jitter_used == 0.0
    x = solve_with_factor(cholesky_factor(np.diag([4.0, 9.0])))
    assert np.allclose(x, np.diag([0.25, 1.0 / 9.0]))


def test_chol_solve_matches_gauss_jordan_oracle():
    rng = np.random.default_rng(9)
    for n in (4, 16, 64):
        m = rng.normal(size=(n, n))
        a = m @ m.T + 0.5 * np.eye(n)
        b = rng.normal(size=(n, 3))
        x = solve_with_factor(cholesky_factor(a)) @ b
        assert np.max(np.abs(x - gauss_jordan_inverse(a) @ b)) < 1e-8


def test_solve_roundtrip_up_to_256():
    rng = np.random.default_rng(13)
    for n in (8, 64, 256):
        m = rng.normal(size=(n, n))
        a = m @ m.T + 1e-3 * np.eye(n)
        b = rng.normal(size=(n, 1))
        factor = cholesky_factor(a)
        x = solve_with_factor(factor) @ b
        recovered = (a + factor.jitter_used * np.eye(n)) @ x
        assert np.max(np.abs(recovered - b)) < 1e-7


def test_factor_reconstructs_input():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(12, 12))
    a = m @ m.T
    f = cholesky_factor(a)
    rebuilt = f.lower @ f.lower.T
    target = a + f.jitter_used * np.eye(12)
    assert np.linalg.norm(rebuilt - target) / np.linalg.norm(target) < 1e-8


def test_jitter_escalates_on_rank_deficiency():
    v = np.array([[1.0, 2.0, 3.0]])
    a = v.T @ v  # rank 1
    f = cholesky_factor(a)
    assert f.jitter_used in JITTER_LADDER and f.jitter_used > 0.0


def test_not_psd_error_names_pivot():
    a = np.diag([1.0, -5.0, 2.0])
    with pytest.raises(NotPSD) as exc:
        cholesky_factor(a)
    assert exc.value.pivot == 1
    assert "pivot 1" in str(exc.value)


def spd_stack(rng, shape, n):
    m = rng.normal(size=(*shape, n, n))
    return m @ np.swapaxes(m, -1, -2) + 0.5 * np.eye(n)


def test_batched_factor_matches_per_matrix_reference():
    rng = np.random.default_rng(31)
    stack = spd_stack(rng, (2, 3), 6)
    for a in (spd_stack(rng, (), 6), stack):
        factor = cholesky_factor(a)
        assert factor.lower.shape == a.shape and factor.jitters.shape == a.shape[:-2]
        assert factor.jitter_used == 0.0 and not factor.jitters.any()
        ref, _ = psd_inverse_ref(a, JITTER_LADDER)
        got = solve_with_factor(factor)
        err = np.linalg.norm(got - ref, axis=(-2, -1))
        assert np.all(err < 1e-12 * np.linalg.norm(ref, axis=(-2, -1)))
    stack[1, 2] = -np.eye(6)  # flattened index 5
    with pytest.raises(NotPSD, match="^group 5: ") as exc:
        cholesky_factor(stack)
    assert exc.value.group == 5


def test_jitter_ladder_runs_for_the_failing_group_only():
    rng = np.random.default_rng(37)
    stack = spd_stack(rng, (6,), 5)
    v = np.array([[1.0, 2.0, 3.0, 0.0, -1.0]])
    stack[3] = v.T @ v  # rank 1: the batched factorization fails
    factor = cholesky_factor(stack)
    ref, jitters = psd_inverse_ref(stack, JITTER_LADDER)
    assert jitters[3] > 0.0 and not np.delete(jitters, 3).any()
    assert np.array_equal(factor.jitters, jitters)
    assert type(factor.jitter_used) is float and factor.jitter_used == jitters[3]
    inv = psd_inverse(Tensor(stack)).data
    for g in range(len(stack)):
        # an inverse's relative error grows with the condition number
        cond = np.linalg.cond(stack[g] + jitters[g] * np.eye(5))
        assert np.linalg.norm(inv[g] - ref[g]) <= 1e-14 * cond * np.linalg.norm(ref[g])


def test_healthy_factors_do_not_depend_on_a_failing_stack_mate():
    # a rank-deficient Gram matrix in the stack sends it to the per-matrix
    # path; every healthy matrix keeps the bytes it factors to alone
    rng = np.random.default_rng(43)
    basis = rng.normal(scale=0.3, size=(40, 16, 8))
    healthy = kernel_matrix(basis, basis, 0.0, 0.0)
    v = rng.normal(size=(1, 16))
    alone = [cholesky_factor(m).lower.tobytes() for m in healthy]
    for stack, bad in ((healthy, None),
                       (np.concatenate([healthy[:7], (v.T @ v)[None], healthy[7:]]), 7)):
        factor = cholesky_factor(stack)
        lower = factor.lower if bad is None else np.delete(factor.lower, bad, axis=0)
        assert [m.tobytes() for m in lower] == alone
        assert (bad is None) == (factor.jitter_used == 0.0)


def test_dimension_cap():
    with pytest.raises(ValueError, match="4096"):
        cholesky_factor(np.eye(5000))


def test_kernel_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(2, 4))
    log_ell = parameter(np.array(0.2))
    log_sf = parameter(np.array(-0.3))
    xt = parameter(x)

    def forward():
        return autodiff.tsum(kernel_matrix_t(Tensor(xt.data), Tensor(y),
                                             Tensor(log_ell.data),
                                             Tensor(log_sf.data))).item()

    loss = autodiff.tsum(kernel_matrix_t(xt, Tensor(y), log_ell, log_sf))
    autodiff.backward(loss)
    h = 1e-5
    for p in (log_ell, log_sf):
        orig = p.data.copy()
        p.data[...] = orig + h
        up = forward()
        p.data[...] = orig - h
        down = forward()
        p.data[...] = orig
        fd = (up - down) / (2 * h)
        assert abs(float(p.grad) - fd) / max(abs(fd), 1e-12) < 1e-4
    # token gradient too
    fd0 = None
    i = (1, 2)
    orig = xt.data[i]
    xt.data[i] = orig + h
    up = forward()
    xt.data[i] = orig - h
    down = forward()
    xt.data[i] = orig
    fd0 = (up - down) / (2 * h)
    assert abs(xt.grad[i] - fd0) / max(abs(fd0), 1e-12) < 1e-4


def test_kernel_matrix_t_matches_numpy_path():
    # tracked inputs: the tape's own forward runs, not kernel_matrix
    rng = np.random.default_rng(5)
    log_ell, log_sf = parameter(np.array(0.4)), parameter(np.array(0.1))
    for x_shape, y_shape in (((6, 3), (4, 3)), ((5, 4, 3), (5, 4, 3))):
        xs, ys = rng.normal(size=x_shape), rng.normal(size=y_shape)
        got = kernel_matrix_t(parameter(xs), Tensor(ys), log_ell, log_sf)
        assert got._vjp is not None and len(got._parents) == 4
        assert got.data.tobytes() == kernel_matrix(xs, ys, 0.4, 0.1).tobytes()


@pytest.mark.parametrize("n_rows,basis_shape", [(130, (1792,)), (146, (1792,)),
                                                (800, (1792,)), (16, (112, 16)),
                                                (None, (112, 16))],
                         ids=["130", "146", "800", "batched", "gram"])
def test_kernel_forward_and_gradients_match_seven_pass_form_bits(n_rows, basis_shape):
    # a third of the rows are basis rows, so some distances clip at 0; the
    # Gram case passes one array as both operands, as GP conditioning does
    rng = np.random.default_rng(7)
    y = rng.normal(0.0, 0.7, (*basis_shape, 32))
    if n_rows is None:
        x = y
    else:
        x = rng.normal(0.0, 0.7, (*basis_shape[:-1], n_rows, 32))
        x[..., ::3, :] = y[..., :len(range(0, n_rows, 3)), :]
    log_ell, log_sf = 0.4, -0.1
    g = rng.normal(size=(*x.shape[:-1], basis_shape[-1]))
    want = rbf_seven_pass_ref(x, y, log_ell, log_sf, g)
    assert (want[0] == np.exp(log_sf) ** 2).any()  # a clipped distance
    assert kernel_matrix(x, y, log_ell, log_sf).tobytes() == want[0].tobytes()
    params = [parameter(x), parameter(y), parameter(np.array(log_ell)),
              parameter(np.array(log_sf))]
    if n_rows is None:
        params[1] = params[0]
    k = kernel_matrix_t(*params)
    assert k.data.tobytes() == want[0].tobytes()
    autodiff.backward(autodiff.tsum(autodiff.mul(k, Tensor(g))))
    if n_rows is None:  # one leaf takes both operands' gradients, x's first
        want = (want[0], want[1] + want[2], None, *want[3:])
    for param, ref in zip(params, want[1:]):
        if ref is not None:
            assert param.grad.tobytes() == ref.tobytes()
