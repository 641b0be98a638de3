"""Engine checks: every primitive's gradient against central differences."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj import autodiff, psdlinalg
from gptraj.autodiff import Tensor


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def check_op(build, *shapes, seed=0, h=1e-6, tol=1e-6):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) if s else np.array(rng.normal()) for s in shapes]
    params = [autodiff.parameter(a) for a in arrays]
    loss = build(*params)
    autodiff.backward(loss)
    for p, a in zip(params, arrays):
        fd = numeric_grad(lambda: build(*[Tensor(q.data) for q in params]).item(), p.data, h)
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert np.allclose(got, fd, atol=tol), f"analytic {got} vs fd {fd}"


def test_add_mul_broadcast():
    check_op(lambda a, b: autodiff.tsum(autodiff.mul(autodiff.add(a, b), b)),
             (3, 4), (4,))


def test_sub_div():
    check_op(lambda a, b: autodiff.tsum(autodiff.div(autodiff.sub(a, b), b)),
             (5,), (5,), seed=3)


def test_matmul_all_rank_combos():
    check_op(lambda a, b: autodiff.tsum(autodiff.matmul(a, b)), (3, 4), (4, 2))
    check_op(lambda a, b: autodiff.tsum(autodiff.matmul(a, b)), (4,), (4, 2))
    check_op(lambda a, b: autodiff.tsum(autodiff.matmul(a, b)), (3, 4), (4,))
    check_op(lambda a, b: autodiff.matmul(a, b), (4,), (4,))
    # leading batch axes, also broadcast against a plain matrix or vector
    w = np.random.default_rng(1).normal(size=(2, 3, 5))
    for shapes in [((2, 3, 4), (2, 4, 5)), ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5))]:
        check_op(lambda a, b: autodiff.tsum(autodiff.mul(autodiff.matmul(a, b), w)),
                 *shapes)
    check_op(lambda a, b: autodiff.tsum(autodiff.square(autodiff.matmul(a, b))),
             (4,), (2, 4, 3))


def test_reductions_and_transpose():
    check_op(lambda a: autodiff.tsum(autodiff.square(autodiff.transpose(a))), (3, 5))
    check_op(lambda a: autodiff.tmean(a, axis=1)
             if False else autodiff.tsum(autodiff.tmean(a, axis=1)), (3, 5))
    check_op(lambda a: autodiff.tsum(autodiff.tsum(a, axis=0)), (3, 5))


def test_stack_narrow_columns_and_3d_gather():
    w = np.arange(1.0, 7.0)
    check_op(lambda a, b: autodiff.tsum(autodiff.mul(autodiff.stack([a, b, a]), w)),
             (6,), (6,))
    check_op(lambda a: autodiff.tsum(autodiff.square(autodiff.narrow(a, 1, 4, axis=1))),
             (3, 5))
    idx = np.array([[0, 2], [2, 2], [1, 0]])  # 2-D ids gather a (3, 2, 4) block
    check_op(lambda a: autodiff.tsum(autodiff.mul(
        autodiff.tsum(autodiff.square(autodiff.gather0(a, idx)), axis=(1, 2)),
        np.array([1.0, 2.0, 3.0]))), (3, 4))


def test_elementwise_transcendentals():
    check_op(lambda a: autodiff.tsum(autodiff.exp(a)), (4,))
    check_op(lambda a: autodiff.tsum(autodiff.log(autodiff.add(autodiff.square(a), 1.0))), (4,))
    check_op(lambda a: autodiff.tsum(autodiff.tanh(a)), (4,))
    check_op(lambda a: autodiff.tsum(autodiff.sqrt(autodiff.add(autodiff.square(a), 0.5))), (4,))


def test_relu_and_clamp_masks():
    x = autodiff.parameter(np.array([-2.0, -0.5, 0.5, 2.0]))
    y = autodiff.tsum(autodiff.relu(x))
    autodiff.backward(y)
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])

    x = autodiff.parameter(np.array([-2.0, 0.0, 0.7, 2.0]))
    y = autodiff.tsum(autodiff.clamp(x, -1.0, 1.0))
    autodiff.backward(y)
    assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 0.0])


def test_concat_narrow_gather_reshape():
    check_op(lambda a, b: autodiff.tsum(
        autodiff.square(autodiff.concat([a, b], axis=0))), (2, 3), (4, 3))
    check_op(lambda a: autodiff.tsum(autodiff.narrow(a, 1, 3)), (5, 2))
    check_op(lambda a: autodiff.tsum(
        autodiff.gather0(a, np.array([0, 2, 2]))), (4,))
    check_op(lambda a: autodiff.tsum(autodiff.square(
        autodiff.reshape(a, (6,)))), (2, 3))


def test_gather_repeated_indices_accumulate():
    x = autodiff.parameter(np.array([1.0, 2.0, 3.0]))
    y = autodiff.tsum(autodiff.gather0(x, np.array([1, 1, 1])))
    autodiff.backward(y)
    assert np.array_equal(x.grad, [0.0, 3.0, 0.0])


def test_psd_inverse_gradients():
    # a stack of two SPD matrices m m^T + 4 I, weighted unevenly
    w = np.random.default_rng(7).normal(size=(2, 4, 4))

    def spd(m):
        return autodiff.add(autodiff.matmul(m, autodiff.transpose(m)), 4.0 * np.eye(4))

    check_op(lambda a, b: autodiff.tsum(autodiff.mul(
        autodiff.psd_inverse(autodiff.stack([spd(a), spd(b)])), w)), (4, 4), (4, 4),
        seed=7)


def test_psd_inverse_of_diagonal_stack_and_failing_group():
    out = autodiff.psd_inverse(Tensor(np.stack([np.diag([4.0, 9.0]), np.eye(2)])))
    assert np.allclose(out.data, [np.diag([0.25, 1.0 / 9.0]), np.eye(2)])
    with pytest.raises(psdlinalg.NotPSD, match="^group 1: matrix not positive") as exc:
        autodiff.psd_inverse(Tensor(np.stack([np.eye(2), np.diag([1.0, -5.0])])))
    assert (exc.value.group, exc.value.pivot) == (1, 1)


def test_fused_rbf_kernel_gradients_with_batch_axes():
    w = np.random.default_rng(3).normal(size=(2, 3, 5))
    check_op(lambda x, y, log_ell, log_sf: autodiff.tsum(autodiff.mul(
        psdlinalg.kernel_matrix_t(x, y, log_ell, log_sf), w)),
        (2, 3, 4), (2, 5, 4), (), (), seed=4)
    # one basis against itself, as in a group's Gram matrix (zero distances
    # on the diagonal)
    w = np.random.default_rng(5).normal(size=(2, 3, 3))
    check_op(lambda b, log_ell, log_sf: autodiff.tsum(autodiff.mul(
        psdlinalg.kernel_matrix_t(b, b, log_ell, log_sf), w)), (2, 3, 4), (), (),
        seed=6)


def test_shared_subexpression_accumulates():
    x = autodiff.parameter(np.array(3.0))
    y = autodiff.add(autodiff.square(x), autodiff.mul(x, 2.0))  # x^2 + 2x
    autodiff.backward(y)
    assert np.allclose(x.grad, 2 * 3.0 + 2.0)


def test_no_grad_builds_no_tape():
    x = autodiff.parameter(np.array([1.0, 2.0]))
    with autodiff.no_grad():
        y = autodiff.tsum(autodiff.square(x))
    assert y._parents == ()
    autodiff.backward(y)  # nothing to walk; leaves untouched
    assert x.grad is None


def test_grad_map_zero_for_unused():
    x = autodiff.parameter(np.array([1.0, 2.0]))
    unused = autodiff.parameter(np.array([5.0]))
    loss = autodiff.tsum(autodiff.square(x))
    grads = autodiff.grad(loss, {"x": x, "unused": unused})
    assert np.allclose(grads["x"], [2.0, 4.0])
    assert np.array_equal(grads["unused"], [0.0])


def test_grad_rejects_nonscalar_and_nonfinite():
    x = autodiff.parameter(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        autodiff.backward(autodiff.square(x))
    bad = Tensor(np.array(np.inf))
    with pytest.raises(FloatingPointError):
        autodiff.grad(bad, {})
