"""Engine checks: every primitive's gradient against central differences."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj import autodiff, psdlinalg
from gptraj.autodiff import Tensor

from conftest import grad_map, parameter
from oracles import add_at_ref


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
    params = [parameter(a) for a in arrays]
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
    # leading batch axes, also broadcast against a plain matrix
    w = np.random.default_rng(1).normal(size=(2, 3, 5))
    for shapes in [((2, 3, 4), (2, 4, 5)), ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5))]:
        check_op(lambda a, b: autodiff.tsum(autodiff.mul(autodiff.matmul(a, b), w)),
                 *shapes)


def test_reductions_and_transpose():
    check_op(lambda a: autodiff.tsum(autodiff.square(autodiff.transpose(a))), (3, 5))
    check_op(lambda a: autodiff.tmean(a, axis=1)
             if False else autodiff.tsum(autodiff.tmean(a, axis=1)), (3, 5))
    check_op(lambda a: autodiff.tsum(autodiff.tsum(a, axis=0)), (3, 5))


def test_stack_narrow_columns_and_3d_gather():
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
    x = parameter(np.array([-2.0, -0.5, 0.5, 2.0]))
    y = autodiff.tsum(autodiff.relu(x))
    autodiff.backward(y)
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])

    x = parameter(np.array([-2.0, 0.0, 0.7, 2.0]))
    y = autodiff.tsum(autodiff.clamp(x, -1.0, 1.0))
    autodiff.backward(y)
    assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 0.0])


def test_narrow_gather_reshape():
    check_op(lambda a: autodiff.tsum(autodiff.narrow(a, 1, 3)), (5, 2))
    check_op(lambda a: autodiff.tsum(
        autodiff.gather0(a, np.array([0, 2, 2]))), (4,))
    check_op(lambda a: autodiff.tsum(autodiff.square(
        autodiff.reshape(a, (6,)))), (2, 3))


def test_gather_repeated_indices_accumulate():
    x = parameter(np.array([1.0, 2.0, 3.0]))
    y = autodiff.tsum(autodiff.gather0(x, np.array([1, 1, 1])))
    autodiff.backward(y)
    assert np.array_equal(x.grad, [0.0, 3.0, 0.0])


@pytest.mark.parametrize("shape,idx", [
    ((7,), [3, 0, 3, 6, 0]),
    ((5, 4), [4, 1, 4]),
    ((6, 3, 3), [1, 5, 1, 0]),
    ((5, 4), [[0, 2], [2, 2], [4, 1]]),  # 2-D ids, as the triplet tables
    ((4, 3), [2] * 200),  # a pairwise sum of the 200 rows would differ
    ((3, 2), np.zeros(0, dtype=int)),
], ids=["1d", "2d", "3d", "2d-ids", "repeated", "empty"])
def test_gather_gradient_is_the_add_at_loop_bit_for_bit(shape, idx):
    rng = np.random.default_rng(len(shape))
    idx = np.asarray(idx)
    # magnitudes over 16 decades, so that the summation order shows
    g = rng.normal(size=idx.shape + shape[1:]) * 10.0 ** rng.integers(
        -8, 8, size=idx.shape + shape[1:])
    got = autodiff.gather0(parameter(np.ones(shape)), idx)._vjp(g)[0]()
    assert got.shape == shape
    assert got.tobytes() == add_at_ref(shape, idx, g).tobytes()


def test_gather_gradient_of_negative_zeros_is_positive_zero():
    got = autodiff.gather0(parameter(np.ones((3, 2))), [0, 0, 2])._vjp(
        np.full((3, 2), -0.0))[0]()
    assert got.tobytes() == add_at_ref((3, 2), [0, 0, 2], np.full((3, 2), -0.0)).tobytes()
    assert not np.signbit(got).any()


def test_psd_inverse_gradients():
    # a stack of two SPD matrices m m^T + 4 I, weighted unevenly
    w = np.random.default_rng(7).normal(size=(2, 4, 4))

    def spd(m):
        return autodiff.add(autodiff.matmul(m, autodiff.transpose(m)), 4.0 * np.eye(4))

    check_op(lambda m: autodiff.tsum(autodiff.mul(psdlinalg.psd_inverse(spd(m)), w)),
             (2, 4, 4), seed=7)


def test_psd_inverse_of_diagonal_stack_and_failing_group():
    out = psdlinalg.psd_inverse(Tensor(np.stack([np.diag([4.0, 9.0]), np.eye(2)])))
    assert np.allclose(out.data, [np.diag([0.25, 1.0 / 9.0]), np.eye(2)])
    with pytest.raises(psdlinalg.NotPSD, match="^group 1: matrix not positive") as exc:
        psdlinalg.psd_inverse(Tensor(np.stack([np.eye(2), np.diag([1.0, -5.0])])))
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


def test_selected_group_gram_gradients():
    ids = np.array([1, 3, 4])
    w = np.random.default_rng(9).normal(size=(3, 4, 4))
    check_op(lambda b, log_ell, log_sf: autodiff.tsum(autodiff.mul(
        psdlinalg.group_gram_t(b, ids, log_ell, log_sf), w)), (6, 4, 3), (), (),
        seed=10)


def test_selected_group_gram_is_the_full_gram_under_a_zero_padded_gradient():
    # at the default codebook sizes, so that the hyperparameter sums run
    # numpy's pairwise summation over many blocks
    rng = np.random.default_rng(11)
    basis, ids = rng.normal(scale=0.4, size=(112, 16, 32)), np.array([3, 40, 41, 97])
    scalars = (np.array(0.3), np.array(-0.2))
    assert psdlinalg.group_gram_t(basis, ids, *scalars).data.tobytes() == (
        psdlinalg.kernel_matrix(basis, basis, *scalars)[ids].tobytes())
    b, log_ell, log_sf = (parameter(a) for a in (basis, *scalars))
    full = psdlinalg.kernel_matrix_t(b, b, log_ell, log_sf)
    part = psdlinalg.group_gram_t(b, ids, log_ell, log_sf)
    assert part.data.tobytes() == full.data[ids].tobytes()
    g = rng.normal(size=part.shape)
    padded = np.zeros(full.shape)
    padded[ids] = g
    # the thunks in backward's order: the log-lengthscale's after the rows'
    want = [thunk() for thunk in full._vjp(padded)]
    got = [thunk() for thunk in part._vjp(g)]
    assert [a.tobytes() for a in got[2:]] == [a.tobytes() for a in want[2:]]
    rest = np.setdiff1d(np.arange(len(basis)), ids)
    for a, ref in zip(got[:2], want[:2]):
        assert a[ids].tobytes() == ref[ids].tobytes()
        assert not a[rest].any() and not ref[rest].any()


@pytest.mark.parametrize("op,shapes", [
    (autodiff.add, [(3, 4), (4,)]),
    (autodiff.sub, [(3, 4), (3, 1)]),
    (autodiff.mul, [(2, 3), (2, 3)]),
    (autodiff.div, [(4,), (3, 4)]),
    (autodiff.matmul, [(2, 3, 4), (4, 5)]),
    (psdlinalg.kernel_matrix_t, [(2, 3, 4), (2, 5, 4), (), ()]),
], ids=["add", "sub", "mul", "div", "matmul", "kernel_matrix_t"])
def test_a_parents_gradient_does_not_depend_on_what_else_needs_one(op, shapes):
    rng = np.random.default_rng(8)
    arrays = [rng.uniform(0.5, 1.5, size=s) for s in shapes]
    w = rng.normal(size=op(*arrays).shape)

    def grads(needed):
        parents = [parameter(a) if i in needed else Tensor(a)
                   for i, a in enumerate(arrays)]
        autodiff.backward(autodiff.tsum(autodiff.mul(op(*parents), w)))
        return [p.grad for p in parents]

    every = grads(range(len(arrays)))
    for i in range(len(arrays)):
        alone = grads({i})
        assert alone[i].tobytes() == every[i].tobytes()
        assert all(g is None for j, g in enumerate(alone) if j != i)


# (fan_in, fan_out) of the six production layers at the default model sizes:
# encoder, planner and classifier, two layers each
LINEAR_LAYERS = [(24, 64), (64, 32), (32, 64), (64, 124), (1792, 128), (128, 112)]


@pytest.mark.parametrize("fan_in,fan_out", LINEAR_LAYERS)
@pytest.mark.parametrize("rows", [37, 160])
def test_linear_is_the_matmul_transpose_add_composition_bit_for_bit(fan_in, fan_out,
                                                                    rows):
    rng = np.random.default_rng(fan_in + fan_out + rows)
    arrays = [rng.normal(size=(rows, fan_in)), rng.normal(size=(fan_out, fan_in)),
              rng.normal(size=fan_out)]
    up = rng.normal(size=(rows, fan_out))

    def run(build):
        x, w, b = (parameter(a) for a in arrays)
        out = build(x, w, b)
        autodiff.backward(autodiff.tsum(autodiff.mul(out, up)))
        return [out.data] + [t.grad for t in (x, w, b)]

    got = run(autodiff.linear)
    want = run(lambda x, w, b: autodiff.add(
        autodiff.matmul(x, autodiff.transpose(w)), b))
    # the weight gradient: gᵀx against (xᵀg)ᵀ, equal on a BLAS that sums both
    # products in one order
    for name, a, b in zip(("forward", "x", "w", "b"), got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_linear_gradients_match_finite_differences():
    w = np.random.default_rng(9).normal(size=(5, 3))
    check_op(lambda x, wt, b: autodiff.tsum(autodiff.mul(
        autodiff.tanh(autodiff.linear(x, wt, b)), w)), (5, 4), (3, 4), (3,), seed=9)


def own_memory(*leaves: Tensor) -> bool:
    """Whether no two of the leaves' gradients share memory."""
    return not any(np.shares_memory(a.grad, b.grad)
                   for i, a in enumerate(leaves) for b in leaves[i + 1:])


def test_aliased_gradients_are_correct_and_not_shared():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(2, 3))
    # add(x, y): both parents take the same upstream array; add(x, x) sums it
    x, y = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=(2, 3)))
    autodiff.backward(autodiff.tsum(autodiff.mul(
        autodiff.add(autodiff.add(x, y), autodiff.add(x, x)), w)))
    assert np.array_equal(x.grad, 3.0 * w) and np.array_equal(y.grad, w)
    assert own_memory(x, y)
    # mul(x, x)
    x = parameter(rng.normal(size=(2, 3)))
    autodiff.backward(autodiff.tsum(autodiff.mul(autodiff.mul(x, x), w)))
    assert np.allclose(x.grad, 2.0 * x.data * w)
    # one tensor reached through two reshape views, beside a second leaf
    x, y = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=6))
    w6 = rng.normal(size=6)
    flat = autodiff.reshape(x, (6,))
    loss = autodiff.add(
        autodiff.tsum(autodiff.mul(autodiff.add(flat, y), w6)),
        autodiff.tsum(autodiff.mul(autodiff.reshape(x, (3, 2)), w.reshape(3, 2))))
    autodiff.backward(loss)
    assert np.array_equal(x.grad, w6.reshape(2, 3) + w)
    assert np.array_equal(y.grad, w6)
    assert own_memory(x, y)
    # a transpose chain whose views end in two leaves
    x, y = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=(3, 2)))
    tt = autodiff.transpose(autodiff.transpose(x))
    autodiff.backward(autodiff.tsum(autodiff.mul(
        autodiff.sub(autodiff.transpose(tt), y), w.T)))
    assert np.array_equal(x.grad, w) and np.array_equal(y.grad, -w.T)
    assert own_memory(x, y)


def test_shared_subexpression_accumulates():
    x = parameter(np.array(3.0))
    y = autodiff.add(autodiff.square(x), autodiff.mul(x, 2.0))  # x^2 + 2x
    autodiff.backward(y)
    assert np.allclose(x.grad, 2 * 3.0 + 2.0)


def test_repeated_and_broadcast_operands_get_their_own_gradient():
    x = parameter(np.array([1.0, -2.0, 3.0]))
    autodiff.backward(autodiff.tsum(autodiff.add(autodiff.add(x, x), x)))
    assert np.array_equal(x.grad, [3.0, 3.0, 3.0])
    x.grad = None
    autodiff.backward(autodiff.tsum(autodiff.mul(x, x)))
    assert np.array_equal(x.grad, 2.0 * x.data)
    a = parameter(np.ones((3, 4)))
    b = parameter(np.ones(4))
    autodiff.backward(autodiff.tsum(autodiff.mul(autodiff.add(a, b), a)))
    assert np.array_equal(a.grad, np.full((3, 4), 3.0))
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_constant_leaf_takes_no_gradient():
    x = parameter(np.array([1.0, 2.0]))
    c = Tensor(np.array([3.0, 4.0]))
    autodiff.backward(autodiff.tsum(autodiff.mul(autodiff.add(x, c), c)))
    assert np.array_equal(x.grad, [3.0, 4.0])
    assert c.grad is None


def test_a_float64_array_is_kept_and_other_data_becomes_a_new_float64_array():
    a = np.arange(6.0).reshape(2, 3)
    assert Tensor(a).data is a
    for data in ([[1, 2], [3, 4]], 2.5, 3, np.float64(1.5), np.float32([1.5, 2.5]),
                 np.arange(4), np.arange(3.0).astype(">f8")):
        t = Tensor(data)
        assert type(t.data) is np.ndarray and t.data.dtype == np.float64
        assert t.data is not data
        assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))


class CountingConstant(Tensor):
    """A constant that counts how often its parents are read."""

    __slots__ = ("reads",)

    @property
    def _parents(self):
        self.reads += 1
        return ()

    @_parents.setter
    def _parents(self, value):
        self.reads = 0


def test_the_walk_visits_no_constant_and_constants_take_no_gradient():
    rng = np.random.default_rng(3)
    x = parameter(rng.normal(size=(3, 4)))
    consts = [CountingConstant(rng.uniform(0.5, 1.5, size=(3, 4))) for _ in range(40)]
    y = x
    for c in consts:
        y = autodiff.add(autodiff.mul(y, c), c)
    grads = grad_map(autodiff.tsum(y), {"x": x})
    assert np.allclose(grads["x"], np.prod([c.data for c in consts], axis=0),
                       rtol=1e-12, atol=0)
    assert all(c.grad is None for c in consts)
    assert [c.reads for c in consts] == [0] * len(consts)


def test_constants_build_no_tape():
    # a frozen model's tensors are all constants, so inference records nothing
    x = Tensor(np.array([[1.0, 2.0], [0.5, -1.0]]))
    log_ell, log_sf = Tensor(np.array(0.1)), Tensor(np.array(-0.2))
    k = psdlinalg.kernel_matrix_t(x, x, log_ell, log_sf)
    y = autodiff.tsum(autodiff.square(autodiff.matmul(psdlinalg.psd_inverse(k), x)))
    for t in (k, y):
        assert t._parents == () and t._vjp is None and not t.requires_grad
    autodiff.backward(y)  # nothing to walk; leaves untouched
    assert x.grad is None and log_ell.grad is None and log_sf.grad is None


def test_grad_map_zero_for_unused():
    x = parameter(np.array([1.0, 2.0]))
    unused = parameter(np.array([5.0]))
    loss = autodiff.tsum(autodiff.square(x))
    grads = grad_map(loss, {"x": x, "unused": unused})
    assert np.allclose(grads["x"], [2.0, 4.0])
    assert np.array_equal(grads["unused"], [0.0])


def test_grad_writes_every_gradient_into_its_out_buffer():
    # stale buffers, as an optimizer's are after its step: every entry is
    # overwritten, with zeros for the parameter the tape never reaches
    rng = np.random.default_rng(8)
    params = {"w": parameter(rng.normal(size=(3, 2))), "b": parameter(rng.normal(size=2)),
              "off": parameter(rng.normal(size=4))}
    x = rng.normal(size=(5, 3))

    def loss():
        h = autodiff.add(autodiff.matmul(x, params["w"]), params["b"])
        return autodiff.tsum(autodiff.mul(h, autodiff.add(h, params["b"])))

    want = grad_map(loss(), params)
    out = {name: np.full(p.data.shape, np.nan) for name, p in params.items()}
    assert autodiff.grad(loss(), params, out=out) is out
    assert {name: b.tobytes() for name, b in out.items()} == {
        name: g.tobytes() for name, g in want.items()}
    assert not out["off"].any()
    assert params["w"].grad is out["w"] and params["off"].grad is None


def test_grad_rejects_nonscalar_and_nonfinite():
    x = parameter(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        autodiff.backward(autodiff.square(x))
    bad = Tensor(np.array(np.inf))
    with pytest.raises(FloatingPointError):
        grad_map(bad, {})
