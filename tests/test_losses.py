"""Loss closed forms, the brute-force triplet oracle, and gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj import autodiff, losses
from gptraj.autodiff import Tensor
from gptraj.codebook import Codebook, sample_and_cluster, triplet_table
from gptraj.losses import (SIGMA_CLAMP, TRIPLET_MARGIN, MaskedLogSoftmax, SupRows,
                           cross_entropy, heteroscedastic_nll, kl_divergence,
                           loss_gp_teacher, loss_rec, loss_sup, orthogonality,
                           role_sums, step_total, teacher_log_softmax, traj_mse,
                           triplet_term)
from gptraj.trainer import Adam

import composed
from composed import (composed_ce, composed_kl, composed_nll, composed_role_sums,
                      composed_total, composed_traj_mse, composed_triplet)
from conftest import grad_map, parameter
from oracles import (basis_tokens_ref, finite_difference, triplet_classes_ref,
                     triplet_oracle)

from test_codebook import corpus


@pytest.fixture(scope="module")
def cb():
    trajs = sample_and_cluster(*corpus(), 12, 7, group_size=4, seed=2)
    return Codebook(trajs, 12)


@pytest.fixture(scope="module")
def cb_basis(cb):
    """Basis tokens (D = 5) for the codebook's groups."""
    return basis_tokens_ref(2, cb.n_code, cb.group_size, 5)


def ego_rec(e, e_hat, var, basis):
    """loss_rec over one scene holding only its ego row, conditioned on group 0
    of a one-group codebook with this (C, D) basis."""
    return loss_rec(np.array([e]), Tensor(np.array([e_hat])), Tensor(np.array([var])),
                    n_ego=1, groups=[0], scenes=[0], basis=Tensor(basis[None]))


def test_recon_nll_zero_at_perfect_unit_variance():
    e = np.array([0.3, -0.2, 0.5])
    terms = ego_rec(e, e.copy(), 1.0, np.eye(3))
    assert terms["recon_ego"].item() == pytest.approx(0.0)
    assert terms["ortho_ego"].item() == pytest.approx(0.0)  # orthonormal rows


def test_recon_nll_unit_error_unit_variance():
    e = np.zeros(4)
    e_hat = np.array([1.0, 0.0, 0.0, 0.0])  # unit offset
    terms = ego_rec(e, e_hat, 1.0, np.eye(4))
    assert terms["recon_ego"].item() == pytest.approx(1.0)


def test_recon_rejects_nonpositive_variance():
    with pytest.raises(ValueError, match="variance"):
        heteroscedastic_nll(Tensor(np.array(1.0)), Tensor(np.array(0.0)))


def test_ortho_nonzero_for_correlated_rows():
    b = np.array([[1.0, 0.0], [1.0, 0.1]])
    assert orthogonality(Tensor(b[None])).data[0] > 0.5


def test_ortho_matches_per_group_frobenius(cb_basis):
    want = [np.sum((b @ b.T - np.eye(len(b))) ** 2) for b in cb_basis]
    assert np.allclose(orthogonality(Tensor(cb_basis)).data, want, rtol=1e-12)


def test_ortho_deduplicates_shared_groups():
    basis = Tensor(np.eye(3)[None] * 2.0)
    single = orthogonality(basis).data[0]
    # one scene: ego and both agents conditioned on the same group
    terms = loss_rec(np.zeros((3, 3)), Tensor(np.zeros((3, 3))), Tensor(np.ones(3)),
                  n_ego=1, groups=[0, 0, 0], scenes=[0, 0, 0], basis=basis)
    assert terms["ortho_ego"].item() == pytest.approx(single)
    assert terms["ortho_agent"].item() == pytest.approx(0.0)


def test_ortho_counts_match_per_scene_loop(cb_basis):
    # each scene counts its ego group once in ortho_ego, and each other
    # distinct group among its agents once in ortho_agent
    rng = np.random.default_rng(11)
    n_scenes = 6
    agent_scenes = np.sort(rng.integers(n_scenes, size=20))
    scenes = np.concatenate([np.arange(n_scenes), agent_scenes])
    groups = rng.integers(4, size=len(scenes))  # few groups, so many repeats
    n = len(scenes)
    terms = loss_rec(np.zeros((n, 5)), Tensor(np.zeros((n, 5))), Tensor(np.ones(n)),
                  n_ego=n_scenes, groups=groups, scenes=scenes, basis=Tensor(cb_basis))
    ortho = orthogonality(Tensor(cb_basis)).data
    want_ego = want_agent = 0.0
    for s in range(n_scenes):
        ego = groups[s]
        want_ego += ortho[ego]
        for g in set(groups[n_scenes:][agent_scenes == s]) - {ego}:
            want_agent += ortho[g]
    assert terms["ortho_ego"].item() == pytest.approx(want_ego, rel=1e-12)
    assert terms["ortho_agent"].item() == pytest.approx(want_agent, rel=1e-12)


def all_admissible(cb, n_rows=1):
    return np.ones((n_rows, cb.n_code), dtype=bool)


def ego_sup(cb, pred, variance, logits, gt, label, token):
    """SupRows of a single ego row with the label's triplet classes."""
    pos, neg = triplet_classes_ref(cb, label)
    return SupRows(traj=Tensor(np.array([pred])), target=np.array([gt]),
                   variance=Tensor(np.array([variance])),
                   ls=MaskedLogSoftmax(Tensor(np.array([logits])), all_admissible(cb)),
                   label=np.array([label]), token=np.array([token]),
                   positives=np.array([pos]), negatives=np.array([neg]), n_ego=1)


def test_plan_nll_closed_form(cb, cb_basis):
    # mean squared waypoint error 4, sigma = 2 -> 4/4 + log 2
    gt = np.zeros(12)
    pred = np.full(12, np.sqrt(2.0))  # each waypoint error^2 = 2+2 = 4
    rows = ego_sup(cb, pred, 4.0, np.zeros(cb.n_code), gt, 0, np.zeros(5))
    terms = loss_sup(rows, anchors=cb_basis.mean(axis=1))
    assert terms["plan_nll"].item() == pytest.approx(4.0 / 4.0 + np.log(2.0))


def test_class_ce_zero_temperature_limit(cb):
    logits = np.full(cb.n_code, -200.0)
    logits[3] = 200.0
    ce = cross_entropy(MaskedLogSoftmax(Tensor(logits[None, :]), all_admissible(cb)), [3])
    assert ce.data.shape == (1,)
    assert ce.data[0] == pytest.approx(0.0, abs=1e-12)


def test_perfect_prediction_all_task_terms_zero(cb, cb_basis):
    gt = np.arange(12.0)
    pos, _ = triplet_classes_ref(cb, 1)
    logits = np.full(cb.n_code, -50.0)
    logits[1] = 50.0
    token_far = cb_basis.mean(axis=1)[pos[0]]  # at a positive anchor
    rows = ego_sup(cb, gt.copy(), 1.0, logits, gt, 1, token_far)
    terms = loss_sup(rows, anchors=cb_basis.mean(axis=1))
    assert terms["plan_nll"].item() == pytest.approx(0.0, abs=1e-12)
    assert terms["class_ce_ego"].item() == pytest.approx(0.0, abs=1e-12)


def test_triplet_satisfied_margin_is_zero(cb, cb_basis):
    pos, neg = triplet_classes_ref(cb, 0)
    anchor = cb_basis.mean(axis=1)[pos[0]]
    cb_basis[neg] += 50.0  # negatives far beyond the margin
    try:
        [val] = triplet_term(anchor[None, :], np.array([pos]), np.array([neg]),
                             cb_basis.mean(axis=1)).data
        assert val == pytest.approx(0.0)
    finally:
        cb_basis[neg] -= 50.0


def test_triplet_equidistant_hinges_at_margin():
    anchors = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0]),
               2: np.array([-1.0, 0.0]), 3: np.array([0.0, -1.0]),
               4: np.array([1.0, 0.0]) / np.sqrt(2) + np.array([0.0, 1.0]) / np.sqrt(2),
               5: -np.array([1.0, 0.0]) / np.sqrt(2) - np.array([0.0, 1.0]) / np.sqrt(2)}
    table = np.stack([anchors[gid] for gid in range(6)])
    val = triplet_term(np.zeros((1, 2)), np.array([[0, 1, 2]]), np.array([[3, 4, 5]]),
                       table)
    assert val.data[0] == pytest.approx(TRIPLET_MARGIN, abs=1e-6)


def test_triplet_matches_bruteforce_oracle(cb, cb_basis):
    rng = np.random.default_rng(6)
    labels = rng.integers(cb.n_code, size=20)
    tokens = rng.normal(size=(20, 5))
    positives, negatives = triplet_table(cb)
    pos, neg = positives[labels], negatives[labels]
    got = triplet_term(tokens, pos, neg, cb_basis.mean(axis=1)).data
    for token, p, n, value in zip(tokens, pos, neg, got):
        want = triplet_oracle(token, list(cb_basis.mean(axis=1)[p]),
                              list(cb_basis.mean(axis=1)[n]), 1.0)
        assert value == pytest.approx(want, rel=1e-10)


def test_kl_identity_and_uniform_cases():
    adm = [2, 5, 7, 9]
    mask = np.zeros((1, 12), dtype=bool)
    mask[0, adm] = True
    logits = np.zeros(12)
    logits[adm] = [0.3, -0.1, 0.8, 0.2]
    assert kl_divergence(MaskedLogSoftmax(Tensor(logits[None]), mask),
                         teacher_log_softmax(logits[None], mask)).data[0] == pytest.approx(
        0.0, abs=1e-12)
    student = np.full(12, -300.0)
    student[adm[0]] = 300.0  # one-hot in the zero-temperature limit
    teacher = np.zeros(12)  # uniform over the 4 admissible groups
    kl = kl_divergence(MaskedLogSoftmax(Tensor(student[None]), mask),
                       teacher_log_softmax(teacher[None], mask))
    assert kl.data[0] == pytest.approx(np.log(4.0), abs=1e-9)


def _teacher_rows(cb, cb_basis, label, traj, logits, variance=1.0):
    """A single ego row whose student outputs equal the teacher's targets,
    its token at the label's first positive anchor."""
    pos, neg = triplet_classes_ref(cb, label)
    token = cb_basis.mean(axis=1)[pos[0]]
    return SupRows(traj=Tensor(traj[None].copy()), target=traj[None],
                   variance=np.array([variance]),
                   ls=MaskedLogSoftmax(Tensor(logits[None].copy()), all_admissible(cb)),
                   label=np.array([label]),
                   token=Tensor(token[None].copy()), positives=np.array([pos]),
                   negatives=np.array([neg]), n_ego=1)


def test_teacher_self_distillation_fixed_point(cb, cb_basis):
    # identical outputs, peaked logits, sigma = 1, token at a positive anchor
    # with negatives beyond the margin: every term vanishes
    label = 0
    pos, neg = triplet_classes_ref(cb, label)
    cb_basis[neg] += 50.0
    try:
        logits = np.full(cb.n_code, -80.0)
        logits[label] = 80.0
        traj = np.linspace(0, 5, 12)
        rows = _teacher_rows(cb, cb_basis, label, traj, logits)
        terms = loss_gp_teacher(rows, teacher_log_softmax(logits[None], all_admissible(cb)),
                                anchors=cb_basis.mean(axis=1))
        assert step_total(terms, {}, 1)[0].item() == pytest.approx(0.0, abs=1e-10)
    finally:
        cb_basis[neg] -= 50.0


def test_total_is_weighted_sum():
    t = {"recon_ego": Tensor(np.array(2.0)), "plan_nll": Tensor(np.array(3.0))}
    total, values = step_total(t, {"recon_ego": 0.5}, 2, gp_weight=4.0, taught=("plan_nll",))
    assert total.item() == pytest.approx((0.5 * 2.0 + 4.0 * 3.0) / 2)
    assert values.tolist() == [2.0, 12.0]


def test_loss_bounded_below_under_clamp():
    lo, hi = SIGMA_CLAMP
    floor = np.log(lo)  # task >= 0, so log sigma bounds the term from below
    for var in (1e-12, 1e-4, 1.0, 1e8):
        val = heteroscedastic_nll(Tensor(np.array(0.0)),
                                  Tensor(np.array(var))).item()
        assert val >= floor - 1e-12


def test_optimal_sigma_squared_is_twice_task_loss():
    # analytic optimum of L/sigma^2 + log sigma at sigma^2 = 2L
    task = 2.0
    theta = parameter(np.array(0.0))  # log sigma
    opt = Adam({"theta": theta}, lr=1e-2)
    for _ in range(500):
        sigma = autodiff.exp(theta)
        loss = autodiff.add(composed.div(task, autodiff.square(sigma)),
                            composed.log(sigma))
        autodiff.grad(loss, {"theta": theta}, out=opt.grads)
        opt.step()
    sigma_sq = float(np.exp(2 * theta.data))
    assert abs(sigma_sq - 2 * task) / (2 * task) < 0.05


def test_loss_rec_gradients_match_fd(cb_basis):
    rng = np.random.default_rng(3)
    gid = 0
    e = rng.normal(size=5)
    basis = parameter(cb_basis[gid])
    log_noise = parameter(np.array(np.log(0.3)))

    def build():
        anchor = autodiff.tmean(basis, axis=0)
        centered = autodiff.sub(basis, autodiff.reshape(anchor, (1, -1)))
        from gptraj.psdlinalg import kernel_matrix_t, psd_inverse
        zero = Tensor(np.array(0.0))
        k_bb = kernel_matrix_t(basis, basis, zero, zero)
        k_star = kernel_matrix_t(autodiff.reshape(Tensor(e), (1, -1)), basis, zero, zero)
        k_inv = psd_inverse(k_bb)
        e_hat = autodiff.add(anchor, autodiff.matmul(
            k_star, autodiff.matmul(k_inv, centered)))
        quad = autodiff.matmul(k_star, autodiff.matmul(k_inv, autodiff.transpose(k_star)))
        var = autodiff.add(autodiff.relu(autodiff.sub(Tensor(np.array(1.0)), quad)),
                           autodiff.exp(autodiff.mul(log_noise, 2.0)))
        return step_total(loss_rec(
            e[None], autodiff.reshape(e_hat, (1, -1)), autodiff.reshape(var, (1,)),
            n_ego=1, groups=[0], scenes=[0], basis=autodiff.reshape(basis, (1, 4, 5))),
            {}, 1)[0]

    loss = build()
    grads = grad_map(loss, {"basis": basis, "log_noise": log_noise})
    fds = finite_difference(lambda: build().item(),
                            {"basis": basis.data, "log_noise": log_noise.data})
    for name, fd in fds.items():
        denom = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(grads[name] - fd) / denom) < 1e-4


# --- one-node losses against the composed primitive chains they replace ------


@pytest.fixture(scope="module")
def class_rows():
    """Logits over 112 groups for rows admitting 16, 64 and 1 groups, some
    tied at the row max; teacher logits -inf outside each row's set; labels
    in the set; upstream gradients with negative entries and a zero."""
    rng = np.random.default_rng(5)
    sizes = [16, 64, 1, 16, 64, 16, 64, 1, 16]
    admissible = np.zeros((len(sizes), 112), dtype=bool)
    logits = rng.normal(scale=3.0, size=admissible.shape)
    labels = []
    for i, k in enumerate(sizes):
        ids = rng.choice(112, size=k, replace=False)
        admissible[i, ids] = True
        if i % 3 == 0 and k > 1:  # ties at the row max
            logits[i, ids[:2]] = logits[i, ids].max() + 1.0
        labels.append(ids[-1])
    teacher = np.where(admissible, rng.normal(scale=2.0, size=admissible.shape), -np.inf)
    upstream = [rng.normal(size=len(sizes)) for _ in range(3)]
    upstream[0][[1, 4]] = [-0.0, 0.0]
    return logits, admissible, np.array(labels), teacher, upstream


def test_class_nodes_give_the_bytes_of_the_composed_chains(class_rows):
    logits, admissible, labels, teacher, upstream = class_rows

    def run(consumers):
        # each consumer's rows weighted by an upstream gradient, one grad call
        x = parameter(logits)
        outs = consumers(x)
        root = Tensor(0.0)
        for out, g in zip(outs, upstream):
            root = autodiff.add(root, autodiff.tsum(autodiff.mul(out, g)))
        return [out.data.tobytes() for out in outs], grad_map(root, {"x": x})["x"].tobytes()

    taught = np.argmax(teacher, axis=1)  # the teacher's classes

    def nodes(x):
        ls = MaskedLogSoftmax(x, admissible)
        return [cross_entropy(ls, labels), cross_entropy(ls, taught),
                kl_divergence(ls, teacher_log_softmax(teacher, admissible))]

    def composed(x):
        return [composed_ce(x, admissible, labels), composed_ce(x, admissible, taught),
                composed_kl(x, teacher, admissible)]

    for pick in ([0], [2], [0, 1, 2]):  # alone, and three consumers of one forward
        assert run(lambda x: [nodes(x)[i] for i in pick]) == \
            run(lambda x: [composed(x)[i] for i in pick]), pick


def test_total_node_gives_the_bytes_of_the_composed_sum():
    coef = np.random.default_rng(8).normal(size=(5, 7))
    weights = {"base_plan": 0.0, "plan_nll": 2.5}  # kl_ego, recon_ego unnamed
    taught = ("plan_nll", "kl_ego")
    names = ["base_plan", "plan_nll", "recon_ego", "kl_ego", "triplet_agent"]

    def run(total_of):
        x = parameter(coef[0] * 0.7 - 0.2)
        terms = {n: autodiff.tsum(autodiff.mul(x, c)) for n, c in zip(names, coef)}
        total, values = total_of(terms)
        return total.data.tobytes(), values, grad_map(total, {"x": x})["x"].tobytes()

    # (1/7 * 2.5) * 0.7 and (1/7 * 0.7) * 2.5 round apart: the order shows
    got = run(lambda terms: step_total(terms, weights, 7, 0.7, taught))
    want = run(lambda terms: (
        composed_total(terms, weights, 7, 0.7, taught),
        np.array([(autodiff.mul(t, 0.7) if n in taught else t).item()
                  for n, t in terms.items()])))
    assert got[0] == want[0] and got[2] == want[2]
    assert got[1].tobytes() == want[1].tobytes()


# --- one-node loss families against their composed chains -------------------


def node_bytes(build, arrays: dict, needed, seed: int = 0, extra=None) -> list[bytes]:
    """The bytes of the outputs of ``build(**tensors)`` and of the gradients
    of the arrays named in ``needed`` (parameters; the others are constants)
    from one ``grad`` call, whose root weights each output by a seeded
    upstream with negative entries. ``extra``, if given, is (where, term):
    ``term(tensors)`` is one more term of the root, added before the
    outputs' terms when ``where`` is "first" and after them otherwise."""
    rng = np.random.default_rng(seed)
    tensors = {n: parameter(a) if n in needed else Tensor(a) for n, a in arrays.items()}
    outs = build(**tensors)
    outs = outs if isinstance(outs, tuple) else (outs,)
    terms = [autodiff.tsum(autodiff.mul(out, rng.normal(size=out.shape))) for out in outs]
    if extra is not None:
        where, term = extra
        terms.insert(0 if where == "first" else len(terms), term(tensors))
    root = terms[0]
    for t in terms[1:]:
        root = autodiff.add(root, t)
    grads = grad_map(root, {n: tensors[n] for n in needed})
    return [o.data.tobytes() for o in outs] + [grads[n].tobytes() for n in needed]


def assert_same_bytes(node, chain, arrays, needed, **kw):
    got, want = node_bytes(node, arrays, needed, **kw), node_bytes(chain, arrays, needed, **kw)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, i


@pytest.mark.parametrize("n_ego", [0, 1, 5, 9], ids=["no-ego", "one-ego", "mixed", "no-agent"])
def test_role_sums_give_the_bytes_of_the_composed_chain(n_ego):
    per_row = np.random.default_rng(n_ego).normal(size=9)
    assert_same_bytes(lambda x: role_sums(autodiff.mul(x, 1.5), n_ego),
                      lambda x: composed_role_sums(autodiff.mul(x, 1.5), n_ego),
                      {"x": per_row}, ["x"])


@pytest.mark.parametrize("rows", [1, 7, 40])
def test_traj_mse_gives_the_bytes_of_the_composed_chain(rows):
    rng = np.random.default_rng(rows)
    gt = rng.normal(size=(rows, 12))
    assert_same_bytes(lambda pred: traj_mse(pred, gt),
                      lambda pred: composed_traj_mse(pred, gt),
                      {"pred": rng.normal(size=(rows, 12)) * 3.0}, ["pred"])


def nll_rows(rows: int, lo: float, hi: float) -> dict:
    """Task losses and variances whose roots fall below, at, inside and above
    the band [lo, hi] (roots exact at the bounds)."""
    rng = np.random.default_rng(rows)
    variance = np.exp(rng.uniform(np.log(lo * lo) - 2, np.log(hi * hi) + 2, size=rows))
    variance[:2] = lo * lo, hi * hi
    return {"task": rng.uniform(0.0, 4.0, size=rows), "variance": variance}


@pytest.mark.parametrize("needed", [["task", "variance"], ["task"], ["variance"]],
                         ids=["both", "constant-variance", "constant-task"])
def test_nll_gives_the_bytes_of_the_composed_chain(needed, monkeypatch):
    lo, hi = 0.5, 4.0
    arrays = nll_rows(41, lo, hi)
    assert np.sqrt(arrays["variance"][:2]).tolist() == [lo, hi]
    # a narrow band, so that roots fall below, at, inside and above it
    for band in ((lo, hi), SIGMA_CLAMP):
        monkeypatch.setattr(losses, "SIGMA_CLAMP", band)
        assert_same_bytes(lambda task, variance: heteroscedastic_nll(task, variance),
                          lambda task, variance: composed_nll(task, variance),
                          arrays, needed)


def triplet_arrays(rows: int, n_code: int = 11, dim: int = 5, k: int = 3):
    """Token rows and an anchor table, by name, and (rows, k) positive and
    negative ids into the table."""
    rng = np.random.default_rng(rows + n_code)
    arrays = {"tokens": rng.normal(size=(rows, dim)), "table": rng.normal(size=(n_code, dim))}
    return arrays, rng.integers(n_code, size=(rows, k)), rng.integers(n_code, size=(rows, k))


@pytest.mark.parametrize("needed", [["tokens", "table"], ["tokens"], ["table"]],
                         ids=["both", "teacher", "stage2"])
@pytest.mark.parametrize("rows", [1, 9, 40])
def test_triplet_gives_the_bytes_of_the_composed_chain(rows, needed):
    arrays, pos, neg = triplet_arrays(rows)

    def of(fn):
        return lambda tokens, table: fn(tokens, pos, neg, table)

    assert_same_bytes(of(triplet_term), of(composed_triplet), arrays, needed)
    # a third consumer of the table, whose gradient joins the two gathered
    # ones before or after them, so that their order shows
    w = np.random.default_rng(rows).normal(size=arrays["table"].shape)
    for where in ("first", "last"):
        extra = (where, lambda t: autodiff.tsum(autodiff.mul(autodiff.square(t["table"]), w)))
        assert_same_bytes(of(triplet_term), of(composed_triplet), arrays, needed,
                          extra=extra)


def test_triplet_hinge_at_exactly_zero(monkeypatch):
    # negative 4 is positive 0's anchor and the margin is 0: that pair's
    # hinge input is exactly 0, so it adds nothing and passes no gradient
    monkeypatch.setattr(losses, "TRIPLET_MARGIN", 0.0)
    arrays = triplet_arrays(2, n_code=6, dim=4)[0]
    arrays["table"][4] = arrays["table"][0]
    pos, neg = np.array([[0], [1]]), np.array([[4], [5]])
    assert triplet_term(arrays["tokens"], pos, neg, arrays["table"]).data[0] == 0.0

    def of(fn):
        return lambda tokens, table: fn(tokens, np.array([[0, 1], [1, 2]]),
                                        np.array([[4, 5], [5, 4]]), table)

    assert_same_bytes(of(triplet_term), of(composed_triplet), arrays, ["tokens", "table"])
    x = parameter(arrays["tokens"])
    grads = grad_map(autodiff.tsum(triplet_term(x, pos, neg, arrays["table"])), {"x": x})
    assert not grads["x"][0].any()


def fd_check(build, arrays: dict, tol: float = 1e-6):
    """``build``'s gradients of a seeded weighting of its rows against
    central differences."""
    params = {n: parameter(a) for n, a in arrays.items()}
    w = np.random.default_rng(1).normal(size=build(**params).shape)
    got = grad_map(autodiff.tsum(autodiff.mul(build(**params), w)), params)
    fds = finite_difference(
        lambda: float(np.sum(build(**{n: Tensor(p.data) for n, p in params.items()}).data * w)),
        {n: p.data for n, p in params.items()}, h=1e-6)
    for name, fd in fds.items():
        assert np.allclose(got[name], fd, rtol=1e-5, atol=tol), name


def test_triplet_gradients_match_finite_differences():
    arrays, pos, neg = triplet_arrays(6)
    fd_check(lambda tokens, table: triplet_term(tokens, pos, neg, table), arrays)


def test_nll_gradients_match_finite_differences(monkeypatch):
    # a narrow band, with the two roots at the bounds moved inside it: the
    # clamp has no derivative at its bounds
    monkeypatch.setattr(losses, "SIGMA_CLAMP", (0.5, 4.0))
    arrays = nll_rows(12, 0.5, 4.0)
    arrays["variance"][:2] = 0.3, 1.7
    fd_check(lambda task, variance: heteroscedastic_nll(task, variance), arrays)


def test_teacher_log_softmax_rows_do_not_depend_on_the_other_rows():
    # at the default sizes: 112 groups, 16 admissible to an ego row and 64
    # to an agent row, logits -inf outside
    rng = np.random.default_rng(4)
    buckets = np.repeat(np.arange(4), [16, 16, 16, 64])
    admissible = rng.integers(4, size=(300, 1)) == buckets
    logits = np.where(admissible, rng.normal(scale=3.0, size=admissible.shape), -np.inf)
    whole = teacher_log_softmax(logits, admissible)
    for n in (1, 7, 32, 300):
        rows = np.sort(rng.choice(300, size=n, replace=False))
        own = teacher_log_softmax(logits[rows], admissible[rows])
        assert whole[rows].tobytes() == own.tobytes(), n
