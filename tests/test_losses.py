"""Loss closed forms, the brute-force triplet oracle, and gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj import autodiff, losses
from gptraj.autodiff import Tensor
from gptraj.codebook import init_basis_tokens, sample_and_cluster
from gptraj.losses import (DEFAULT_SIGMA_CLAMP, LossBreakdown, StudentRows,
                           SupRows, TeacherRows, cross_entropy,
                           heteroscedastic_nll, kl_divergence, loss_gp_teacher,
                           loss_rec, loss_sup, orthogonality,
                           select_triplet_classes, triplet_table, triplet_term)
from gptraj.trainer import Adam

from oracles import finite_difference, triplet_oracle

from test_codebook import corpus


@pytest.fixture(scope="module")
def cb():
    c = sample_and_cluster(corpus(), 12, 7, group_size=4, token_dim=5, seed=2)
    return init_basis_tokens(c, rng_seed=2)


def ego_rec(e, e_hat, var, basis):
    """loss_rec over one scene holding only its ego row, conditioned on group 0."""
    return loss_rec(np.array([e]), Tensor(np.array([e_hat])), Tensor(np.array([var])),
                    n_ego=1, groups=[0], scenes=[0], bases=[basis])


def test_recon_nll_zero_at_perfect_unit_variance():
    e = np.array([0.3, -0.2, 0.5])
    bd = ego_rec(e, e.copy(), 1.0, Tensor(np.eye(3)))
    assert bd.value("recon_ego") == pytest.approx(0.0)
    assert bd.value("ortho_ego") == pytest.approx(0.0)  # orthonormal rows


def test_recon_nll_unit_error_unit_variance():
    e = np.zeros(4)
    e_hat = np.array([1.0, 0.0, 0.0, 0.0])  # unit offset
    bd = ego_rec(e, e_hat, 1.0, Tensor(np.eye(4)))
    assert bd.value("recon_ego") == pytest.approx(1.0)


def test_recon_rejects_nonpositive_variance():
    with pytest.raises(ValueError, match="variance"):
        heteroscedastic_nll(Tensor(np.array(1.0)), Tensor(np.array(0.0)))


def test_ortho_nonzero_for_correlated_rows():
    b = np.array([[1.0, 0.0], [1.0, 0.1]])
    assert orthogonality(Tensor(b)).item() > 0.5


def test_ortho_deduplicates_shared_groups():
    basis = Tensor(np.eye(3) * 2.0)
    single = orthogonality(basis).item()
    # one scene: ego and both agents conditioned on the same group
    bd = loss_rec(np.zeros((3, 3)), Tensor(np.zeros((3, 3))), Tensor(np.ones(3)),
                  n_ego=1, groups=[0, 0, 0], scenes=[0, 0, 0], bases=[basis])
    assert bd.value("ortho_ego") == pytest.approx(single)
    assert bd.value("ortho_agent") == pytest.approx(0.0)


def all_admissible(cb, n_rows=1):
    return np.ones((n_rows, cb.n_code), dtype=bool)


def ego_sup(cb, pred, variance, logits, gt, label, token):
    """SupRows of a single ego row with the label's triplet classes."""
    pos, neg = select_triplet_classes(cb, label)
    return SupRows(n_ego=1, pred_mean=Tensor(np.array([pred])),
                   variance=Tensor(np.array([variance])),
                   logits=Tensor(np.array([logits])), admissible=all_admissible(cb),
                   gt=np.array([gt]), label=np.array([label]),
                   token=np.array([token]), positives=np.array([pos]),
                   negatives=np.array([neg]))


def test_plan_nll_closed_form(cb):
    # mean squared waypoint error 4, sigma = 2 -> 4/4 + log 2
    gt = np.zeros(12)
    pred = np.full(12, np.sqrt(2.0))  # each waypoint error^2 = 2+2 = 4
    rows = ego_sup(cb, pred, 4.0, np.zeros(cb.n_code), gt, 0, np.zeros(5))
    bd = loss_sup(rows, anchors=cb.token_anchors())
    assert bd.value("plan_nll") == pytest.approx(4.0 / 4.0 + np.log(2.0))


def test_class_ce_zero_temperature_limit(cb):
    logits = np.full(cb.n_code, -200.0)
    logits[3] = 200.0
    ce = cross_entropy(Tensor(logits[None, :]), all_admissible(cb), [3])
    assert ce.data.shape == (1,)
    assert ce.data[0] == pytest.approx(0.0, abs=1e-12)


def test_perfect_prediction_all_task_terms_zero(cb):
    gt = np.arange(12.0)
    pos, _ = select_triplet_classes(cb, 1)
    logits = np.full(cb.n_code, -50.0)
    logits[1] = 50.0
    token_far = cb.group(pos[0]).token_anchor  # at a positive anchor
    rows = ego_sup(cb, gt.copy(), 1.0, logits, gt, 1, token_far)
    bd = loss_sup(rows, anchors=cb.token_anchors())
    assert bd.value("plan_nll") == pytest.approx(0.0, abs=1e-12)
    assert bd.value("class_ce_ego") == pytest.approx(0.0, abs=1e-12)


def test_triplet_satisfied_margin_is_zero(cb):
    pos, neg = select_triplet_classes(cb, 0)
    anchor = cb.group(pos[0]).token_anchor.copy()
    # negatives far beyond the margin
    for gid in neg:
        cbg = cb.group(gid)
        cbg.basis_tokens = cbg.basis_tokens + 50.0
    try:
        [val] = triplet_term(anchor[None, :], np.array([pos]), np.array([neg]),
                             cb.token_anchors(), margin=1.0).data
        assert val == pytest.approx(0.0)
    finally:
        for gid in neg:
            cbg = cb.group(gid)
            cbg.basis_tokens = cbg.basis_tokens - 50.0


def test_triplet_equidistant_hinges_at_margin():
    anchors = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0]),
               2: np.array([-1.0, 0.0]), 3: np.array([0.0, -1.0]),
               4: np.array([1.0, 0.0]) / np.sqrt(2) + np.array([0.0, 1.0]) / np.sqrt(2),
               5: -np.array([1.0, 0.0]) / np.sqrt(2) - np.array([0.0, 1.0]) / np.sqrt(2)}
    table = np.stack([anchors[gid] for gid in range(6)])
    val = triplet_term(np.zeros((1, 2)), np.array([[0, 1, 2]]), np.array([[3, 4, 5]]),
                       table, margin=0.7)
    assert val.data[0] == pytest.approx(0.7, abs=1e-6)


def test_triplet_matches_bruteforce_oracle(cb):
    rng = np.random.default_rng(6)
    labels = rng.integers(cb.n_code, size=20)
    tokens = rng.normal(size=(20, 5))
    positives, negatives = triplet_table(cb)
    pos, neg = positives[labels], negatives[labels]
    got = triplet_term(tokens, pos, neg, cb.token_anchors(), margin=1.0).data
    for token, p, n, value in zip(tokens, pos, neg, got):
        want = triplet_oracle(token, [cb.group(g).token_anchor for g in p],
                              [cb.group(g).token_anchor for g in n], 1.0)
        assert value == pytest.approx(want, rel=1e-10)


def test_triplet_rejects_overlap(cb, monkeypatch):
    monkeypatch.setattr(losses, "select_triplet_classes",
                        lambda cb, label: ([0, 1, 2], [2, 3, 4]))
    with pytest.raises(ValueError, match="overlapping"):
        triplet_table(cb)


def test_select_triplet_classes_disjoint_and_admissible(cb):
    for label in range(cb.n_code):
        pos, neg = select_triplet_classes(cb, label)
        assert len(pos) == len(neg) == 3
        assert not set(pos) & set(neg)
        assert label not in pos and label not in neg
        role = cb.group(label).role
        if role.kind == "ego":
            assert all(cb.group(p).role == role for p in pos)
            assert all(cb.group(n).role.kind == "ego"
                       and cb.group(n).role.command != role.command for n in neg)
        else:
            assert all(cb.group(g).role.kind == "agent" for g in pos + neg)


def test_kl_identity_and_uniform_cases():
    adm = [2, 5, 7, 9]
    mask = np.zeros((1, 12), dtype=bool)
    mask[0, adm] = True
    logits = np.zeros(12)
    logits[adm] = [0.3, -0.1, 0.8, 0.2]
    assert kl_divergence(Tensor(logits[None]), logits[None].copy(), mask).data[0] \
        == pytest.approx(0.0, abs=1e-12)
    student = np.full(12, -300.0)
    student[adm[0]] = 300.0  # one-hot in the zero-temperature limit
    teacher = np.zeros(12)  # uniform over the 4 admissible groups
    kl = kl_divergence(Tensor(student[None]), teacher[None], mask)
    assert kl.data[0] == pytest.approx(np.log(4.0), abs=1e-9)


def _teacher_pair(cb, label, traj, logits, variance=1.0):
    pos, neg = select_triplet_classes(cb, label)
    teacher = TeacherRows(mean=traj[None], variance=np.array([variance]),
                          logits=logits[None], label=np.array([label]),
                          positives=np.array([pos]), negatives=np.array([neg]))
    token = cb.group(pos[0]).token_anchor
    student = StudentRows(n_ego=1, traj=Tensor(traj[None].copy()),
                          logits=Tensor(logits[None].copy()),
                          admissible=all_admissible(cb),
                          token=Tensor(token[None].copy()))
    return student, teacher


def test_teacher_self_distillation_fixed_point(cb):
    # identical outputs, peaked logits, sigma = 1, token at a positive anchor
    # with negatives beyond the margin: every term vanishes
    label = 0
    pos, neg = select_triplet_classes(cb, label)
    for gid in neg:
        cb.group(gid).basis_tokens = cb.group(gid).basis_tokens + 50.0
    try:
        logits = np.full(cb.n_code, -80.0)
        logits[label] = 80.0
        traj = np.linspace(0, 5, 12)
        student, teacher = _teacher_pair(cb, label, traj, logits)
        bd = loss_gp_teacher(student, teacher, anchors=cb.token_anchors())
        assert bd.total_value() == pytest.approx(0.0, abs=1e-10)
    finally:
        for gid in neg:
            cb.group(gid).basis_tokens = cb.group(gid).basis_tokens - 50.0


def test_teacher_admissible_mismatch_raises(cb):
    logits = np.zeros(cb.n_code)
    traj = np.zeros(12)
    student, teacher = _teacher_pair(cb, 0, traj, logits)
    student.admissible = np.zeros((1, cb.n_code), dtype=bool)
    student.admissible[0, [0, 1]] = True
    with pytest.raises(ValueError, match="admissible"):
        loss_gp_teacher(student, teacher, anchors=cb.token_anchors())


def test_total_is_weighted_sum():
    t = {"recon_ego": Tensor(np.array(2.0)), "plan_nll": Tensor(np.array(3.0))}
    bd = LossBreakdown(terms=t, weights={"recon_ego": 0.5})
    assert bd.total_value() == pytest.approx(0.5 * 2.0 + 3.0)


def test_loss_bounded_below_under_clamp():
    lo, hi = DEFAULT_SIGMA_CLAMP
    floor = np.log(lo)  # task >= 0, so log sigma bounds the term from below
    for var in (1e-12, 1e-4, 1.0, 1e8):
        val = heteroscedastic_nll(Tensor(np.array(0.0)),
                                  Tensor(np.array(var))).item()
        assert val >= floor - 1e-12


def test_optimal_sigma_squared_is_twice_task_loss():
    # analytic optimum of L/sigma^2 + log sigma at sigma^2 = 2L
    task = 2.0
    theta = autodiff.parameter(np.array(0.0))  # log sigma
    opt = Adam({"theta": theta}, lr=1e-2)
    for _ in range(500):
        sigma = autodiff.exp(theta)
        loss = autodiff.add(autodiff.div(task, autodiff.square(sigma)),
                            autodiff.log(sigma))
        grads = autodiff.grad(loss, {"theta": theta})
        opt.step(grads)
    sigma_sq = float(np.exp(2 * theta.data))
    assert abs(sigma_sq - 2 * task) / (2 * task) < 0.05


def test_loss_rec_gradients_match_fd(cb):
    rng = np.random.default_rng(3)
    gid = 0
    e = rng.normal(size=5)
    basis = autodiff.parameter(cb.group(gid).basis_tokens)
    log_noise = autodiff.parameter(np.array(np.log(0.3)))

    def build():
        anchor = autodiff.tmean(basis, axis=0)
        centered = autodiff.sub(basis, autodiff.reshape(anchor, (1, -1)))
        from gptraj.psdlinalg import kernel_matrix_t
        zero = Tensor(np.array(0.0))
        k_bb = kernel_matrix_t(basis, basis, zero, zero)
        k_star = autodiff.reshape(
            kernel_matrix_t(autodiff.reshape(Tensor(e), (1, -1)), basis, zero, zero),
            (-1,))
        k_inv = autodiff.psd_inverse(k_bb)
        e_hat = autodiff.add(anchor, autodiff.matmul(
            k_star, autodiff.matmul(k_inv, centered)))
        quad = autodiff.matmul(k_star, autodiff.matmul(k_inv, k_star))
        var = autodiff.add(autodiff.relu(autodiff.sub(Tensor(np.array(1.0)), quad)),
                           autodiff.exp(autodiff.mul(log_noise, 2.0)))
        return loss_rec(e[None], autodiff.reshape(e_hat, (1, -1)),
                        autodiff.reshape(var, (1,)), n_ego=1, groups=[0],
                        scenes=[0], bases=[basis]).total

    loss = build()
    grads = autodiff.grad(loss, {"basis": basis, "log_noise": log_noise})
    fds = finite_difference(lambda: build().item(),
                            {"basis": basis.data, "log_noise": log_noise.data})
    for name, fd in fds.items():
        denom = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(grads[name] - fd) / denom) < 1e-4
