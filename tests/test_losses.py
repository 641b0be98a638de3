"""Loss closed forms, the brute-force triplet oracle, and gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj import autodiff
from gptraj.autodiff import Tensor
from gptraj.codebook import Codebook, sample_and_cluster, triplet_table
from gptraj.losses import (DEFAULT_SIGMA_CLAMP, MaskedLogSoftmax, SupRows,
                           cross_entropy, heteroscedastic_nll, kl_divergence,
                           loss_gp_teacher, loss_rec, loss_sup, orthogonality,
                           step_total, triplet_term)
from gptraj.trainer import Adam

from conftest import grad_map, parameter
from oracles import (basis_tokens_ref, finite_difference, triplet_classes_ref,
                     triplet_oracle)

from test_codebook import corpus


@pytest.fixture(scope="module")
def cb():
    trajs = sample_and_cluster(*corpus(), 12, 7, group_size=4, seed=2)
    return Codebook(trajs, basis_tokens_ref(2, len(trajs), 4, 5), 12)


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


def test_ortho_matches_per_group_frobenius(cb):
    want = [np.sum((b @ b.T - np.eye(len(b))) ** 2) for b in cb.basis]
    assert np.allclose(orthogonality(Tensor(cb.basis)).data, want, rtol=1e-12)


def test_ortho_deduplicates_shared_groups():
    basis = Tensor(np.eye(3)[None] * 2.0)
    single = orthogonality(basis).data[0]
    # one scene: ego and both agents conditioned on the same group
    terms = loss_rec(np.zeros((3, 3)), Tensor(np.zeros((3, 3))), Tensor(np.ones(3)),
                  n_ego=1, groups=[0, 0, 0], scenes=[0, 0, 0], basis=basis)
    assert terms["ortho_ego"].item() == pytest.approx(single)
    assert terms["ortho_agent"].item() == pytest.approx(0.0)


def test_ortho_counts_match_per_scene_loop(cb):
    # each scene counts its ego group once in ortho_ego, and each other
    # distinct group among its agents once in ortho_agent
    rng = np.random.default_rng(11)
    n_scenes = 6
    agent_scenes = np.sort(rng.integers(n_scenes, size=20))
    scenes = np.concatenate([np.arange(n_scenes), agent_scenes])
    groups = rng.integers(4, size=len(scenes))  # few groups, so many repeats
    n = len(scenes)
    terms = loss_rec(np.zeros((n, 5)), Tensor(np.zeros((n, 5))), Tensor(np.ones(n)),
                  n_ego=n_scenes, groups=groups, scenes=scenes, basis=Tensor(cb.basis))
    ortho = orthogonality(Tensor(cb.basis)).data
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


def test_plan_nll_closed_form(cb):
    # mean squared waypoint error 4, sigma = 2 -> 4/4 + log 2
    gt = np.zeros(12)
    pred = np.full(12, np.sqrt(2.0))  # each waypoint error^2 = 2+2 = 4
    rows = ego_sup(cb, pred, 4.0, np.zeros(cb.n_code), gt, 0, np.zeros(5))
    terms = loss_sup(rows, anchors=cb.basis.mean(axis=1))
    assert terms["plan_nll"].item() == pytest.approx(4.0 / 4.0 + np.log(2.0))


def test_class_ce_zero_temperature_limit(cb):
    logits = np.full(cb.n_code, -200.0)
    logits[3] = 200.0
    ce = cross_entropy(MaskedLogSoftmax(Tensor(logits[None, :]), all_admissible(cb)), [3])
    assert ce.data.shape == (1,)
    assert ce.data[0] == pytest.approx(0.0, abs=1e-12)


def test_perfect_prediction_all_task_terms_zero(cb):
    gt = np.arange(12.0)
    pos, _ = triplet_classes_ref(cb, 1)
    logits = np.full(cb.n_code, -50.0)
    logits[1] = 50.0
    token_far = cb.basis.mean(axis=1)[pos[0]]  # at a positive anchor
    rows = ego_sup(cb, gt.copy(), 1.0, logits, gt, 1, token_far)
    terms = loss_sup(rows, anchors=cb.basis.mean(axis=1))
    assert terms["plan_nll"].item() == pytest.approx(0.0, abs=1e-12)
    assert terms["class_ce_ego"].item() == pytest.approx(0.0, abs=1e-12)


def test_triplet_satisfied_margin_is_zero(cb):
    pos, neg = triplet_classes_ref(cb, 0)
    anchor = cb.basis.mean(axis=1)[pos[0]]
    cb.basis[neg] += 50.0  # negatives far beyond the margin
    try:
        [val] = triplet_term(anchor[None, :], np.array([pos]), np.array([neg]),
                             cb.basis.mean(axis=1), margin=1.0).data
        assert val == pytest.approx(0.0)
    finally:
        cb.basis[neg] -= 50.0


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
    got = triplet_term(tokens, pos, neg, cb.basis.mean(axis=1), margin=1.0).data
    for token, p, n, value in zip(tokens, pos, neg, got):
        want = triplet_oracle(token, list(cb.basis.mean(axis=1)[p]),
                              list(cb.basis.mean(axis=1)[n]), 1.0)
        assert value == pytest.approx(want, rel=1e-10)


def test_kl_identity_and_uniform_cases():
    adm = [2, 5, 7, 9]
    mask = np.zeros((1, 12), dtype=bool)
    mask[0, adm] = True
    logits = np.zeros(12)
    logits[adm] = [0.3, -0.1, 0.8, 0.2]
    assert kl_divergence(MaskedLogSoftmax(Tensor(logits[None]), mask),
                         logits[None].copy()).data[0] == pytest.approx(0.0, abs=1e-12)
    student = np.full(12, -300.0)
    student[adm[0]] = 300.0  # one-hot in the zero-temperature limit
    teacher = np.zeros(12)  # uniform over the 4 admissible groups
    kl = kl_divergence(MaskedLogSoftmax(Tensor(student[None]), mask), teacher[None])
    assert kl.data[0] == pytest.approx(np.log(4.0), abs=1e-9)


def _teacher_rows(cb, label, traj, logits, variance=1.0):
    """A single ego row whose student outputs equal the teacher's targets,
    its token at the label's first positive anchor."""
    pos, neg = triplet_classes_ref(cb, label)
    token = cb.basis.mean(axis=1)[pos[0]]
    return SupRows(traj=Tensor(traj[None].copy()), target=traj[None],
                   variance=np.array([variance]),
                   ls=MaskedLogSoftmax(Tensor(logits[None].copy()), all_admissible(cb)),
                   label=np.array([label]),
                   token=Tensor(token[None].copy()), positives=np.array([pos]),
                   negatives=np.array([neg]), n_ego=1)


def test_teacher_self_distillation_fixed_point(cb):
    # identical outputs, peaked logits, sigma = 1, token at a positive anchor
    # with negatives beyond the margin: every term vanishes
    label = 0
    pos, neg = triplet_classes_ref(cb, label)
    cb.basis[neg] += 50.0
    try:
        logits = np.full(cb.n_code, -80.0)
        logits[label] = 80.0
        traj = np.linspace(0, 5, 12)
        rows = _teacher_rows(cb, label, traj, logits)
        terms = loss_gp_teacher(rows, logits[None], anchors=cb.basis.mean(axis=1))
        assert step_total(terms, {}, 1)[0].item() == pytest.approx(0.0, abs=1e-10)
    finally:
        cb.basis[neg] -= 50.0


def test_total_is_weighted_sum():
    t = {"recon_ego": Tensor(np.array(2.0)), "plan_nll": Tensor(np.array(3.0))}
    total, values = step_total(t, {"recon_ego": 0.5}, 2, gp_weight=4.0, taught=("plan_nll",))
    assert total.item() == pytest.approx((0.5 * 2.0 + 4.0 * 3.0) / 2)
    assert values.tolist() == [2.0, 12.0]


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
    theta = parameter(np.array(0.0))  # log sigma
    opt = Adam({"theta": theta}, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)
    for _ in range(500):
        sigma = autodiff.exp(theta)
        loss = autodiff.add(autodiff.div(task, autodiff.square(sigma)),
                            autodiff.log(sigma))
        autodiff.grad(loss, {"theta": theta}, out=opt.grads)
        opt.step()
    sigma_sq = float(np.exp(2 * theta.data))
    assert abs(sigma_sq - 2 * task) / (2 * task) < 0.05


def test_loss_rec_gradients_match_fd(cb):
    rng = np.random.default_rng(3)
    gid = 0
    e = rng.normal(size=5)
    basis = parameter(cb.basis[gid])
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


def composed_log_softmax(logits, admissible):
    mask = admissible.astype(np.float64)
    m = np.max(np.where(admissible, logits.data, -np.inf), axis=-1, keepdims=True)
    shifted = autodiff.mul(autodiff.sub(logits, m), mask)
    lse = autodiff.log(autodiff.tsum(autodiff.mul(autodiff.exp(shifted), mask),
                                     axis=-1, keepdims=True))
    return autodiff.mul(autodiff.sub(shifted, lse), mask)


def composed_ce(logits, admissible, labels):
    onehot = np.zeros(admissible.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    ls = composed_log_softmax(logits, admissible)
    return autodiff.mul(autodiff.tsum(autodiff.mul(ls, onehot), axis=1), -1.0)


def composed_kl(logits, teacher_logits, admissible):
    ls_s = composed_log_softmax(logits, admissible)
    ls_t = composed_log_softmax(Tensor(np.where(admissible, teacher_logits, 0.0)),
                                admissible).data
    p_s = autodiff.mul(autodiff.exp(ls_s), admissible.astype(np.float64))
    return autodiff.tsum(autodiff.mul(p_s, autodiff.sub(ls_s, ls_t)), axis=1)


def composed_total(terms, weights, n, gp_weight, taught):
    out = Tensor(0.0)
    for name, t in terms.items():
        t = autodiff.mul(t, gp_weight) if name in taught else t
        out = autodiff.add(out, autodiff.mul(t, weights.get(name, 1.0)))
    return autodiff.mul(out, 1.0 / n)


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
        # each consumer's rows weighted by an upstream gradient, one backward
        x = parameter(logits)
        outs = consumers(x)
        root = Tensor(0.0)
        for out, g in zip(outs, upstream):
            root = autodiff.add(root, autodiff.tsum(autodiff.mul(out, g)))
        autodiff.backward(root)
        return [out.data.tobytes() for out in outs], x.grad.tobytes()

    taught = np.argmax(teacher, axis=1)  # the teacher's classes

    def nodes(x):
        ls = MaskedLogSoftmax(x, admissible)
        return [cross_entropy(ls, labels), cross_entropy(ls, taught),
                kl_divergence(ls, teacher)]

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
        autodiff.backward(total)
        return total.data.tobytes(), values, x.grad.tobytes()

    # (1/7 * 2.5) * 0.7 and (1/7 * 0.7) * 2.5 round apart: the order shows
    got = run(lambda terms: step_total(terms, weights, 7, 0.7, taught))
    want = run(lambda terms: (
        composed_total(terms, weights, 7, 0.7, taught),
        np.array([(autodiff.mul(t, 0.7) if n in taught else t).item()
                  for n, t in terms.items()])))
    assert got[0] == want[0] and got[2] == want[2]
    assert got[1].tobytes() == want[1].tobytes()
