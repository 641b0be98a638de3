"""GP conditioning against the dense-inverse oracle, masking, and variance laws."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gptraj import autodiff, gpmodule
from gptraj.autodiff import Tensor
from gptraj.codebook import (Role, admissible_groups, admissible_mask,
                             init_basis_tokens, sample_and_cluster)
from gptraj.core import COMMANDS, Command
from gptraj.gpmodule import GpGraph, GpInference, GpParams, GroupClassifier
from gptraj.trainer import Adam
from gptraj.losses import cross_entropy
from gptraj.core import rng_for

from oracles import classify_ref, gp_oracle

from test_codebook import corpus


@pytest.fixture(scope="module")
def small_cb():
    cb = sample_and_cluster(corpus(n_per_cmd=24, n_agent=60), 6, 4,
                            group_size=8, token_dim=6, seed=0)
    return init_basis_tokens(cb, rng_seed=1)


@pytest.fixture(scope="module")
def small_clf(small_cb):
    return GroupClassifier.init(small_cb.n_code, small_cb.group_size, 16,
                                rng_for(0, "clf-test"))


def near_zero_noise() -> GpParams:
    return GpParams(log_noise_recon=np.log(1e-5), log_noise_traj=np.log(1e-5))


def noise_var(log_noise: float) -> float:
    return math.exp(2.0 * log_noise)


def reconstruct(cb, clf, p, tokens, groups):
    """``GpInference.reconstruct`` of token rows under given groups, as arrays."""
    inf = GpInference(cb, clf, p)
    mean, var = inf.reconstruct(inf.kernel_features(np.atleast_2d(tokens)),
                                np.atleast_1d(groups))
    return mean.data, var.data


def predict(cb, clf, p, tokens, groups):
    """``GpInference.predict_trajectory`` of token rows under given groups."""
    inf = GpInference(cb, clf, p)
    mean, var = inf.predict_trajectory(inf.kernel_features(np.atleast_2d(tokens)),
                                       np.atleast_1d(groups))
    return mean.data, var.data


def oracle(cb, p, token, gid, head: str):
    """``gp_oracle`` of one token under group ``gid``: the reconstruction head
    (targets = basis) or the trajectory head."""
    g = cb.group(gid)
    targets, log_noise = ((g.basis_tokens, p.log_noise_recon) if head == "recon"
                          else (g.trajectories, p.log_noise_traj))
    return gp_oracle(g.basis_tokens, targets, token, math.exp(p.log_lengthscale),
                     math.exp(p.log_outputscale), noise_var(log_noise))


def test_reconstruct_interpolates_basis_token(small_cb, small_clf):
    p = near_zero_noise()
    tok = small_cb.group(2).basis_tokens[3].copy()
    recon, var = reconstruct(small_cb, small_clf, p, tok, 2)
    assert np.max(np.abs(recon[0] - tok)) < 1e-4
    assert var[0] <= 1e-6 + noise_var(p.log_noise_recon)


def test_reconstruct_far_token_reverts_to_anchor(small_cb, small_clf):
    p = GpParams()
    tok = np.full(6, 80.0)  # effectively infinite kernel distance
    recon, var = reconstruct(small_cb, small_clf, p, tok, 1)
    assert np.allclose(recon[0], small_cb.group(1).token_anchor, atol=1e-8)
    assert var[0] == pytest.approx(1.0 + noise_var(p.log_noise_recon))


def test_predict_interpolates_paired_trajectory(small_cb, small_clf):
    p = near_zero_noise()
    g = small_cb.group(4)
    mean, _ = predict(small_cb, small_clf, p, g.basis_tokens[0].copy(), 4)
    assert np.max(np.abs(mean[0] - g.trajectories[0])) < 1e-4


def test_predict_far_token_returns_anchor_trajectory(small_cb, small_clf):
    p = GpParams()
    mean, var = predict(small_cb, small_clf, p, np.full(6, -90.0), 3)
    assert mean.shape == (1, 12) and var.shape == (1,)
    assert np.allclose(mean[0], small_cb.group(3).traj_anchor, atol=1e-8)
    assert var[0] == pytest.approx(1.0 + noise_var(p.log_noise_traj))


def test_matches_dense_inverse_oracle(small_cb, small_clf):
    rng = np.random.default_rng(3)
    p = GpParams(log_lengthscale=0.2, log_outputscale=-0.1,
                 log_noise_recon=np.log(0.05), log_noise_traj=np.log(0.02))
    groups = np.array([0, 3, 7, 3])  # a repeated group in one call
    toks = rng.normal(size=(len(groups), 6))
    recon, var_rec = reconstruct(small_cb, small_clf, p, toks, groups)
    mean, var_traj = predict(small_cb, small_clf, p, toks, groups)
    for i, (tok, gid) in enumerate(zip(toks, groups)):
        mean_o, var_o = oracle(small_cb, p, tok, gid, "recon")
        assert np.max(np.abs(recon[i] - mean_o)) < 1e-8
        assert abs(var_rec[i] - var_o) < 1e-8
        mean_o, var_o = oracle(small_cb, p, tok, gid, "traj")
        assert np.max(np.abs(mean[i] - mean_o)) < 1e-8
        assert abs(var_traj[i] - var_o) < 1e-8


def test_recon_and_prediction_share_conditioning(small_cb, small_clf):
    # identical function-space variance from both heads at equal noise
    p = GpParams(log_noise_recon=np.log(0.1), log_noise_traj=np.log(0.1))
    tok = np.linspace(-1, 1, 6)
    _, var_rec = reconstruct(small_cb, small_clf, p, tok, 5)
    _, var_traj = predict(small_cb, small_clf, p, tok, 5)
    assert var_rec[0] == pytest.approx(var_traj[0], abs=1e-12)


def test_classifier_masking_and_determinism(small_cb, small_clf):
    p = GpParams()
    inf = GpInference(small_cb, small_clf, p)
    tok = np.linspace(-0.5, 0.5, 6)[None]
    left_mask = admissible_mask(small_cb, Role.ego(Command.TURN_LEFT))[None]
    *_, logits1, g1 = inf.predict_rows(tok, left_mask)
    *_, logits2, g2 = inf.predict_rows(tok, left_mask)
    assert g1 == g2 and np.array_equal(logits1, logits2)
    left = admissible_groups(small_cb, Role.ego(Command.TURN_LEFT))
    assert g1[0] in left
    assert np.all(np.isneginf(np.delete(logits1[0], left)))
    want, want_logits = classify_ref(tok[0], Role.ego(Command.TURN_LEFT), small_cb,
                                     small_clf, p)
    assert g1[0] == want
    assert np.allclose(logits1[0][left], want_logits[left], rtol=0, atol=1e-12)
    *_, ga = inf.predict_rows(tok, admissible_mask(small_cb, Role.agent())[None])
    assert ga[0] in small_cb.agent_group_ids


def test_variance_lower_bound_and_monotonicity(small_cb, small_clf):
    p = GpParams(log_noise_traj=np.log(0.05))
    rng = np.random.default_rng(8)
    _, var = predict(small_cb, small_clf, p, rng.normal(size=(50, 6)), np.zeros(50, int))
    assert np.all(var >= noise_var(p.log_noise_traj) - 1e-15)
    # moving the query towards the basis cloud decreases variance
    direction = rng.normal(size=6)
    direction /= np.linalg.norm(direction)
    base = small_cb.group(0).token_anchor
    toks = np.stack([base + r * direction for r in (0.5, 2.0, 6.0, 20.0)])
    _, by_dist = predict(small_cb, small_clf, p, toks, np.zeros(4, int))
    assert all(a <= b + 1e-12 for a, b in zip(by_dist, by_dist[1:]))


def test_predict_scene_shapes_and_order(small_cb, small_clf):
    p = GpParams()
    rng = np.random.default_rng(5)
    inf = GpInference(small_cb, small_clf, p)
    egos = rng.normal(size=(3, 6))
    mean, var, logits, groups = inf.predict_scene(egos, [Command.GO_STRAIGHT] * 3)
    assert (mean.shape, var.shape, logits.shape, groups.shape) == (
        (3, 12), (3,), (3, small_cb.n_code), (3,))
    straight = admissible_groups(small_cb, Role.ego(Command.GO_STRAIGHT))
    assert all(g in straight for g in groups)
    # each row as if it were alone: no row's prediction depends on another's
    for i in range(3):
        alone = inf.predict_scene(egos[i:i + 1], [Command.GO_STRAIGHT])
        assert alone[3][0] == groups[i]
        assert np.allclose(alone[0][0], mean[i], rtol=0, atol=1e-12)


def test_forced_group_reproduces_basis_trajectory_end_to_end(small_cb, small_clf):
    # classifier forced via a single-group admissible mask
    p = near_zero_noise()
    gid = admissible_groups(small_cb, Role.ego(Command.TURN_LEFT))[0]
    g = small_cb.group(gid)
    only = np.arange(small_cb.n_code)[None, :] == gid
    mean, _, _, groups = GpInference(small_cb, small_clf, p).predict_rows(
        g.basis_tokens[2][None], only)
    assert groups.tolist() == [gid]
    assert np.max(np.abs(mean[0] - g.trajectories[2])) < 1e-3


def test_predict_scene_matches_oracle(small_cb, small_clf):
    p = GpParams(log_lengthscale=0.1, log_noise_traj=np.log(0.03))
    inf = GpInference(small_cb, small_clf, p)
    commands = [c for c in COMMANDS for _ in range(4)]
    toks = np.random.default_rng(12).normal(size=(len(commands), 6))
    mean, var, logits, groups = inf.predict_scene(toks, commands)
    for tok, command, m2, v2, l2, g2 in zip(toks, commands, mean, var, logits, groups,
                                           strict=True):
        gid, want_logits = classify_ref(tok, Role.ego(command), small_cb, small_clf, p)
        assert g2 == gid
        assert np.array_equal(np.isneginf(l2), np.isneginf(want_logits))
        want_mean, want_var = oracle(small_cb, p, tok, gid, "traj")
        assert np.allclose(m2, want_mean, rtol=0, atol=1e-8)
        assert v2 == pytest.approx(want_var, rel=0, abs=1e-8)


def mixed_rows(cb, n_per_role: int, rng):
    """Token rows and admissible masks of ego rows under every command, then
    agent rows; the roles with them."""
    roles = [Role.ego(c) for c in COMMANDS for _ in range(n_per_role)]
    roles += [Role.agent()] * n_per_role
    tokens = rng.normal(scale=1.5, size=(len(roles), cb.token_dim))
    return tokens, np.stack([admissible_mask(cb, r) for r in roles]), roles


def test_predict_rows_matches_per_token_reference(small_cb, small_clf, monkeypatch):
    p = GpParams(log_lengthscale=0.1, log_outputscale=0.05,
                 log_noise_traj=np.log(0.07))
    tokens, admissible, roles = mixed_rows(small_cb, 6, np.random.default_rng(21))
    # blocks of 5 rows, the last one short
    monkeypatch.setattr(gpmodule, "FEATURE_BLOCK", 5 * small_cb.n_code * small_cb.group_size)
    mean, var, logits, groups = GpInference(small_cb, small_clf, p).predict_rows(
        tokens, admissible)
    assert mean.shape == (len(tokens), 12) and var.shape == (len(tokens),)
    for i, (tok, role) in enumerate(zip(tokens, roles)):
        gid, want_logits = classify_ref(tok, role, small_cb, small_clf, p)
        assert groups[i] == gid
        assert np.array_equal(np.isneginf(logits[i]), np.isneginf(want_logits))
        assert np.allclose(logits[i][admissible[i]], want_logits[admissible[i]],
                           rtol=0, atol=1e-12)
        want_mean, want_var = oracle(small_cb, p, tok, gid, "traj")
        assert np.allclose(mean[i], want_mean, rtol=0, atol=1e-8)
        assert var[i] == pytest.approx(want_var, rel=0, abs=1e-8)


def test_graph_path_matches_inference_path(small_cb, small_clf):
    # a GpGraph over tracked parameters computes what GpInference computes
    # over constants, and its backward reaches every parameter family
    p = GpParams(log_lengthscale=0.15, log_outputscale=-0.05,
                 log_noise_recon=np.log(0.04), log_noise_traj=np.log(0.06))
    basis_vars = [autodiff.parameter(g.basis_tokens) for g in small_cb.groups]
    clf_vars = {n: autodiff.parameter(getattr(small_clf, n))
                for n in gpmodule.CLASSIFIER_NAMES}
    scalars = [autodiff.parameter(getattr(p, n)) for n in gpmodule.GP_SCALAR_NAMES]
    graph = GpGraph(small_cb, basis_vars, clf_vars, *scalars)
    inf = GpInference(small_cb, small_clf, p)
    toks = np.random.default_rng(17).normal(size=(4, 6))
    groups = np.array([3, 3, 0, 9])
    feats = graph.kernel_features(toks)
    inf_feats = inf.kernel_features(toks)
    assert np.allclose(feats.data, inf_feats.data, rtol=0, atol=1e-12)
    logits = graph.classifier_logits(feats)
    assert np.allclose(logits.data, inf.classifier_logits(inf_feats).data,
                       rtol=0, atol=1e-12)
    recon, var = graph.reconstruct(feats, groups)
    mean, var_t = graph.predict_trajectory(feats, groups)
    for got, want in zip((recon, var, mean, var_t),
                         inf.reconstruct(inf_feats, groups)
                         + inf.predict_trajectory(inf_feats, groups)):
        assert np.allclose(got.data, want.data, rtol=0, atol=1e-12)
    for i, (tok, gid) in enumerate(zip(toks, groups)):
        want_recon, want_var = oracle(small_cb, p, tok, gid, "recon")
        assert np.allclose(recon.data[i], want_recon, atol=1e-8)
        assert var.data[i] == pytest.approx(want_var, abs=1e-8)
    loss = autodiff.tsum(autodiff.add(
        autodiff.add(autodiff.tsum(recon), autodiff.tsum(var)),
        autodiff.add(autodiff.tsum(logits), autodiff.tsum(var_t))))
    autodiff.backward(loss)
    for leaf in basis_vars[3:4] + list(clf_vars.values()) + scalars:
        assert leaf.grad is not None and np.any(leaf.grad != 0.0)
    assert inf.log_ell.grad is None  # the constants build no tape


def test_classifier_learns_two_separated_modes(small_cb):
    # two well-separated token clusters mapped to two agent groups; a freshly
    # initialized classifier must reach >= 95% held-out accuracy after training
    rng = rng_for(0, "clf-train")
    cb = small_cb
    p = GpParams()
    ids = cb.agent_group_ids[:2]
    centers = {gid: cb.group(gid).basis_tokens.mean(axis=0) + 0.8 for gid in ids}
    centers[ids[1]] = cb.group(ids[1]).basis_tokens.mean(axis=0) - 0.8
    clf = GroupClassifier.init(cb.n_code, cb.group_size, 16, rng)
    w = {"w1": autodiff.parameter(clf.w1), "b1": autodiff.parameter(clf.b1),
         "w2": autodiff.parameter(clf.w2), "b2": autodiff.parameter(clf.b2)}
    opt = Adam(w, lr=1e-2)
    inf = GpInference(cb, clf, p)
    adm = admissible_mask(cb, Role.agent())[None, :]
    for _ in range(300):
        total = Tensor(0.0)
        for _ in range(8):
            label = ids[int(rng.integers(2))]
            tok = centers[label] + rng.normal(scale=0.3, size=6)
            feats = inf.kernel_features(tok[None]).data[0]
            h = autodiff.tanh(autodiff.add(autodiff.matmul(w["w1"], feats), w["b1"]))
            logits = autodiff.add(autodiff.matmul(w["w2"], h), w["b2"])
            ce = cross_entropy(autodiff.reshape(logits, (1, -1)), adm, [label])
            total = autodiff.add(total, autodiff.tsum(ce))
        grads = autodiff.grad(autodiff.mul(total, 1 / 8), w)
        opt.step(grads)
    trained = GroupClassifier(w1=w["w1"].data, b1=w["b1"].data,
                              w2=w["w2"].data, b2=w["b2"].data)
    labels, toks = [], []
    for _ in range(200):
        labels.append(ids[int(rng.integers(2))])
        toks.append(centers[labels[-1]] + rng.normal(scale=0.3, size=6))
    *_, got = GpInference(cb, trained, p).predict_rows(
        np.stack(toks), np.repeat(adm, len(labels), axis=0))
    assert np.mean(got == np.array(labels)) >= 0.95
