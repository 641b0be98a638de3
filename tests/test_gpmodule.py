"""GP conditioning against the dense-inverse oracle, masking, and variance laws."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj import autodiff
from gptraj.autodiff import Tensor
from gptraj.codebook import (Role, admissible_groups, admissible_mask,
                             init_basis_tokens, sample_and_cluster)
from gptraj.core import COMMANDS, Command, Token, Trajectory
from gptraj.gpmodule import (GpGraph, GpInference, GpParams, GroupClassifier,
                             classify, predict_scene, predict_trajectory,
                             reconstruct)
from gptraj.trainer import Adam
from gptraj.losses import cross_entropy
from gptraj.core import rng_for

from oracles import gp_oracle

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


def test_reconstruct_interpolates_basis_token(small_cb):
    p = near_zero_noise()
    g = small_cb.group(2)
    tok = Token(g.basis_tokens[3].copy())
    res = reconstruct(tok, 2, small_cb, p)
    assert np.max(np.abs(res.recon.values - tok.values)) < 1e-4
    assert res.variance <= 1e-6 + p.noise_var_recon


def test_reconstruct_far_token_reverts_to_anchor(small_cb):
    p = GpParams()
    g = small_cb.group(1)
    tok = Token(np.full(6, 80.0))  # effectively infinite kernel distance
    res = reconstruct(tok, 1, small_cb, p)
    assert np.allclose(res.recon.values, g.token_anchor, atol=1e-8)
    assert res.variance == pytest.approx(1.0 + p.noise_var_recon)


def test_predict_interpolates_paired_trajectory(small_cb):
    p = near_zero_noise()
    g = small_cb.group(4)
    tok = Token(g.basis_tokens[0].copy())
    pred = predict_trajectory(tok, 4, small_cb, p)
    assert np.max(np.abs(pred.mean.flat - g.trajectories[0])) < 1e-4


def test_predict_far_token_returns_anchor_trajectory(small_cb):
    p = GpParams()
    g = small_cb.group(3)
    tok = Token(np.full(6, -90.0))
    pred = predict_trajectory(tok, 3, small_cb, p)
    assert np.allclose(pred.mean.flat, g.traj_anchor, atol=1e-8)
    assert pred.scalar_variance == pytest.approx(1.0 + p.noise_var_traj)
    assert np.allclose(pred.variance, pred.scalar_variance)
    assert pred.variance.shape == (12,)


def test_matches_dense_inverse_oracle(small_cb):
    rng = np.random.default_rng(3)
    p = GpParams(log_lengthscale=0.2, log_outputscale=-0.1,
                 log_noise_recon=np.log(0.05), log_noise_traj=np.log(0.02))
    ell, sf = p.kernel_params().lengthscale, p.kernel_params().outputscale
    for gid in (0, 3, 7):
        g = small_cb.group(gid)
        tok = Token(rng.normal(size=6))
        res = reconstruct(tok, gid, small_cb, p)
        mean_o, var_o = gp_oracle(g.basis_tokens, g.basis_tokens, tok.values,
                                  ell, sf, p.noise_var_recon)
        assert np.max(np.abs(res.recon.values - mean_o)) < 1e-8
        assert abs(res.variance - var_o) < 1e-8

        pred = predict_trajectory(tok, gid, small_cb, p)
        mean_o, var_o = gp_oracle(g.basis_tokens, g.trajectories, tok.values,
                                  ell, sf, p.noise_var_traj)
        assert np.max(np.abs(pred.mean.flat - mean_o)) < 1e-8
        assert abs(pred.scalar_variance - var_o) < 1e-8


def test_recon_and_prediction_share_conditioning(small_cb):
    # identical function-space variance from both heads at equal noise
    p = GpParams(log_noise_recon=np.log(0.1), log_noise_traj=np.log(0.1))
    tok = Token(np.linspace(-1, 1, 6))
    r = reconstruct(tok, 5, small_cb, p)
    pr = predict_trajectory(tok, 5, small_cb, p)
    assert r.variance == pytest.approx(pr.scalar_variance, abs=1e-12)


def test_classifier_masking_and_determinism(small_cb, small_clf):
    p = GpParams()
    tok = Token(np.linspace(-0.5, 0.5, 6))
    g1, logits1 = classify(tok, Role.ego(Command.TURN_LEFT), small_cb, small_clf, p)
    g2, logits2 = classify(tok, Role.ego(Command.TURN_LEFT), small_cb, small_clf, p)
    assert g1 == g2 and np.array_equal(logits1, logits2)
    left = admissible_groups(small_cb, Role.ego(Command.TURN_LEFT))
    assert g1 in left
    masked = np.delete(logits1, left)
    assert np.all(np.isneginf(masked))
    ga, _ = classify(tok, Role.agent(), small_cb, small_clf, p)
    assert ga in small_cb.agent_group_ids


def test_variance_lower_bound_and_monotonicity(small_cb):
    p = GpParams(log_noise_traj=np.log(0.05))
    rng = np.random.default_rng(8)
    g = small_cb.group(0)
    base = g.token_anchor
    for _ in range(50):
        tok = Token(rng.normal(size=6))
        pred = predict_trajectory(tok, 0, small_cb, p)
        assert pred.scalar_variance >= p.noise_var_traj - 1e-15
    # moving the query towards the basis cloud decreases variance
    direction = rng.normal(size=6)
    direction /= np.linalg.norm(direction)
    vars_by_dist = [predict_trajectory(Token(base + r * direction), 0, small_cb,
                                       p).scalar_variance
                    for r in (0.5, 2.0, 6.0, 20.0)]
    assert all(a <= b + 1e-12 for a, b in zip(vars_by_dist, vars_by_dist[1:]))


def test_predict_scene_shapes_and_order(small_cb, small_clf):
    p = GpParams()
    rng = np.random.default_rng(5)
    ego = Token(rng.normal(size=6))
    ego_pred, agent_preds = predict_scene(ego, [], Command.GO_STRAIGHT,
                                          small_cb, small_clf, p)
    assert agent_preds == []
    assert ego_pred.group in admissible_groups(small_cb, Role.ego(Command.GO_STRAIGHT))

    agents = [Token(rng.normal(size=6)) for _ in range(3)]
    _, agent_preds = predict_scene(ego, agents, Command.GO_STRAIGHT,
                                   small_cb, small_clf, p)
    assert len(agent_preds) == 3
    for tok, pred in zip(agents, agent_preds):
        direct = predict_trajectory(tok, pred.group, small_cb, p)
        assert np.allclose(direct.mean.flat, pred.mean.flat)


def test_forced_group_reproduces_basis_trajectory_end_to_end(small_cb, small_clf):
    # classifier forced via a single-group admissible mask
    p = near_zero_noise()
    left = admissible_groups(small_cb, Role.ego(Command.TURN_LEFT))
    gid = left[0]
    g = small_cb.group(gid)
    tok = Token(g.basis_tokens[2].copy())
    feats = None  # classify with a restricted mask: emulate via direct predict
    pred = predict_trajectory(tok, gid, small_cb, p)
    assert np.max(np.abs(pred.mean.flat - g.trajectories[2])) < 1e-3


def test_inference_cache_matches_free_functions(small_cb, small_clf):
    p = GpParams(log_lengthscale=0.1, log_noise_recon=np.log(0.03))
    inf = GpInference(small_cb, small_clf, p)
    rng = np.random.default_rng(12)
    for _ in range(10):
        tok = Token(rng.normal(size=6))
        gid, logits = classify(tok, Role.agent(), small_cb, small_clf, p)
        gid2, logits2 = inf.classify(tok.values, Role.agent())
        assert gid == gid2
        assert np.allclose(logits[np.isfinite(logits)],
                           logits2[np.isfinite(logits2)])
        r = reconstruct(tok, gid, small_cb, p)
        r2, var2 = inf.reconstruct(tok.values, gid)
        assert np.allclose(r.recon.values, r2, atol=1e-12)
        assert r.variance == pytest.approx(var2, abs=1e-12)
        pred = predict_trajectory(tok, gid, small_cb, p)
        pred2 = inf.predict(tok.values, gid)
        assert np.allclose(pred.mean.flat, pred2.mean.flat, atol=1e-12)


def test_graph_path_matches_inference_path(small_cb, small_clf):
    p = GpParams(log_lengthscale=0.15, log_outputscale=-0.05,
                 log_noise_recon=np.log(0.04), log_noise_traj=np.log(0.06))
    basis_vars = [Tensor(g.basis_tokens) for g in small_cb.groups]
    clf_vars = {"w1": Tensor(small_clf.w1), "b1": Tensor(small_clf.b1),
                "w2": Tensor(small_clf.w2), "b2": Tensor(small_clf.b2)}
    graph = GpGraph(small_cb, basis_vars, clf_vars,
                    Tensor(np.array(p.log_lengthscale)),
                    Tensor(np.array(p.log_outputscale)),
                    Tensor(np.array(p.log_noise_recon)),
                    Tensor(np.array(p.log_noise_traj)))
    rng = np.random.default_rng(17)
    tok = rng.normal(size=6)
    feats = graph.kernel_features(Tensor(tok))
    inf = GpInference(small_cb, small_clf, p)
    assert np.allclose(feats.data, inf.kernel_features(tok), atol=1e-12)
    logits = graph.classifier_logits(feats)
    assert np.allclose(logits.data, small_clf.forward(inf.kernel_features(tok)),
                       atol=1e-12)
    recon, var = graph.reconstruct(Tensor(tok), 3)
    r2, v2 = inf.reconstruct(tok, 3)
    assert np.allclose(recon.data, r2, atol=1e-10)
    assert float(var.data) == pytest.approx(v2, abs=1e-10)
    mean, var_t = graph.predict_trajectory(Tensor(tok), 3)
    pred = inf.predict(tok, 3)
    assert np.allclose(mean.data, pred.mean.flat, atol=1e-10)
    assert float(var_t.data) == pytest.approx(pred.scalar_variance, abs=1e-10)


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
            feats = Tensor(inf.kernel_features(tok))
            h = autodiff.tanh(autodiff.add(autodiff.matmul(w["w1"], feats), w["b1"]))
            logits = autodiff.add(autodiff.matmul(w["w2"], h), w["b2"])
            ce = cross_entropy(autodiff.reshape(logits, (1, -1)), adm, [label])
            total = autodiff.add(total, autodiff.tsum(ce))
        grads = autodiff.grad(autodiff.mul(total, 1 / 8), w)
        opt.step(grads)
    trained = GroupClassifier(w1=w["w1"].data, b1=w["b1"].data,
                              w2=w["w2"].data, b2=w["b2"].data)
    hits = 0
    n_eval = 200
    for _ in range(n_eval):
        label = ids[int(rng.integers(2))]
        tok = Token(centers[label] + rng.normal(scale=0.3, size=6))
        got, _ = classify(tok, Role.agent(), cb, trained, p)
        hits += int(got == label)
    assert hits / n_eval >= 0.95
