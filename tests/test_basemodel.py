"""Encoder determinism, planner anchor arithmetic, and masking exactness."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gptraj.basemodel import (BaseModelParams, RESIDUAL_BOUND, encode,
                              encode_t, masked_softmax, plan, plan_with_group,
                              planner_t)
from gptraj.codebook import Role, admissible_groups
from gptraj.core import Command, SceneRecord, Token, Trajectory, rng_for


def make_params(obs_dim=16, token_dim=8, n_code=23, seed=0) -> BaseModelParams:
    return BaseModelParams.init(obs_dim, token_dim, n_code, 24, 24,
                                rng_for(seed, "base-test"))


def scene_with(obs, domain="a") -> SceneRecord:
    return SceneRecord(scene_id="s", domain_tag=domain, command=Command.GO_STRAIGHT,
                       ego_obs=obs, agent_obs=[obs * 0.5],
                       ego_gt=None, agent_gt=None, agent_footprints=[(4.5, 2.0)])


def test_zero_observation_zero_weights_zero_token():
    p = make_params()
    for name in ("enc_w1", "enc_b1", "enc_w2", "enc_b2"):
        setattr(p, name, np.zeros_like(getattr(p, name)))
    ego, agents = encode(scene_with(np.zeros(16)), p)
    assert np.array_equal(ego.values, np.zeros(8))
    assert np.array_equal(agents[0].values, np.zeros(8))


def test_encode_deterministic_and_metadata_free():
    p = make_params(seed=3)
    obs = rng_for(1, "obs").normal(size=16)
    a1 = encode(scene_with(obs, "city_a"), p)
    a2 = encode(scene_with(obs, "city_b"), p)
    assert np.array_equal(a1[0].values, a2[0].values)
    assert np.array_equal(a1[1][0].values, a2[1][0].values)


def test_encode_rejects_wrong_obs_length():
    p = make_params()
    with pytest.raises(ValueError, match="observation length"):
        encode(scene_with(np.zeros(9)), p)


def test_tokens_have_fixed_scale():
    p = make_params()
    obs = rng_for(2, "obs").normal(size=16)
    ego, _ = encode(scene_with(obs), p)
    assert np.linalg.norm(ego.values) == pytest.approx(p.token_scale, rel=1e-6)


def test_plan_zero_residual_returns_anchor(tiny_model):
    cb = tiny_model.cb
    p = make_params(n_code=cb.n_code)
    p.pln_w2 = np.zeros_like(p.pln_w2)
    p.pln_b2 = np.zeros_like(p.pln_b2)
    p.pln_b2[0] = 1.0  # group 0 wins among admissible after masking
    tok = Token(np.ones(8))
    role = Role.ego(cb.group(0).role.command)
    traj, logits = plan(tok, role, p, cb)
    assert np.allclose(traj.flat, cb.group(0).traj_anchor)
    assert int(np.argmax(logits)) == 0


def test_residual_saturates_at_bound(tiny_model):
    cb = tiny_model.cb
    p = make_params(n_code=cb.n_code)
    p.pln_b2 = np.zeros_like(p.pln_b2)
    p.pln_w2 = np.zeros_like(p.pln_w2)
    p.pln_b2[cb.n_code:] = 1e3  # tanh saturates to +1
    tok = Token(np.ones(8))
    traj = plan_with_group(tok, 0, p, cb)
    offset = traj.flat - cb.group(0).traj_anchor
    assert np.allclose(offset, RESIDUAL_BOUND)


def test_plan_translation_consistent_with_anchor_shift(tiny_model):
    cb = tiny_model.cb
    p = make_params(n_code=cb.n_code, seed=5)
    tok = Token(rng_for(4, "tok").normal(size=8))
    role = Role.ego(cb.group(0).role.command)
    before, logits = plan(tok, role, p, cb)
    group = int(np.argmax(logits))
    shift = np.tile([2.0, -1.0], 6)
    cb.group(group).traj_anchor = cb.group(group).traj_anchor + shift
    try:
        after, _ = plan(tok, role, p, cb)
        assert np.allclose(after.flat - before.flat, shift)
    finally:
        cb.group(group).traj_anchor = cb.group(group).traj_anchor - shift


def test_masked_probability_mass_exactly_zero(tiny_model):
    cb = tiny_model.cb
    p = make_params(n_code=cb.n_code, seed=2)
    tok = Token(rng_for(6, "tok").normal(size=8))
    _, logits = plan(tok, Role.ego(Command.TURN_LEFT), p, cb)
    probs = masked_softmax(logits)
    admissible = admissible_groups(cb, Role.ego(Command.TURN_LEFT))
    non_adm = np.setdiff1d(np.arange(cb.n_code), admissible)
    assert np.all(probs[non_adm] == 0.0)
    assert probs.sum() == pytest.approx(1.0)


def test_differentiable_paths_match_numpy():
    from gptraj.autodiff import Tensor

    p = make_params(seed=9)
    obs = rng_for(7, "obs").normal(size=16)
    names = ("enc_w1", "enc_b1", "enc_w2", "enc_b2",
             "pln_w1", "pln_b1", "pln_w2", "pln_b2")
    v = {n: Tensor(getattr(p, n)) for n in names}
    tok_t = encode_t(np.stack([obs, obs * 0.5]), v, p.token_scale)
    ego, agents = encode(scene_with(obs), p)
    assert np.allclose(tok_t.data, [ego.values, agents[0].values], atol=1e-12)
    logits_t, residual_t = planner_t(tok_t, v, p.n_code)
    for row, tok in enumerate((ego, agents[0])):
        h = np.tanh(p.pln_w1 @ tok.values + p.pln_b1)
        out = p.pln_w2 @ h + p.pln_b2
        assert np.allclose(logits_t.data[row], out[:p.n_code], atol=1e-12)
        assert np.allclose(residual_t.data[row],
                           RESIDUAL_BOUND * np.tanh(out[p.n_code:]), atol=1e-12)
