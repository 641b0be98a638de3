"""Encoder determinism, planner anchor arithmetic, and masking exactness."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gptraj import autodiff
from gptraj.basemodel import (RESIDUAL_BOUND, TOKEN_SCALE, encode, encode_t, plan,
                              planner_t)
from gptraj.codebook import admissible
from gptraj.core import COMMANDS, Command, SceneRecord, rng_for

from composed import composed_encoder, composed_planner
from conftest import grad_map, parameter
from oracles import (base_init_ref, encode_ref, group_ids_ref, masked_softmax, plan_ref,
                     plan_with_group_ref)


def make_params(obs_dim=16, token_dim=8, n_code=23, seed=0) -> dict:
    """Base weights by checkpoint name, for ``n_code`` groups."""
    return base_init_ref(rng_for(seed, "base-test"), obs_dim, token_dim, n_code, 24, 24)


def scene_with(obs, domain="a") -> SceneRecord:
    return SceneRecord(scene_id="s", domain_tag=domain, command=Command.GO_STRAIGHT,
                       ego_obs=obs, agent_obs=[obs * 0.5],
                       ego_gt=None, agent_gt=None, agent_footprints=[(4.5, 2.0)])


def tokens_of(obs_rows, p: dict) -> np.ndarray:
    return encode(np.atleast_2d(obs_rows), p)


def test_zero_observation_zero_weights_zero_token():
    p = make_params()
    for name in ("base.enc_w1", "base.enc_b1", "base.enc_w2", "base.enc_b2"):
        p[name] = np.zeros_like(p[name])
    assert np.array_equal(tokens_of(np.zeros((2, 16)), p), np.zeros((2, 8)))


def test_encode_deterministic_and_metadata_free():
    p = make_params(seed=3)
    obs = rng_for(1, "obs").normal(size=16)
    rows = np.stack([obs, obs * 0.5])
    assert np.array_equal(tokens_of(rows, p), tokens_of(rows, p))
    # a row's token does not depend on the other rows of the call, up to the
    # rounding of the matrix product
    assert np.allclose(tokens_of(rows, p)[1], tokens_of(rows[1], p)[0],
                       rtol=0, atol=1e-14)


def test_encode_rejects_wrong_obs_length():
    p = make_params()
    with pytest.raises(ValueError, match="observation length"):
        tokens_of(np.zeros(9), p)


def test_tokens_have_fixed_scale():
    p = make_params()
    obs = rng_for(2, "obs").normal(size=(3, 16))
    assert np.allclose(np.linalg.norm(tokens_of(obs, p), axis=1), TOKEN_SCALE,
                       rtol=1e-6)


def test_plan_zero_residual_returns_anchor(tiny_model):
    cb = tiny_model.cb
    p = make_params(n_code=cb.n_code)
    p["base.pln_w2"] = np.zeros_like(p["base.pln_w2"])
    p["base.pln_b2"] = np.zeros_like(p["base.pln_b2"])
    p["base.pln_b2"][0] = 1.0  # group 0 wins among admissible after masking
    mask = admissible(cb, [COMMANDS[cb.buckets[0]]])
    traj, group = plan(np.ones((1, 8)), mask, p, cb.traj_anchors)
    assert group.tolist() == [0]
    assert np.allclose(traj[0], cb.traj_anchors[0])


def test_residual_saturates_at_bound(tiny_model):
    cb = tiny_model.cb
    p = make_params(n_code=cb.n_code)
    p["base.pln_b2"] = np.zeros_like(p["base.pln_b2"])
    p["base.pln_w2"] = np.zeros_like(p["base.pln_w2"])
    p["base.pln_b2"][cb.n_code:] = 1e3  # tanh saturates to +1
    only0 = np.arange(cb.n_code)[None] == 0  # forces group 0
    traj, _ = plan(np.ones((1, 8)), only0, p, cb.traj_anchors)
    assert np.allclose(traj[0] - cb.traj_anchors[0], RESIDUAL_BOUND)
    ref = plan_with_group_ref(np.ones(8), 0, p, cb)
    assert np.allclose(ref.reshape(-1) - cb.traj_anchors[0], RESIDUAL_BOUND)


def test_plan_translation_consistent_with_anchor_shift(tiny_model):
    cb = tiny_model.cb
    p = make_params(n_code=cb.n_code, seed=5)
    tok = rng_for(4, "tok").normal(size=(1, 8))
    mask = admissible(cb, [COMMANDS[cb.buckets[0]]])
    anchors = cb.traj_anchors.copy()
    before, group = plan(tok, mask, p, anchors)
    shift = np.tile([2.0, -1.0], 6)
    anchors[group] += shift
    after, group_after = plan(tok, mask, p, anchors)
    assert group_after.tolist() == group.tolist()
    assert np.allclose(after - before, shift)


def test_masked_probability_mass_exactly_zero(tiny_model):
    cb = tiny_model.cb
    p = make_params(n_code=cb.n_code, seed=2)
    tok = rng_for(6, "tok").normal(size=8)
    _, logits = plan_ref(tok, Command.TURN_LEFT, p, cb)
    probs = masked_softmax(logits)
    non_adm = np.setdiff1d(np.arange(cb.n_code), group_ids_ref(cb, Command.TURN_LEFT))
    assert np.all(probs[non_adm] == 0.0)
    assert probs.sum() == pytest.approx(1.0)


def test_differentiable_paths_match_numpy():
    from gptraj.autodiff import Tensor

    p = make_params(seed=9)
    n_code = 23
    obs = rng_for(7, "obs").normal(size=16)
    v = {n: Tensor(a) for n, a in p.items()}
    tok_t = encode_t(np.stack([obs, obs * 0.5]), v)
    ego, agents = encode_ref(scene_with(obs), p, TOKEN_SCALE)
    assert np.allclose(tok_t.data, [ego, agents[0]], atol=1e-12)
    logits_t, residual_t = planner_t(tok_t, v, n_code)
    for row, tok in enumerate((ego, agents[0])):
        h = np.tanh(p["base.pln_w1"] @ tok + p["base.pln_b1"])
        out = p["base.pln_w2"] @ h + p["base.pln_b2"]
        assert np.allclose(logits_t.data[row], out[:n_code], atol=1e-12)
        assert np.allclose(residual_t.data[row],
                           RESIDUAL_BOUND * np.tanh(out[n_code:]), atol=1e-12)


@pytest.mark.parametrize("rows", [1, 40, 300])
def test_base_model_nodes_give_the_bytes_of_the_composed_chains(rows):
    n_code = 23
    rng = rng_for(rows, "chains")
    weights = make_params(n_code=n_code, seed=rows)
    for name, a in weights.items():
        if a.ndim == 1:  # biases away from their zero start
            weights[name] = rng.normal(size=a.shape)
    obs = rng.normal(size=(rows, 16))
    up = [rng.normal(size=(rows, n)) for n in (n_code, 12, 8)]

    def run(encoder, planner):
        # the tokens feed the planner and a second consumer, as they feed the
        # teacher's triplet term, so their upstream gradient is a sum
        w = {n: parameter(a) for n, a in weights.items()}
        tokens = encoder(obs, w)
        leaf = parameter(tokens.data)  # the planner's gradient into its tokens

        def loss(tokens):
            logits, residual = planner(tokens, w, n_code)
            terms = [autodiff.tsum(autodiff.mul(t, u)) for t, u in
                     zip((logits, residual, tokens), up)]
            return autodiff.add(autodiff.add(terms[0], terms[1]), terms[2]), [
                tokens, logits, residual]

        root, outs = loss(tokens)
        return ([t.data.tobytes() for t in outs]
                + [g.tobytes() for g in grad_map(root, w).values()]
                + [grad_map(loss(leaf)[0], {"tokens": leaf})["tokens"].tobytes()])

    got = run(encode_t, planner_t)
    want = run(composed_encoder, composed_planner)
    assert len(got) == 3 + len(weights) + 1
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        assert a == b, i


def test_plan_rows_match_per_token_reference(tiny_model):
    cb = tiny_model.cb
    p = make_params(n_code=cb.n_code, seed=11)
    rng = rng_for(8, "tok")
    commands = [c for c in COMMANDS for _ in range(4)] + [None] * 4
    tokens = rng.normal(size=(len(commands), 8))
    trajs, groups = plan(tokens, admissible(cb, commands), p, cb.traj_anchors)
    for tok, command, traj, group in zip(tokens, commands, trajs, groups, strict=True):
        want, logits = plan_ref(tok, command, p, cb)
        assert group == int(np.argmax(logits))
        assert np.allclose(traj, want.reshape(-1), rtol=0, atol=1e-12)
