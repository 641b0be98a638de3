"""GP conditioning against the dense-inverse oracle, masking, and variance laws."""

from __future__ import annotations

import functools
import math
import os
import signal
import threading

import numpy as np
import pytest

from gptraj import autodiff, gpmodule, psdlinalg
from gptraj.autodiff import Tensor
from gptraj.codebook import Codebook, admissible, sample_and_cluster
from gptraj.core import COMMANDS, Command
from gptraj.gpmodule import GpGraph, GpInference
from gptraj.psdlinalg import NotPSD
from gptraj.trainer import Adam, ModelSpec
from gptraj.losses import MaskedLogSoftmax, cross_entropy
from gptraj.core import rng_for

from conftest import parameter
from oracles import (basis_tokens_ref, classifier_init_ref, classify_ref, gp_oracle,
                     gp_scalars_ref, group_ids_ref)

from test_codebook import corpus


@pytest.fixture(scope="module")
def small_cb():
    trajs = sample_and_cluster(*corpus(n_per_cmd=24, n_agent=60), 6, 4, group_size=8,
                               seed=0)
    return Codebook(trajs, basis_tokens_ref(1, len(trajs), 8, 6), 6)


@pytest.fixture(scope="module")
def small_clf(small_cb):
    return classifier_init_ref(rng_for(0, "clf-test"), small_cb.n_code,
                               small_cb.group_size, 16)


def near_zero_noise() -> dict:
    return gp_scalars_ref(log_noise_recon=np.log(1e-5), log_noise_traj=np.log(1e-5))


def noise_var(log_noise: float) -> float:
    return math.exp(2.0 * log_noise)


def inference(cb, clf, p) -> GpInference:
    """The GP module over the codebook's basis, the ``clf.*`` weights and the
    ``gp.*`` scalars."""
    return GpInference(cb, {"cb.basis": cb.basis} | clf | p)


def k_star(inf: GpInference, tokens, groups):
    """The k* of token rows under given groups, with the groups as an array."""
    groups = np.atleast_1d(groups)
    return inf.k_star(inf.kernel_features(np.atleast_2d(tokens)), groups), groups


def reconstruct(cb, clf, p, tokens, groups):
    """``GpInference.reconstruct`` of token rows under given groups, as arrays."""
    inf = inference(cb, clf, p)
    mean, var = inf.reconstruct(*k_star(inf, tokens, groups))
    return mean.data, var.data


def predict(cb, clf, p, tokens, groups):
    """``GpInference.predict_trajectory`` of token rows under given groups."""
    inf = inference(cb, clf, p)
    mean, var = inf.predict_trajectory(*k_star(inf, tokens, groups))
    return mean.data, var.data


def oracle(cb, p, token, gid, head: str):
    """``gp_oracle`` of one token under group ``gid``: the reconstruction head
    (targets = basis) or the trajectory head."""
    targets, log_noise = ((cb.basis[gid], p["gp.log_noise_recon"]) if head == "recon"
                          else (cb.trajectories[gid], p["gp.log_noise_traj"]))
    return gp_oracle(cb.basis[gid], targets, token, math.exp(p["gp.log_lengthscale"]),
                     math.exp(p["gp.log_outputscale"]), noise_var(log_noise))


def test_reconstruct_interpolates_basis_token(small_cb, small_clf):
    p = near_zero_noise()
    tok = small_cb.basis[2, 3].copy()
    recon, var = reconstruct(small_cb, small_clf, p, tok, 2)
    assert np.max(np.abs(recon[0] - tok)) < 1e-4
    assert var[0] <= 1e-6 + noise_var(p["gp.log_noise_recon"])


def test_reconstruct_far_token_reverts_to_anchor(small_cb, small_clf):
    p = gp_scalars_ref()
    tok = np.full(6, 80.0)  # effectively infinite kernel distance
    recon, var = reconstruct(small_cb, small_clf, p, tok, 1)
    assert np.allclose(recon[0], small_cb.basis.mean(axis=1)[1], atol=1e-8)
    assert var[0] == pytest.approx(1.0 + noise_var(p["gp.log_noise_recon"]))


def test_predict_interpolates_paired_trajectory(small_cb, small_clf):
    p = near_zero_noise()
    mean, _ = predict(small_cb, small_clf, p, small_cb.basis[4, 0].copy(), 4)
    assert np.max(np.abs(mean[0] - small_cb.trajectories[4, 0])) < 1e-4


def test_predict_far_token_returns_anchor_trajectory(small_cb, small_clf):
    p = gp_scalars_ref()
    mean, var = predict(small_cb, small_clf, p, np.full(6, -90.0), 3)
    assert mean.shape == (1, 12) and var.shape == (1,)
    assert np.allclose(mean[0], small_cb.traj_anchors[3], atol=1e-8)
    assert var[0] == pytest.approx(1.0 + noise_var(p["gp.log_noise_traj"]))


def test_matches_dense_inverse_oracle(small_cb, small_clf):
    rng = np.random.default_rng(3)
    p = gp_scalars_ref(log_lengthscale=0.2, log_outputscale=-0.1,
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
    p = gp_scalars_ref(log_noise_recon=np.log(0.1), log_noise_traj=np.log(0.1))
    tok = np.linspace(-1, 1, 6)
    _, var_rec = reconstruct(small_cb, small_clf, p, tok, 5)
    _, var_traj = predict(small_cb, small_clf, p, tok, 5)
    assert var_rec[0] == pytest.approx(var_traj[0], abs=1e-12)


def test_classifier_masking_and_determinism(small_cb, small_clf):
    p = gp_scalars_ref()
    inf = inference(small_cb, small_clf, p)
    tok = np.linspace(-0.5, 0.5, 6)[None]
    left_mask = admissible(small_cb, [Command.TURN_LEFT])
    *_, logits1, g1 = inf.predict_rows(tok, left_mask)
    *_, logits2, g2 = inf.predict_rows(tok, left_mask)
    assert g1 == g2 and np.array_equal(logits1, logits2)
    left = group_ids_ref(small_cb, Command.TURN_LEFT)
    assert g1[0] in left
    assert np.all(np.isneginf(np.delete(logits1[0], left)))
    want, want_logits = classify_ref(tok[0], Command.TURN_LEFT, small_cb, small_clf | p)
    assert g1[0] == want
    assert np.allclose(logits1[0][left], want_logits[left], rtol=0, atol=1e-12)
    *_, ga = inf.predict_rows(tok, admissible(small_cb, [None]))
    assert ga[0] in group_ids_ref(small_cb, None)


def test_variance_lower_bound_and_monotonicity(small_cb, small_clf):
    p = gp_scalars_ref(log_noise_traj=np.log(0.05))
    rng = np.random.default_rng(8)
    _, var = predict(small_cb, small_clf, p, rng.normal(size=(50, 6)), np.zeros(50, int))
    assert np.all(var >= noise_var(p["gp.log_noise_traj"]) - 1e-15)
    # moving the query towards the basis cloud decreases variance
    direction = rng.normal(size=6)
    direction /= np.linalg.norm(direction)
    base = small_cb.basis.mean(axis=1)[0]
    toks = np.stack([base + r * direction for r in (0.5, 2.0, 6.0, 20.0)])
    _, by_dist = predict(small_cb, small_clf, p, toks, np.zeros(4, int))
    assert all(a <= b + 1e-12 for a, b in zip(by_dist, by_dist[1:]))


def test_predict_scene_shapes_and_order(small_cb, small_clf):
    p = gp_scalars_ref()
    rng = np.random.default_rng(5)
    inf = inference(small_cb, small_clf, p)
    egos = rng.normal(size=(3, 6))
    mean, var, logits, groups = inf.predict_scene(egos, [Command.GO_STRAIGHT] * 3)
    assert (mean.shape, var.shape, logits.shape, groups.shape) == (
        (3, 12), (3,), (3, small_cb.n_code), (3,))
    straight = group_ids_ref(small_cb, Command.GO_STRAIGHT)
    assert all(g in straight for g in groups)
    # each row as if it were alone: no row's prediction depends on another's
    for i in range(3):
        alone = inf.predict_scene(egos[i:i + 1], [Command.GO_STRAIGHT])
        assert alone[3][0] == groups[i]
        assert np.allclose(alone[0][0], mean[i], rtol=0, atol=1e-12)


def test_forced_group_reproduces_basis_trajectory_end_to_end(small_cb, small_clf):
    # classifier forced via a single-group admissible mask
    p = near_zero_noise()
    gid = group_ids_ref(small_cb, Command.TURN_LEFT)[0]
    only = np.arange(small_cb.n_code)[None, :] == gid
    mean, _, _, groups = inference(small_cb, small_clf, p).predict_rows(
        small_cb.basis[gid, 2][None], only)
    assert groups.tolist() == [gid]
    assert np.max(np.abs(mean[0] - small_cb.trajectories[gid, 2])) < 1e-3


def test_predict_scene_matches_oracle(small_cb, small_clf):
    p = gp_scalars_ref(log_lengthscale=0.1, log_noise_traj=np.log(0.03))
    inf = inference(small_cb, small_clf, p)
    commands = [c for c in COMMANDS for _ in range(4)]
    toks = np.random.default_rng(12).normal(size=(len(commands), 6))
    mean, var, logits, groups = inf.predict_scene(toks, commands)
    for tok, command, m2, v2, l2, g2 in zip(toks, commands, mean, var, logits, groups,
                                           strict=True):
        gid, want_logits = classify_ref(tok, command, small_cb, small_clf | p)
        assert g2 == gid
        assert np.array_equal(np.isneginf(l2), np.isneginf(want_logits))
        want_mean, want_var = oracle(small_cb, p, tok, gid, "traj")
        assert np.allclose(m2, want_mean, rtol=0, atol=1e-8)
        assert v2 == pytest.approx(want_var, rel=0, abs=1e-8)


def mixed_rows(cb, n_per_role: int, rng):
    """Token rows and admissible masks of ego rows under every command, then
    agent rows; the rows' commands (None for an agent) with them."""
    commands = [c for c in COMMANDS for _ in range(n_per_role)] + [None] * n_per_role
    tokens = rng.normal(scale=1.5, size=(len(commands), cb.basis.shape[-1]))
    return tokens, admissible(cb, commands), commands


def test_predict_rows_matches_per_token_reference(small_cb, small_clf, monkeypatch):
    p = gp_scalars_ref(log_lengthscale=0.1, log_outputscale=0.05,
                 log_noise_traj=np.log(0.07))
    tokens, masks, commands = mixed_rows(small_cb, 6, np.random.default_rng(21))
    # blocks of at most 5 rows: 24 rows are 6 blocks of 4
    monkeypatch.setattr(gpmodule, "BLOCK_ROWS", 5)
    mean, var, logits, groups = inference(small_cb, small_clf, p).predict_rows(
        tokens, masks)
    assert mean.shape == (len(tokens), 12) and var.shape == (len(tokens),)
    for i, (tok, command) in enumerate(zip(tokens, commands)):
        gid, want_logits = classify_ref(tok, command, small_cb, small_clf | p)
        assert groups[i] == gid
        assert np.array_equal(np.isneginf(logits[i]), np.isneginf(want_logits))
        assert np.allclose(logits[i][masks[i]], want_logits[masks[i]],
                           rtol=0, atol=1e-12)
        want_mean, want_var = oracle(small_cb, p, tok, gid, "traj")
        assert np.allclose(mean[i], want_mean, rtol=0, atol=1e-8)
        assert var[i] == pytest.approx(want_var, rel=0, abs=1e-8)


def test_each_call_conditions_the_groups_it_routes_to(small_cb, small_clf, factored):
    # one stack per call, of that call's distinct groups, unless the call
    # before routed to the same groups; both heads of one call share it
    p = gp_scalars_ref(log_lengthscale=0.1, log_noise_traj=np.log(0.07))
    tokens, masks, _ = mixed_rows(small_cb, 6, np.random.default_rng(23))
    inf = inference(small_cb, small_clf, p)
    assert factored == []  # construction conditions nothing
    groups = [inf.predict_rows(tokens[i:j], masks[i:j])[3]
              for i, j in ((0, 5), (5, 12), (0, 12), (12, 24), (3, 20))]
    routed = [np.unique(g).tolist() for g in groups]
    assert routed[2] == routed[1]  # rows 0 to 12 keep rows 5 to 12's conditioning
    assert factored == [len(r) for i, r in enumerate(routed)
                        if i == 0 or r != routed[i - 1]]
    factored.clear()
    k_star = inf.k_star(inf.kernel_features(tokens[:12]), groups[2])
    inf.reconstruct(k_star, groups[2])
    inf.predict_trajectory(k_star, groups[2])
    assert factored == [len(np.unique(groups[2]))]


@pytest.mark.parametrize("second", [[9, 2, 9, 8], [1, 5, 5, 1]])
def test_a_call_on_other_groups_equals_a_new_graph(small_cb, small_clf, second):
    # a graph keeps its conditioning only while calls route to the same
    # groups: a later call on groups above or between the first call's
    # conditions its own, as a new graph would
    p = gp_scalars_ref(log_lengthscale=0.1, log_noise_recon=np.log(0.04),
                       log_noise_traj=np.log(0.07))
    w = {"cb.basis": parameter(small_cb.basis)} | {n: parameter(a) for n, a in
                                                   (small_clf | p).items()}
    toks = np.random.default_rng(19).normal(size=(4, 6))

    def heads(graph: GpGraph, groups) -> list[bytes]:
        groups = np.array(groups)
        k_star = graph.k_star(graph.kernel_features(toks[:len(groups)]), groups)
        return [t.data.tobytes() for t in graph.predict_trajectory(k_star, groups)
                + graph.reconstruct(k_star, groups)]

    graph = GpGraph(small_cb, w)
    heads(graph, [0, 3, 3, 7])
    assert heads(graph, second) == heads(GpGraph(small_cb, w), second)


def test_predictions_do_not_depend_on_call_order_or_split(small_cb, small_clf):
    # a group's conditioning is the same bytes whatever groups share its
    # stack, so neither the calls before a call nor the split of the rows
    # over calls moves a prediction
    p = gp_scalars_ref(log_lengthscale=0.1, log_noise_traj=np.log(0.07))
    rng = np.random.default_rng(29)
    tokens, masks, _ = mixed_rows(small_cb, 8, rng)
    want = inference(small_cb, small_clf, p).predict_rows(tokens, masks)
    for split in (1, 2, 5):
        inf = inference(small_cb, small_clf, p)
        order = rng.permutation(len(tokens))
        got = [np.empty_like(a) for a in want]
        for rows in np.array_split(order, split):
            for a, part in zip(got, inf.predict_rows(tokens[rows], masks[rows])):
                a[rows] = part
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert inf.predict_rows(tokens, masks)[0].tobytes() == want[0].tobytes()


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes ``predict_rows`` see ``n`` CPUs from then on, with
    no worker thread started yet; the workers the test starts stop at its
    end."""
    before = gpmodule._pool

    def stop():
        if gpmodule._pool not in (None, before):
            gpmodule._pool.shutdown()

    def set_cpus(n: int):
        stop()
        monkeypatch.setattr(gpmodule, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    yield set_cpus
    stop()


def default_size_rows(n: int):
    """A maker of fresh GpInference objects at the default ModelSpec sizes
    (48 ego and 64 agent groups of 16 basis tokens of 32 dims, 128 hidden
    classifier units) over random trajectories, and ``n`` token rows near
    their basis tokens with the admissible masks of mixed commands."""
    spec = ModelSpec()
    n_code = spec.n_ego + spec.n_agent
    rng = np.random.default_rng(31)
    cb = Codebook(rng.normal(size=(n_code, spec.group_size, 12)),
                  basis_tokens_ref(2, n_code, spec.group_size, spec.token_dim), spec.n_ego)
    clf = classifier_init_ref(rng, n_code, spec.group_size, spec.classifier_hidden)
    p = gp_scalars_ref(log_lengthscale=-0.5, log_noise_traj=np.log(0.07))
    tokens = (cb.basis[rng.integers(n_code, size=n), rng.integers(spec.group_size, size=n)]
              + rng.normal(scale=0.05, size=(n, spec.token_dim)))
    commands = [(None, *COMMANDS)[i % 4] for i in range(n)]
    return functools.partial(inference, cb, clf, p), tokens, admissible(cb, commands)


def block_cuts(n: int, rows: int) -> list[int]:
    """The first row of each ``predict_rows`` block of an n-row call, then
    n: one block up to ``rows`` rows, else an even count of near-equal
    blocks of at most ``rows`` rows."""
    parts = 1 if n <= rows else 2 * math.ceil(n / (2 * rows))
    return [n * k // parts for k in range(parts + 1)]


@pytest.mark.parametrize("size", ["toy", "default"])
def test_lanes_and_block_slices_give_the_same_bytes(size, small_cb, small_clf, cpus,
                                                     monkeypatch):
    # a block's bytes depend on its row count, so lanes must take whole
    # blocks cut where a one-lane call cuts them, and the conditioning of all
    # rows at once must equal that of each block alone
    if size == "toy":
        p = gp_scalars_ref(log_lengthscale=0.1, log_noise_traj=np.log(0.07))
        tokens, masks, _ = mixed_rows(small_cb, 6, np.random.default_rng(37))
        monkeypatch.setattr(gpmodule, "BLOCK_ROWS", 5)
        fresh = functools.partial(inference, small_cb, small_clf, p)
    else:
        fresh, tokens, masks = default_size_rows(800)
    inf = fresh()
    cuts = block_cuts(len(tokens), gpmodule.BLOCK_ROWS)
    assert len(cuts) == 7  # 6 blocks: 4 rows each (toy), 133 or 134 (default)
    threads = []  # the thread of each block
    real = GpInference.kernel_features

    def kernel_features(self, rows):
        threads.append(threading.current_thread())
        return real(self, rows)

    monkeypatch.setattr(GpInference, "kernel_features", kernel_features)
    by_lanes = {}
    for lanes in (1, 2, 4):
        cpus(lanes)
        threads.clear()
        by_lanes[lanes] = [a.tobytes() for a in fresh().predict_rows(tokens, masks)]
        # the caller is a lane; a worker may run two lanes one after the other
        assert len(threads) == len(cuts) - 1
        assert threading.main_thread() in threads
        assert (len(set(threads)) > 1) == (lanes > 1)
    assert by_lanes[2] == by_lanes[1] and by_lanes[4] == by_lanes[1]
    sliced = [inf.predict_rows(tokens[i:j], masks[i:j]) for i, j in zip(cuts, cuts[1:])]
    assert [np.concatenate(parts).tobytes() for parts in zip(*sliced)] == by_lanes[1]


def test_rows_of_a_call_above_one_block_do_not_depend_on_the_call():
    # no block is short: a call of fewer than 73 rows is padded to 73, and
    # no block of a call above one block's rows is a short tail, so each row
    # has the bytes of the same row in the 800-row call; unpadded, calls of
    # 1 to 10 rows differed, and 731 and 148 rows cut at multiples of 146
    # would end in a 1-row and a 2-row block
    fresh, tokens, masks = default_size_rows(800)
    inf = fresh()
    rows = gpmodule.BLOCK_ROWS
    assert rows == 146
    want = inf.predict_rows(tokens, masks)
    differ = [n for n in sorted({*range(1, 161), *range(rows + 1, 800, 53), 731})
              if [a.tobytes() for a in inf.predict_rows(tokens[:n], masks[:n])]
              != [a[:n].tobytes() for a in want]]
    assert differ == []


def test_a_worker_lane_error_reaches_the_caller_as_itself(small_cb, small_clf, cpus,
                                                           monkeypatch):
    p = gp_scalars_ref(log_lengthscale=0.1)
    tokens, masks, _ = mixed_rows(small_cb, 6, np.random.default_rng(41))
    monkeypatch.setattr(gpmodule, "BLOCK_ROWS", 5)
    cpus(2)
    inf = inference(small_cb, small_clf, p)
    real = GpInference.kernel_features

    def too_narrow_in_workers(self, rows):
        if threading.current_thread() is not threading.main_thread():
            rows = rows[:, :-1]
        return real(self, rows)

    with monkeypatch.context() as m:
        m.setattr(GpInference, "kernel_features", too_narrow_in_workers)
        with pytest.raises(ValueError, match="^token dimension mismatch: 5 vs 6$") as exc:
            inf.predict_rows(tokens, masks)
    assert exc.type is ValueError
    with pytest.raises(ValueError, match="^token dimension mismatch: 5 vs 6$"):
        inf.predict_rows(tokens[:, :-1], masks)  # in every lane
    # the worker outlives the errors
    want = inference(small_cb, small_clf, p).predict_rows(tokens, masks)
    got = inf.predict_rows(tokens, masks)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_a_forked_child_runs_calls_above_one_block(cpus):
    # a child forked after a call that started the worker lane has no thread
    # behind the pool it inherits, so it must start its own; the alarm ends
    # a child that waits on the parent's pool
    cpus(2)
    fresh, tokens, masks = default_size_rows(300)
    want = b"".join(a.tobytes() for a in fresh().predict_rows(tokens, masks))
    assert gpmodule._pool is not None
    pid = os.fork()
    if pid == 0:  # the child reports through its exit code
        code = 1
        try:
            signal.alarm(20)
            got = fresh().predict_rows(tokens, masks)
            code = 0 if b"".join(a.tobytes() for a in got) == want else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_not_psd_names_the_lowest_failing_routed_group(small_cb, small_clf, cpus,
                                                       monkeypatch):
    # all lanes classify before one conditioning of every routed group, so
    # of two failing groups the lower id is named, whichever block routes first
    p = gp_scalars_ref(log_lengthscale=0.1)
    rng = np.random.default_rng(43)
    tokens, masks, _ = mixed_rows(small_cb, 6, rng)
    order = rng.permutation(len(tokens))
    tokens, masks = tokens[order], masks[order]
    rows = 5
    monkeypatch.setattr(gpmodule, "BLOCK_ROWS", rows)
    cpus(2)
    groups = inference(small_cb, small_clf, p).predict_rows(tokens, masks)[3]
    first_block = {}
    cuts = block_cuts(len(tokens), rows)
    for i, g in enumerate(groups.tolist()):
        first_block.setdefault(g, int(np.searchsorted(cuts, i, side="right")) - 1)
    lo, hi = next((lo, hi) for lo in sorted(first_block) for hi in sorted(first_block)
                  if lo < hi and first_block[lo] > first_block[hi])
    real = psdlinalg.group_gram_t

    def failing(basis, ids, *scalars):
        gram = real(basis, ids, *scalars)
        gram.data[np.isin(ids, [lo, hi])] = -np.eye(gram.shape[-1])
        return gram

    monkeypatch.setattr(psdlinalg, "group_gram_t", failing)
    with pytest.raises(NotPSD, match=f"^group {lo}: matrix not positive definite") as exc:
        inference(small_cb, small_clf, p).predict_rows(tokens, masks)
    assert exc.value.group == lo


def test_graph_path_matches_inference_path(small_cb, small_clf):
    # a GpGraph over tracked parameters computes what GpInference computes
    # over constants, and its backward reaches every parameter family
    p = gp_scalars_ref(log_lengthscale=0.15, log_outputscale=-0.05,
                 log_noise_recon=np.log(0.04), log_noise_traj=np.log(0.06))
    basis = parameter(small_cb.basis)
    clf_vars = {n: parameter(a) for n, a in small_clf.items()}
    scalars = [parameter(a) for a in p.values()]
    graph = GpGraph(small_cb, {"cb.basis": basis} | clf_vars | dict(zip(p, scalars)))
    inf = inference(small_cb, small_clf, p)
    toks = np.random.default_rng(17).normal(size=(4, 6))
    groups = np.array([3, 3, 0, 9])
    feats = graph.kernel_features(toks)
    inf_feats = inf.kernel_features(toks)
    assert np.allclose(feats.data, inf_feats.data, rtol=0, atol=1e-12)
    logits = graph.classifier_logits(feats)
    assert np.allclose(logits.data, inf.classifier_logits(inf_feats).data,
                       rtol=0, atol=1e-12)
    recon, var = graph.reconstruct(graph.k_star(feats, groups), groups)
    mean, var_t = graph.predict_trajectory(graph.k_star(feats, groups), groups)
    inf_k_star = inf.k_star(inf_feats, groups)
    for got, want in zip((recon, var, mean, var_t),
                         inf.reconstruct(inf_k_star, groups)
                         + inf.predict_trajectory(inf_k_star, groups)):
        assert np.allclose(got.data, want.data, rtol=0, atol=1e-12)
    for i, (tok, gid) in enumerate(zip(toks, groups)):
        want_recon, want_var = oracle(small_cb, p, tok, gid, "recon")
        assert np.allclose(recon.data[i], want_recon, atol=1e-8)
        assert var.data[i] == pytest.approx(want_var, abs=1e-8)
    loss = autodiff.tsum(autodiff.add(
        autodiff.add(autodiff.tsum(recon), autodiff.tsum(var)),
        autodiff.add(autodiff.tsum(logits), autodiff.tsum(var_t))))
    autodiff.backward(loss)
    assert np.any(basis.grad[3] != 0.0)
    for leaf in list(clf_vars.values()) + scalars:
        assert leaf.grad is not None and np.any(leaf.grad != 0.0)
    assert inf.log_ell.grad is None  # the constants build no tape


def test_classifier_learns_two_separated_modes(small_cb):
    # two well-separated token clusters mapped to two agent groups; a freshly
    # initialized classifier must reach >= 95% held-out accuracy after training
    rng = rng_for(0, "clf-train")
    cb = small_cb
    p = gp_scalars_ref()
    ids = group_ids_ref(cb, None)[:2]
    centers = {gid: cb.basis.mean(axis=1)[gid] + 0.8 for gid in ids}
    centers[ids[1]] = cb.basis.mean(axis=1)[ids[1]] - 0.8
    clf = classifier_init_ref(rng, cb.n_code, cb.group_size, 16)
    w = {"w1": parameter(clf["clf.w1"]), "b1": parameter(clf["clf.b1"]),
         "w2": parameter(clf["clf.w2"]), "b2": parameter(clf["clf.b2"])}
    opt = Adam(w, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)
    inf = inference(cb, clf, p)
    adm = admissible(cb, [None])
    for _ in range(300):
        total = Tensor(0.0)
        for _ in range(8):
            label = ids[int(rng.integers(2))]
            tok = centers[label] + rng.normal(scale=0.3, size=6)
            feats = inf.kernel_features(tok[None]).data
            h = autodiff.tanh(autodiff.add(
                autodiff.matmul(feats, autodiff.transpose(w["w1"])), w["b1"]))
            logits = autodiff.add(autodiff.matmul(h, autodiff.transpose(w["w2"])), w["b2"])
            ce = cross_entropy(MaskedLogSoftmax(logits, adm), [label])
            total = autodiff.add(total, autodiff.tsum(ce))
        autodiff.grad(autodiff.mul(total, 1 / 8), w, out=opt.grads)
        opt.step()
    trained = {f"clf.{n}": t.data for n, t in w.items()}
    labels, toks = [], []
    for _ in range(200):
        labels.append(ids[int(rng.integers(2))])
        toks.append(centers[labels[-1]] + rng.normal(scale=0.3, size=6))
    *_, got = inference(cb, trained, p).predict_rows(
        np.stack(toks), np.repeat(adm, len(labels), axis=0))
    assert np.mean(got == np.array(labels)) >= 0.95
