"""Clustering, anchors, basis initialization, and admissibility."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj.codebook import (BuildError, Role, admissible_groups,
                             admissible_mask, init_basis_tokens, nearest_group,
                             sample_and_cluster)
from gptraj.core import COMMANDS, Command, Trajectory, traj_distance


def straight(speed: float, jitter: float = 0.0, rng=None) -> Trajectory:
    t = 0.5 * np.arange(1, 7)
    pts = np.stack([speed * t, np.zeros(6)], axis=1)
    if rng is not None:
        pts = pts + rng.normal(scale=jitter, size=pts.shape)
    return Trajectory(pts)


def curved(speed: float, curv: float) -> Trajectory:
    t = 0.5 * np.arange(1, 7)
    th = curv * speed * t
    return Trajectory(np.stack([np.sin(th) / curv, (1 - np.cos(th)) / curv], axis=1))


def corpus(n_per_cmd=24, n_agent=40, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for cmd, curv in ((Command.TURN_LEFT, 0.05), (Command.TURN_RIGHT, -0.05)):
        for _ in range(n_per_cmd):
            out.append((curved(rng.uniform(3, 12), curv + rng.normal(0, 0.01)), cmd, True))
    for _ in range(n_per_cmd):
        out.append((straight(rng.uniform(3, 12), 0.05, rng), Command.GO_STRAIGHT, True))
    for _ in range(n_agent):
        out.append((straight(rng.uniform(3, 12), 0.3, rng), Command.GO_STRAIGHT, False))
    return out


def test_speed_clusters_are_pure():
    # three well-separated speed families in one bucket; every member must be
    # nearer its own centroid than any other (brute-force assignment check)
    trajs = []
    rng = np.random.default_rng(1)
    for speed in (2.0, 8.0, 14.0):
        for _ in range(12):
            trajs.append((straight(speed, 0.05, rng), Command.GO_STRAIGHT, False))
    for cmd in COMMANDS:  # minimal ego data per command bucket
        for _ in range(8):
            trajs.append((straight(6.0, 0.05, rng), cmd, True))
    cb = sample_and_cluster(trajs, n_ego_groups=3, n_agent_groups=3,
                            group_size=8, token_dim=4, seed=0)
    agent_groups = [cb.group(i) for i in cb.agent_group_ids]
    for g in agent_groups:
        anchor = Trajectory.from_flat(g.traj_anchor)
        others = [o for o in agent_groups if o.group_id != g.group_id]
        for row in g.trajectories:
            member = Trajectory.from_flat(row)
            d_own = traj_distance(member, anchor)
            for o in others:
                assert d_own <= traj_distance(
                    member, Trajectory.from_flat(o.traj_anchor)) + 1e-9


def test_agent_speed_families_separate():
    trajs = []
    rng = np.random.default_rng(2)
    for speed in (2.0, 8.0, 14.0):
        for _ in range(10):
            trajs.append((straight(speed, 0.02, rng), Command.GO_STRAIGHT, False))
    # minimal ego data so the build succeeds
    for cmd in COMMANDS:
        for _ in range(4):
            trajs.append((straight(6.0, 0.02, rng), cmd, True))
    cb = sample_and_cluster(trajs, 3, 3, group_size=4, token_dim=4, seed=1)
    speeds_per_group = []
    for gid in cb.agent_group_ids:
        xs = cb.group(gid).trajectories[:, 0]  # first-waypoint x ~ 0.5 * speed
        speeds_per_group.append(xs.mean() * 2.0)
        assert xs.std() * 2.0 < 2.0  # one speed family per group
    assert sorted(np.round(speeds_per_group)) == [2.0, 8.0, 14.0]


def test_identical_trajectories_degenerate_cluster():
    t = straight(5.0)
    trajs = [(t, cmd, True) for cmd in COMMANDS for _ in range(4)]
    trajs += [(t, Command.GO_STRAIGHT, False) for _ in range(4)]
    cb = sample_and_cluster(trajs, 3, 1, group_size=4, token_dim=4, seed=0)
    g = cb.group(cb.agent_group_ids[0])
    assert np.allclose(g.traj_anchor, t.flat)
    assert np.allclose(g.traj_centered, 0.0)


def test_no_group_mixes_commands():
    cb = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=4, seed=3)
    for cmd in COMMANDS:
        ids = set(cb.command_groups[cmd])
        for other in COMMANDS:
            if other != cmd:
                assert ids.isdisjoint(cb.command_groups[other])
    assert set(admissible_groups(cb, Role.agent())) == set(cb.agent_group_ids)


def test_insufficient_trajectories_raise_with_counts():
    trajs = [(straight(5.0), Command.TURN_LEFT, True)]
    with pytest.raises(BuildError, match="required"):
        sample_and_cluster(trajs, 3, 1, group_size=4, token_dim=4, seed=0)


def test_centered_rows_mean_zero():
    cb = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=4, seed=3)
    for g in cb.groups:
        assert np.max(np.abs(g.traj_centered.mean(axis=0))) < 1e-9


def test_cluster_stability_same_seed():
    a = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=4, seed=7)
    b = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=4, seed=7)
    for ga, gb in zip(a.groups, b.groups):
        assert np.array_equal(ga.trajectories, gb.trajectories)


def test_init_basis_tokens_deterministic_and_shaped():
    cb = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=32, seed=0)
    init_basis_tokens(cb, rng_seed=9)
    first = [g.basis_tokens.copy() for g in cb.groups]
    init_basis_tokens(cb, rng_seed=9)
    for f, g in zip(first, cb.groups):
        assert np.array_equal(f, g.basis_tokens)
        assert g.basis_tokens.shape == (8, 32)


def test_init_basis_variance_near_1_over_d():
    cb = sample_and_cluster(corpus(n_per_cmd=40, n_agent=700), 3, 20,
                            group_size=32, token_dim=16, seed=0)
    init_basis_tokens(cb, rng_seed=4)
    samples = np.concatenate([g.basis_tokens.reshape(-1) for g in cb.groups])
    assert samples.size >= 10_000
    assert abs(samples.var() - 1.0 / 16) < 0.2 / 16


def test_token_anchor_tracks_updates():
    cb = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=4, seed=0)
    init_basis_tokens(cb, rng_seed=0)
    g = cb.group(0)
    assert np.allclose(g.token_anchor, g.basis_tokens.mean(axis=0))
    g.basis_tokens[0] += 5.0  # simulated optimizer step
    assert np.allclose(g.token_anchor, g.basis_tokens.mean(axis=0))


def test_bijection_shapes():
    cb = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=4, seed=0)
    init_basis_tokens(cb, rng_seed=0)
    for g in cb.groups:
        assert g.basis_tokens.shape[0] == g.trajectories.shape[0] == cb.group_size


def test_admissible_group_counts_default_partition():
    cb = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=4, seed=0)
    for cmd in COMMANDS:
        assert len(admissible_groups(cb, Role.ego(cmd))) == 2
    assert len(admissible_groups(cb, Role.agent())) == 4


def test_nearest_group_respects_command():
    cb = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=4, seed=0)
    mask = admissible_mask(cb, Role.ego(Command.TURN_LEFT))
    [gid] = nearest_group(cb, curved(6.0, 0.05).flat[None, :], mask[None, :])
    assert gid in cb.command_groups[Command.TURN_LEFT]


def test_nearest_group_matches_loop_reference():
    cb = sample_and_cluster(corpus(), 6, 4, group_size=8, token_dim=4, seed=0)
    rng = np.random.default_rng(4)
    trajs = [traj for traj, _, _ in corpus(seed=9)]
    roles = [Role.ego(COMMANDS[int(rng.integers(3))]) if rng.random() < 0.5
             else Role.agent() for _ in trajs]
    got = nearest_group(cb, np.stack([t.flat for t in trajs]),
                        np.stack([admissible_mask(cb, r) for r in roles]))
    for traj, role, gid in zip(trajs, roles, got):
        ids = admissible_groups(cb, role)
        dists = [traj_distance(traj, Trajectory.from_flat(cb.group(i).traj_anchor))
                 for i in ids]
        assert gid == ids[int(np.argmin(dists))]
