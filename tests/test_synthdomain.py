"""Generator kinematics against quadrature, mirroring, and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj import synthdomain
from gptraj.core import Command, load_dataset, rng_for, validate_record
from gptraj.evalmetrics import collision
from gptraj.synthdomain import (AGENT_FOOTPRINT, arc_points,
                                build_obs_transform, gen_dataset, gen_scene,
                                strip_labels)

from conftest import TINY_OBS_DIM, tiny_domain
from oracles import arc_position_quadrature, collision_reference


def test_straight_line_kinematics():
    pts = arc_points(speed=7.0, curvature=0.0)
    for k in range(6):
        assert np.allclose(pts[k], [0.5 * (k + 1) * 7.0, 0.0])


def test_arc_matches_quadrature_oracle():
    for speed, curv in ((5.0, 0.05), (12.0, -0.08), (3.0, 0.001)):
        pts = arc_points(speed, curv)
        for k, t in enumerate(0.5 * np.arange(1, 7)):
            want = arc_position_quadrature(speed, curv, t)
            assert np.max(np.abs(pts[k] - want)) < 1e-9


def test_arc_points_lie_on_circle():
    speed, curv = 8.0, 0.06
    pts = arc_points(speed, curv)
    center = np.array([0.0, 1.0 / curv])
    radii = np.linalg.norm(pts - center, axis=1)
    assert np.allclose(radii, 1.0 / curv, atol=1e-9)


def test_mirror_flips_every_y_same_seed():
    plain = tiny_domain(name="m", mirror=False)
    flipped = tiny_domain(name="m", mirror=True)
    a = gen_scene(plain, rng_for(3, "scene", 0), obs_dim=TINY_OBS_DIM)
    b = gen_scene(flipped, rng_for(3, "scene", 0), obs_dim=TINY_OBS_DIM)
    assert np.allclose(b.ego_gt.points[:, 0], a.ego_gt.points[:, 0])
    assert np.allclose(b.ego_gt.points[:, 1], -a.ego_gt.points[:, 1])
    for ta, tb in zip(a.agent_gt, b.agent_gt):
        assert np.allclose(tb.points[:, 1], -ta.points[:, 1])


def test_mirror_swaps_turn_labels():
    plain = tiny_domain(name="m", mirror=False)
    flipped = tiny_domain(name="m", mirror=True)
    swap = {Command.TURN_LEFT: Command.TURN_RIGHT,
            Command.TURN_RIGHT: Command.TURN_LEFT,
            Command.GO_STRAIGHT: Command.GO_STRAIGHT}
    for i in range(20):
        a = gen_scene(plain, rng_for(9, "scene", i), obs_dim=TINY_OBS_DIM)
        b = gen_scene(flipped, rng_for(9, "scene", i), obs_dim=TINY_OBS_DIM)
        assert b.command == swap[a.command]


def test_gen_dataset_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    records = gen_dataset(tiny_domain(), 0, seed=0, path=path,
                          obs_dim=TINY_OBS_DIM)
    assert records == []
    assert path.read_text() == ""


def test_gen_dataset_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    gen_dataset(tiny_domain(), 25, seed=4, path=p1, obs_dim=TINY_OBS_DIM)
    gen_dataset(tiny_domain(), 25, seed=4, path=p2, obs_dim=TINY_OBS_DIM)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = load_dataset(p1)
    assert len(loaded) == 25
    for rec in loaded:
        assert validate_record(rec) == []


def test_command_histogram_near_uniform():
    records = gen_dataset(tiny_domain(), 1000, seed=1, obs_dim=TINY_OBS_DIM)
    counts = {c: 0 for c in Command}
    for r in records:
        counts[r.command] += 1
    for c, n in counts.items():
        assert abs(n / 1000 - 1 / 3) < 0.05


def test_gt_collision_free_invariant():
    records = gen_dataset(tiny_domain(), 150, seed=8, obs_dim=TINY_OBS_DIM)
    for rec in records:
        assert not collision(rec.ego_gt, rec.agent_gt, rec.agent_footprints)


def test_records_unchanged_under_reference_collision(monkeypatch):
    # the generator's rejection sampling decides with the batched SAT pass;
    # the scalar reference loop must yield the same records, byte for byte
    domain = tiny_domain(speed=(1.0, 12.0))
    got = gen_dataset(domain, 120, seed=4, obs_dim=TINY_OBS_DIM)
    monkeypatch.setattr(synthdomain, "collision", collision_reference)
    want = gen_dataset(domain, 120, seed=4, obs_dim=TINY_OBS_DIM)
    assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]


def test_agent_metadata_consistent():
    records = gen_dataset(tiny_domain(), 60, seed=2, obs_dim=TINY_OBS_DIM)
    for rec in records:
        assert len(rec.agent_obs) == len(rec.agent_gt) == len(rec.agent_footprints)
        assert all(fp == AGENT_FOOTPRINT for fp in rec.agent_footprints)
        assert 0 <= rec.n_agents <= 4


def test_noise_ordering_changes_observations_only():
    quiet = tiny_domain(name="n", noise=0.0)
    loud = tiny_domain(name="n", noise=0.5)
    a = gen_scene(quiet, rng_for(5, "scene", 0), obs_dim=TINY_OBS_DIM)
    b = gen_scene(loud, rng_for(5, "scene", 0), obs_dim=TINY_OBS_DIM)
    assert np.allclose(a.ego_gt.points, b.ego_gt.points)
    assert not np.allclose(a.ego_obs, b.ego_obs)


def test_build_obs_transform_kinds():
    eye, bias = build_obs_transform({"kind": "identity"}, 6)
    assert np.array_equal(eye, np.eye(6)) and np.array_equal(bias, np.zeros(6))
    rot, _ = build_obs_transform({"kind": "rotation", "seed": 2, "angle": 0.3}, 6)
    assert np.allclose(rot @ rot.T, np.eye(6), atol=1e-10)  # orthogonal
    low, _ = build_obs_transform({"kind": "low_rank", "seed": 2, "rank": 3}, 6)
    assert np.linalg.matrix_rank(low) == 3
    with pytest.raises(ValueError, match="unknown obs_transform"):
        build_obs_transform({"kind": "warp"}, 6)


def test_strip_labels_removes_gt_only():
    records = gen_dataset(tiny_domain(), 5, seed=0, obs_dim=TINY_OBS_DIM)
    bare = strip_labels(records)
    for r, b in zip(records, bare):
        assert b.ego_gt is None and b.agent_gt is None
        assert b.scene_id == r.scene_id
        assert np.array_equal(b.ego_obs, r.ego_obs)
        assert len(b.agent_obs) == len(r.agent_obs)
