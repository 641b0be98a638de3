"""Generator kinematics against quadrature, mirroring, determinism, and the
round-batched rejection sampling against the one-candidate-at-a-time oracle."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from gptraj import config, core, synthdomain
from gptraj.core import Command, load_dataset, save_dataset, validate_record
from gptraj.evalmetrics import collision
from gptraj.synthdomain import (AGENT_FOOTPRINT, AGENT_RESAMPLE_ATTEMPTS,
                                arc_points, build_obs_transform, gen_dataset,
                                strip_labels)

from conftest import TINY_OBS_DIM, tiny_domain
from oracles import (arc_points_ref, arc_position_quadrature, gen_dataset_ref,
                     sample_agent_ref)


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


def test_arc_rows_match_scalar_closed_form_bit_for_bit():
    rng = np.random.default_rng(3)
    # both sides of the straight/arc threshold, signed zero, and random rows
    curvatures = np.concatenate([[0.0, -0.0, 1e-9, -1e-9, 0.999e-9, -0.999e-9],
                                 rng.normal(0.0, 0.05, 60)])
    speeds = rng.uniform(1.0, 20.0, len(curvatures))
    rows = arc_points(speeds, curvatures)
    assert rows.shape == (len(curvatures), 6, 2)
    for speed, curvature, row in zip(speeds, curvatures, rows):
        want = arc_points_ref(float(speed), float(curvature))
        assert row.tobytes() == want.tobytes()
        scalar = arc_points(float(speed), float(curvature))
        assert scalar.shape == (6, 2) and scalar.tobytes() == want.tobytes()


def test_mirror_flips_every_y_same_seed():
    plain = tiny_domain(name="m", mirror=False)
    flipped = tiny_domain(name="m", mirror=True)
    [a] = gen_dataset(plain, 1, seed=3, obs_dim=TINY_OBS_DIM)
    [b] = gen_dataset(flipped, 1, seed=3, obs_dim=TINY_OBS_DIM)
    assert np.allclose(b.ego_gt[:, 0], a.ego_gt[:, 0])
    assert np.allclose(b.ego_gt[:, 1], -a.ego_gt[:, 1])
    assert np.allclose(b.agent_gt[..., 1], -a.agent_gt[..., 1])


def test_mirror_swaps_turn_labels():
    plain = tiny_domain(name="m", mirror=False)
    flipped = tiny_domain(name="m", mirror=True)
    swap = {Command.TURN_LEFT: Command.TURN_RIGHT,
            Command.TURN_RIGHT: Command.TURN_LEFT,
            Command.GO_STRAIGHT: Command.GO_STRAIGHT}
    for a, b in zip(gen_dataset(plain, 20, seed=9, obs_dim=TINY_OBS_DIM),
                    gen_dataset(flipped, 20, seed=9, obs_dim=TINY_OBS_DIM)):
        assert b.command == swap[a.command]


def test_gen_dataset_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    records = gen_dataset(tiny_domain(), 0, seed=0, obs_dim=TINY_OBS_DIM)
    save_dataset(records, path)
    assert records == []
    assert path.read_text() == ""


def test_gen_dataset_rejects_negative_count():
    with pytest.raises(ValueError, match="^n_scenes must be non-negative, got -1$"):
        gen_dataset(tiny_domain(), -1, seed=0, obs_dim=TINY_OBS_DIM)


def test_gen_dataset_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(gen_dataset(tiny_domain(), 25, seed=4, obs_dim=TINY_OBS_DIM), p1)
    save_dataset(gen_dataset(tiny_domain(), 25, seed=4, obs_dim=TINY_OBS_DIM), p2)
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


def as_json(records):
    """Each record's JSON text, as ``save_dataset`` writes it, from a
    ``SceneRecord`` or an oracle's dict: unlike dicts compared with ``==``,
    the text tells -0.0 from 0.0."""
    return [json.dumps(r if isinstance(r, dict) else r.to_json_dict(), sort_keys=True,
                       allow_nan=False) for r in records]


@pytest.mark.parametrize("name", ["source_city", "target_city", "low_light",
                                  "motion_blur"])
def test_configured_domains_match_sequential_oracle(name):
    spec = config.resolve({}).domain(name)
    got = gen_dataset(spec, 150, seed=4)
    assert as_json(got) == as_json(gen_dataset_ref(spec, 150, 4, core.DEFAULT_OBS_DIM))


def test_tiny_domain_matches_sequential_oracle():
    # slow agents linger in front of the ego: more rejections per scene
    domain = tiny_domain(speed=(1.0, 12.0))
    got = gen_dataset(domain, 150, seed=4, obs_dim=TINY_OBS_DIM)
    assert as_json(got) == as_json(gen_dataset_ref(domain, 150, 4, TINY_OBS_DIM))


def forced(egos, hits):
    """A placement of candidates that keeps their draws, except that the k-th
    candidate of scene i lies on the scene's ego path for each k in
    ``hits[i]``, and every other candidate 1 km to the side: it collides
    exactly when chosen. ``calls`` counts each scene's candidates."""
    calls = Counter()

    def place(rng, points):
        i = rng.bit_generator.seed_seq.entropy[-1]  # the scene index key
        k, calls[i] = calls[i], calls[i] + 1
        return egos[i].copy() if k in hits.get(i, ()) else points + [0.0, 1000.0]
    place.calls = calls
    return place


def one_at_a_time(place):
    """The oracle's candidate sampler, placed by ``place``."""
    def sample(rng, speed_prior):
        a = sample_agent_ref(rng, speed_prior)
        a.points = place(rng, a.points)
        return a
    return sample


def per_round(place, sample_agents):
    """The generator's round sampler ``sample_agents``, placed by ``place``."""
    def sample(rngs, speed_prior):
        draws, points = sample_agents(rngs, speed_prior)
        return draws, np.array([place(rng, p) for rng, p in zip(rngs, points)])
    return sample


@pytest.mark.parametrize("hits, min_agents, kept, candidates", [
    # the first slot is accepted on its last attempt; the second slot's
    # attempts count from zero again
    ([*range(AGENT_RESAMPLE_ATTEMPTS - 1), AGENT_RESAMPLE_ATTEMPTS], 2, 0,
     AGENT_RESAMPLE_ATTEMPTS),
    # the first slot is dropped, the next one accepted at once
    (range(AGENT_RESAMPLE_ATTEMPTS), 2, -1, AGENT_RESAMPLE_ATTEMPTS - 1),
    # two rejections among the first round's candidates of one scene
    ((0, 2), 3, 0, 2),
])
def test_forced_rejections_match_sequential_oracle(monkeypatch, hits, min_agents,
                                                    kept, candidates):
    domain = tiny_domain()
    clear = gen_dataset_ref(domain, 30, 6, TINY_OBS_DIM, one_at_a_time(forced({}, {})))
    n_agents = [len(r["agent_gt"]) for r in clear]
    scene = next(i for i, n in enumerate(n_agents) if n >= min_agents)
    egos = {scene: np.array(clear[scene]["ego_gt"])}
    want_place = forced(egos, {scene: set(hits)})
    want = gen_dataset_ref(domain, 30, 6, TINY_OBS_DIM, one_at_a_time(want_place))
    got_place = forced(egos, {scene: set(hits)})
    monkeypatch.setattr(synthdomain, "_sample_agents",
                        per_round(got_place, synthdomain._sample_agents))
    got = gen_dataset(domain, 30, seed=6, obs_dim=TINY_OBS_DIM)
    assert as_json(got) == as_json(want)
    assert got_place.calls == want_place.calls
    assert got_place.calls[scene] == n_agents[scene] + candidates
    assert [len(r.agent_gt) for r in got] == [
        n + kept * (i == scene) for i, n in enumerate(n_agents)]


def test_scenes_without_agents_draw_no_candidate(monkeypatch):
    def fail(*args):
        raise AssertionError("no candidate or collision check expected")

    monkeypatch.setattr(synthdomain, "_sample_agents", fail)
    monkeypatch.setattr(synthdomain, "scene_collisions", fail)
    domain = tiny_domain()
    # seed 16's first three scenes draw no agents
    want = gen_dataset_ref(domain, 3, 16, TINY_OBS_DIM)
    assert [len(r["agent_gt"]) for r in want] == [0, 0, 0]
    assert as_json(gen_dataset(domain, 3, seed=16, obs_dim=TINY_OBS_DIM)) == as_json(want)
    assert gen_dataset(domain, 0, seed=16, obs_dim=TINY_OBS_DIM) == []


def test_agent_free_mirrored_scenes_match_sequential_oracle(monkeypatch):
    # the array passes over no agent rows, with the mirror, a rotation and
    # a bias: seed 73's first three target_city scenes draw no agents
    spec = config.resolve({}).domain("target_city")
    want = gen_dataset_ref(spec, 3, 73, core.DEFAULT_OBS_DIM)
    assert [len(r["agent_gt"]) for r in want] == [0, 0, 0]

    def fail(*args):
        raise AssertionError("no candidate or collision check expected")

    monkeypatch.setattr(synthdomain, "_sample_agents", fail)
    monkeypatch.setattr(synthdomain, "scene_collisions", fail)
    assert as_json(gen_dataset(spec, 3, seed=73)) == as_json(want)


def test_agent_metadata_consistent():
    records = gen_dataset(tiny_domain(), 60, seed=2, obs_dim=TINY_OBS_DIM)
    for rec in records:
        assert len(rec.agent_obs) == len(rec.agent_gt) == len(rec.agent_footprints)
        assert (rec.agent_footprints == AGENT_FOOTPRINT).all()
        assert 0 <= rec.n_agents <= 4


def test_noise_ordering_changes_observations_only():
    quiet = tiny_domain(name="n", noise=0.0)
    loud = tiny_domain(name="n", noise=0.5)
    [a] = gen_dataset(quiet, 1, seed=5, obs_dim=TINY_OBS_DIM)
    [b] = gen_dataset(loud, 1, seed=5, obs_dim=TINY_OBS_DIM)
    assert np.allclose(a.ego_gt, b.ego_gt)
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
