"""Metric closed forms and SAT collision against the point-sampling oracle."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj.core import Command, Trajectory
from gptraj.evalmetrics import (avg_l2, collision, evaluate, rect_corners,
                                rects_overlap, sat_margin, scene_collisions,
                                scene_stats)
from gptraj.synthdomain import arc_points
from gptraj.trainer import stage1_pretrain

from conftest import tiny_config, tiny_spec
from oracles import (collision_reference, encode_ref, plan_ref, predict_ref,
                     rects_overlap_sampled)


def straight(speed=5.0):
    t = 0.5 * np.arange(1, 7)
    return Trajectory(np.stack([speed * t, np.zeros(6)], axis=1))


def test_avg_l2_zero_and_constant_offset():
    gt = straight()
    assert avg_l2(gt, gt) == (0.0, 0.0, 0.0, 0.0)
    off = Trajectory(gt.points + np.array([0.6, 0.8]))  # 1 m offset
    overall, a1, a2, a3 = avg_l2(off, gt)
    assert overall == pytest.approx(1.0)
    assert (a1, a2, a3) == (pytest.approx(1.0),) * 3


def test_avg_l2_cumulative_convention():
    gt = straight()
    pts = gt.points.copy()
    for k in range(6):
        pts[k, 1] += 0.1 * (k + 1)  # error 0.1k at waypoint k
    overall, a1, a2, a3 = avg_l2(Trajectory(pts), gt)
    assert a1 == pytest.approx(0.15)
    assert a2 == pytest.approx(0.25)
    assert a3 == pytest.approx(0.35)
    assert overall == pytest.approx(0.35)


def test_collision_trivial_cases():
    ego = straight()
    assert collision(ego, [], []) is False
    # agent parked exactly on ego waypoint 3
    stopped = Trajectory(np.tile(ego.points[2], (6, 1)))
    assert collision(ego, [stopped], [(4.5, 2.0)]) is True
    # agent far to the side the whole time
    far = Trajectory(ego.points + np.array([0.0, 50.0]))
    assert collision(ego, [far], [(4.5, 2.0)]) is False


def random_scenes(rng, n: int):
    """Ego arcs with 0-4 agents each, placed around the ego path, a quarter
    of them stopped (a zero chord at every step)."""
    scenes = []
    for _ in range(n):
        ego = Trajectory(arc_points(rng.uniform(0.0, 10.0), rng.normal(0.0, 0.05)))
        agents, footprints = [], []
        for _ in range(int(rng.integers(0, 5))):
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            speed = 0.0 if rng.uniform() < 0.25 else rng.uniform(0.5, 8.0)
            start = ego.points[int(rng.integers(6))] + rng.normal(0.0, 3.0, 2)
            agents.append(Trajectory(start + arc_points(speed, rng.normal(0.0, 0.05))
                                     @ rot.T - speed * 0.5 * rot[:, 0]))
            footprints.append((rng.uniform(3.0, 5.0), rng.uniform(1.5, 2.5)))
        scenes.append((ego, agents, footprints))
    return scenes


def test_batched_collision_matches_scalar_reference():
    scenes = random_scenes(np.random.default_rng(7), 200)
    want = [collision_reference(*scene) for scene in scenes]
    assert 40 <= sum(want) <= 160  # both outcomes are well represented
    assert any(not agents for _, agents, _ in scenes)
    assert [collision(*scene) for scene in scenes] == want
    # every (scene, agent) pair in one pass, reduced by scene
    pairs = [(i, t.points, fp) for i, (_, agents, fps) in enumerate(scenes)
             for t, fp in zip(agents, fps)]
    hits = scene_collisions(np.stack([ego.points for ego, _, _ in scenes]),
                            np.stack([p for _, p, _ in pairs]),
                            np.array([fp for _, _, fp in pairs]),
                            np.array([i for i, _, _ in pairs]))
    assert hits.tolist() == want


def test_touching_and_stopped_rectangles():
    parked = Trajectory(np.zeros((6, 2)))  # zero chord: heads along +x
    # the 4 m ego reaches x = 2, where a 4.5 m agent centred at x = 4.25 starts
    touching = Trajectory(np.tile([4.25, 0.0], (6, 1)))
    inside = Trajectory(np.tile([4.25 - 1e-6, 0.0], (6, 1)))
    beside = Trajectory(np.tile([0.0, 1.9], (6, 1)))  # widths 1.8 and 2.0
    for agent, hit in ((touching, False), (inside, True), (beside, None)):
        want = collision_reference(parked, [agent], [(4.5, 2.0)])
        assert collision(parked, [agent], [(4.5, 2.0)]) is want
        assert hit is None or want is hit


def test_rect_corner_geometry():
    c = rect_corners(np.zeros(2), np.array([1.0, 0.0]), 4.0, 2.0)
    assert np.allclose(sorted(c[:, 0]), [-2, -2, 2, 2])
    assert np.allclose(sorted(c[:, 1]), [-1, -1, 1, 1])


def test_sat_agrees_with_sampling_oracle_1000_cases():
    rng = np.random.default_rng(42)
    ties = 0
    checked = 0
    for _ in range(1000):
        a = rect_corners(rng.uniform(-3, 3, 2),
                         _unit(rng.uniform(0, 2 * np.pi)),
                         rng.uniform(1.0, 5.0), rng.uniform(0.8, 2.5))
        b = rect_corners(rng.uniform(-3, 3, 2),
                         _unit(rng.uniform(0, 2 * np.pi)),
                         rng.uniform(1.0, 5.0), rng.uniform(0.8, 2.5))
        margin = sat_margin(a, b)
        if abs(margin) < 0.05:  # declared tie band
            ties += 1
            continue
        checked += 1
        assert rects_overlap(a, b) == rects_overlap_sampled(a, b, pitch=0.05), (
            f"disagreement at margin {margin}")
    assert checked >= 700  # the tie band must not swallow the test


def _unit(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def test_scene_stats_recovers_speed_and_curvature(tiny_dataset):
    for rec in tiny_dataset[:20]:
        speed, curv = scene_stats(rec)
        assert 1.0 <= speed <= 20.0
        if rec.command == Command.GO_STRAIGHT:
            assert curv < 0.03
        else:
            assert curv > 0.01


@pytest.fixture(scope="module")
def stage1_ckpt(tiny_dataset):
    return stage1_pretrain(tiny_dataset, tiny_config(epochs_stage1=3),
                           tiny_spec())


def test_evaluate_rows_match_per_scene_reference(tiny_dataset, stage1_ckpt):
    model = stage1_ckpt.model
    for mode in ("base", "roca"):
        rep = evaluate(tiny_dataset, model, mode=mode)
        l2s = []
        for rec, row in zip(tiny_dataset, rep.rows, strict=True):
            ego, _ = encode_ref(rec, model.base)
            if mode == "base":
                traj, _ = plan_ref(ego, rec.command, model.base, model.cb)
            else:
                traj = Trajectory.from_flat(predict_ref(ego, rec.command, model)[0])
            l2 = avg_l2(traj, rec.ego_gt)
            l2s.append(l2[0])
            assert row["scene_id"] == rec.scene_id
            got = [float(row[k]) for k in ("l2_overall", "l2_at_1s", "l2_at_2s",
                                            "l2_at_3s")]
            assert np.allclose(got, l2, rtol=0, atol=5.1e-7)  # 6-decimal rows
            assert row["collision"] == int(collision_reference(
                traj, rec.agent_gt, rec.agent_footprints))
        assert rep.avg_l2_m == pytest.approx(np.mean(l2s), rel=0, abs=1e-12)
        hits = sum(row["collision"] for row in rep.rows)
        assert rep.collision_rate_pct == pytest.approx(100.0 * hits / len(rep.rows))


def test_evaluate_modes_and_subset_filter(tiny_dataset, stage1_ckpt):
    model = stage1_ckpt.model
    full = evaluate(tiny_dataset, model, mode="base", subset="full")
    assert full.n_scenes == len(tiny_dataset)
    targeted = evaluate(tiny_dataset, model, mode="base", subset="targeted")
    expected = sum(1 for r in tiny_dataset if r.command != Command.GO_STRAIGHT)
    assert targeted.n_scenes == expected
    roca = evaluate(tiny_dataset, model, mode="roca", subset="full")
    assert roca.n_scenes == full.n_scenes
    assert roca.avg_l2_m >= 0.0
    assert 0.0 <= roca.collision_rate_pct <= 100.0
    with pytest.raises(ValueError, match="unknown eval subset"):
        evaluate(tiny_dataset, model, mode="base", subset="nope")
    with pytest.raises(ValueError, match="unknown eval mode"):
        evaluate(tiny_dataset, model, mode="fancy")


def test_evaluate_rarity_bins(tiny_dataset, stage1_ckpt):
    bins = {"slow": {"max_speed": 5.0}}
    rep = evaluate(tiny_dataset, stage1_ckpt.model, mode="base", subset="slow",
                   rarity_bins=bins)
    want = sum(1 for r in tiny_dataset if scene_stats(r)[0] <= 5.0)
    assert rep.n_scenes == want


def test_metrics_order_invariant(tiny_dataset, stage1_ckpt):
    model = stage1_ckpt.model
    fwd = evaluate(tiny_dataset, model, mode="base")
    rev = evaluate(list(reversed(tiny_dataset)), model, mode="base")
    assert fwd.avg_l2_m == pytest.approx(rev.avg_l2_m, abs=1e-12)
    assert fwd.collision_rate_pct == rev.collision_rate_pct


def test_report_csv_written(tmp_path, tiny_dataset, stage1_ckpt):
    rep = evaluate(tiny_dataset[:10], stage1_ckpt.model, mode="base")
    out = tmp_path / "report.csv"
    rep.write_csv(out)
    text = out.read_text()
    assert "scene_id" in text and "l2_overall" in text
    assert str(rep.n_scenes) in rep.summary_text()
