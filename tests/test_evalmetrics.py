"""Metric closed forms, the array-pass metrics bit for bit against their
one-scene and broadcast forms, SAT collision against the point-sampling
oracle, and the two-phase collision check against the scalar SAT loop at the
edges of its cull and by the work it leaves to the SAT."""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np
import pytest

from gptraj import config, evalmetrics
from gptraj.basemodel import TOKEN_SCALE
from gptraj.core import Command, scene_rows
from gptraj.evalmetrics import (EGO_FOOTPRINT, avg_l2, collision, evaluate,
                                rect_corners, sat_margin, scene_collisions,
                                scene_stats)
from gptraj.synthdomain import AGENT_FOOTPRINT, arc_points, gen_dataset
from gptraj.trainer import stage1_pretrain

from conftest import tiny_config, tiny_spec
from oracles import (avg_l2_ref, collision_reference, encode_ref, plan_ref,
                     predict_ref, rects_overlap_sampled, sat_margin_ref)


def straight(speed=5.0):
    t = 0.5 * np.arange(1, 7)
    return np.stack([speed * t, np.zeros(6)], axis=1)


def test_avg_l2_zero_and_constant_offset():
    gt = straight()
    assert avg_l2(gt, gt).tolist() == [0.0, 0.0, 0.0, 0.0]
    off = gt + np.array([0.6, 0.8])  # 1 m offset
    overall, a1, a2, a3 = avg_l2(off, gt)
    assert overall == pytest.approx(1.0)
    assert (a1, a2, a3) == (pytest.approx(1.0),) * 3


def test_avg_l2_cumulative_convention():
    gt = straight()
    pts = gt.copy()
    for k in range(6):
        pts[k, 1] += 0.1 * (k + 1)  # error 0.1k at waypoint k
    overall, a1, a2, a3 = avg_l2(pts, gt)
    assert a1 == pytest.approx(0.15)
    assert a2 == pytest.approx(0.25)
    assert a3 == pytest.approx(0.35)
    assert overall == pytest.approx(0.35)


def test_avg_l2_rows_match_one_scene_reference_bits():
    rng = np.random.default_rng(3)
    for scale in (1e-3, 1.0, 30.0):
        pred, gt = rng.normal(0.0, scale, (2, 300, 6, 2))
        got = avg_l2(pred, gt)
        assert got.shape == (300, 4)
        want = np.array([avg_l2_ref(p, g) for p, g in zip(pred, gt)])
        assert got.tobytes() == want.tobytes()


def test_collision_trivial_cases():
    ego, footprint = straight(), np.array([[4.5, 2.0]])
    assert collision(ego, np.zeros((0, 6, 2)), np.zeros((0, 2))) is False
    # agent parked exactly on ego waypoint 3
    stopped = np.tile(ego[2], (1, 6, 1))
    assert collision(ego, stopped, footprint) is True
    # agent far to the side the whole time
    far = ego[None] + np.array([0.0, 50.0])
    assert collision(ego, far, footprint) is False


def random_scenes(rng, n: int):
    """Ego arcs with 0-4 agents each, placed around the ego path, a quarter
    of them stopped (a zero chord at every step)."""
    scenes = []
    for _ in range(n):
        ego = arc_points(rng.uniform(0.0, 10.0), rng.normal(0.0, 0.05))
        agents, footprints = [], []
        for _ in range(int(rng.integers(0, 5))):
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            speed = 0.0 if rng.uniform() < 0.25 else rng.uniform(0.5, 8.0)
            start = ego[int(rng.integers(6))] + rng.normal(0.0, 3.0, 2)
            agents.append(start + arc_points(speed, rng.normal(0.0, 0.05))
                          @ rot.T - speed * 0.5 * rot[:, 0])
            footprints.append((rng.uniform(3.0, 5.0), rng.uniform(1.5, 2.5)))
        scenes.append((ego, np.array(agents).reshape(-1, 6, 2),
                       np.array(footprints).reshape(-1, 2)))
    return scenes


def all_pairs_hits(scenes) -> list[bool]:
    """``scene_collisions`` over every (scene, agent) pair of ``scenes`` in
    one call, reduced by scene."""
    pairs = [(i, t, fp) for i, (_, agents, fps) in enumerate(scenes)
             for t, fp in zip(agents, fps)]
    return scene_collisions(np.stack([ego for ego, _, _ in scenes]),
                            np.array([p for _, p, _ in pairs]).reshape(-1, 6, 2),
                            np.array([fp for _, _, fp in pairs]).reshape(-1, 2),
                            np.array([i for i, _, _ in pairs], dtype=np.intp)).tolist()


def test_batched_collision_matches_scalar_reference():
    scenes = random_scenes(np.random.default_rng(7), 200)
    want = [collision_reference(*scene) for scene in scenes]
    assert 40 <= sum(want) <= 160  # both outcomes are well represented
    assert any(not len(agents) for _, agents, _ in scenes)
    assert [collision(*scene) for scene in scenes] == want
    assert all_pairs_hits(scenes) == want


def test_touching_and_stopped_rectangles():
    parked = np.zeros((6, 2))  # zero chord: heads along +x
    # the 4 m ego reaches x = 2, where a 4.5 m agent centred at x = 4.25
    # starts; agents end to end, side by side and corner to corner, touching,
    # 1e-6 m apart or overlapping by 1e-9 or 1e-6 m
    for centre, hit in (((4.25, 0.0), False), ((4.25 - 1e-6, 0.0), True),
                        ((-4.25 + 1e-9, 0.0), True),
                        ((0.0, 1.9), None),  # widths 1.8 and 2.0
                        ((0.0, 1.9 + 1e-6), False), ((0.0, -1.9 + 1e-6), True),
                        ((-4.25, 1.9 + 1e-6), False), ((4.25 - 1e-6, -1.9 + 1e-6), True)):
        agent = np.tile(centre, (1, 6, 1))
        want = collision_reference(parked, agent, [(4.5, 2.0)])
        assert collision(parked, agent, np.array([[4.5, 2.0]])) is want
        assert hit is None or want is hit


def moving(start, heading_deg: float, step: float) -> np.ndarray:
    """Six waypoints from ``start`` along ``heading_deg``, ``step`` m apart."""
    return np.asarray(start) + step * np.arange(6)[:, None] * _unit(np.radians(heading_deg))


def away(ego_step: float, agent_deg: float, start) -> np.ndarray:
    """An agent from ``start`` heading ``agent_deg``, 2 m a step faster than
    an ego moving ``ego_step`` m a step."""
    return moving(start, agent_deg, ego_step + 2.0)


def test_two_phase_collision_agrees_at_the_edges_of_the_cull():
    length, width = AGENT_FOOTPRINT
    r_a = np.hypot(length, width) / 2.0
    reach = np.hypot(EGO_FOOTPRINT[0] / 2.0 + r_a, EGO_FOOTPRINT[1] / 2.0 + r_a)
    assert reach == pytest.approx(5.59, abs=0.005)
    fp = np.array([[length, width]])
    egos = [(0.0, 0.0), (35.0, 1.5), (140.0, 0.8)]  # (heading, step): stopped first
    scenes, touch = [], []
    for ego_deg, ego_step in egos:
        ego = moving([3.0, -7.0], ego_deg, ego_step)
        if ego_step == 0.0:
            ego_deg = 0.0  # a stopped ego heads along +x
        frame = np.radians(ego_deg)
        # agent centres at the reach bound, every 30 degrees of bearing,
        # headings over 0-180 degrees
        for eps in (-1e-3, -1e-9, 1e-9, 1e-3):
            for bearing in range(0, 360, 30):
                for agent_deg in range(0, 181, 45):
                    start = ego[0] + (reach + eps) * _unit(frame + np.radians(bearing))
                    scenes.append((ego, away(ego_step, ego_deg + agent_deg, start)[None], fp))
        # the farthest touching pairs: an agent's rear corner on an ego corner,
        # both diagonals on one line, the agent driving off along it
        alpha = np.degrees(np.arctan2(width, length))
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            corner = np.array([sx * EGO_FOOTPRINT[0], sy * EGO_FOOTPRINT[1]]) / 2.0
            diag = np.degrees(np.arctan2(corner[1], corner[0]))
            for side in (1, -1):
                for push in (-1e-3, -1e-9, 1e-9, 1e-3):
                    offset = corner + (r_a + push) * _unit(np.radians(diag))
                    rot = np.array([[np.cos(frame), -np.sin(frame)],
                                    [np.sin(frame), np.cos(frame)]])
                    start = ego[0] + rot @ offset
                    agent = away(ego_step, ego_deg + diag + side * alpha, start)
                    scenes.append((ego, agent[None], fp))
                    touch.append((len(scenes) - 1, push))
    rng = np.random.default_rng(5)
    ego = arc_points(6.0, 0.02)
    scenes.append((ego, np.zeros((0, 6, 2)), np.zeros((0, 2))))  # no agents
    # every pair near: agents riding along the ego at small offsets
    near = ego[None] + rng.uniform(-3.0, 3.0, (4, 1, 2))
    scenes.append((ego, near, np.tile(fp, (4, 1))))
    scenes.append((np.zeros((6, 2)), np.zeros((0, 6, 2)), np.zeros((0, 2))))
    want = [collision_reference(*scene) for scene in scenes]
    assert all_pairs_hits(scenes) == want
    assert want[-3:] == [False, True, False]
    # the touching family straddles the SAT's decision: pushed in by 1e-3 m
    # every such agent overlaps, pushed out by 1e-3 m some do not
    assert all(want[i] for i, push in touch if push == -1e-3)
    assert not all(want[i] for i, push in touch if push == 1e-3)


def test_narrow_phase_sees_only_near_pairs(monkeypatch):
    records = gen_dataset(config.resolve({}).domain("target_city"), 400, seed=9)
    layout = scene_rows(records, labeled=True)
    n = len(records)
    # egos off their ground truth, so that some of them hit an agent
    egos = layout.gt[:n] + np.random.default_rng(0).normal(0.0, 2.5, (n, 1, 2))
    agents, scene = layout.gt[n:], layout.scene_of_row[n:]
    footprints = np.concatenate([r.agent_footprints for r in records])
    seen = []
    real = evalmetrics.sat_margin

    def counting(a, b, index):
        seen.append(int(np.prod(b.shape[:-2])))
        return real(a, b, index)

    monkeypatch.setattr(evalmetrics, "sat_margin", counting)
    hits = scene_collisions(egos, agents, footprints, scene)
    assert len(seen) == 1 and seen[0] < 0.25 * agents.shape[0] * agents.shape[1]
    want = [collision_reference(egos[i], agents[scene == i], footprints[scene == i])
            for i in range(n)]
    assert hits.tolist() == want
    assert 5 <= sum(want) <= 100


def test_rect_corner_geometry():
    c = rect_corners(np.zeros(2), np.array([1.0, 0.0]), 4.0, 2.0)
    assert np.allclose(sorted(c[:, 0]), [-2, -2, 2, 2])
    assert np.allclose(sorted(c[:, 1]), [-1, -1, 1, 1])


def random_rects(rng, n: int, heading=None) -> np.ndarray:
    """n rectangles (n, 4, 2) at random centres, headings and footprints, or
    all along ``heading``."""
    theta = rng.uniform(0, 2 * np.pi, n)
    headings = (np.stack([np.cos(theta), np.sin(theta)], axis=-1)
                if heading is None else np.tile(heading, (n, 1)))
    return rect_corners(rng.uniform(-3, 3, (n, 2)), headings,
                        rng.uniform(1.0, 5.0, n), rng.uniform(0.8, 2.5, n))


def paired(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sat_margin`` of each rectangle ``a[j]`` against ``b[j]``."""
    return sat_margin(a, b, np.arange(len(b)))


def test_sat_margin_matches_broadcast_reference_bits():
    rng = np.random.default_rng(11)
    a, b = random_rects(rng, 2000), random_rects(rng, 2000)
    margin = paired(a, b)
    assert (margin > 0).any() and (margin < 0).any()
    assert margin.tobytes() == sat_margin_ref(a, b).tobytes()
    # one pair, and one rectangle against many
    assert paired(a[:1], b[:1]).tobytes() == sat_margin_ref(a[0], b[0]).tobytes()
    assert (sat_margin(a[:1], b, np.zeros(len(b), dtype=np.intp)).tobytes()
            == sat_margin_ref(a[0], b).tobytes())


def test_sat_margin_stopped_vehicles_bits():
    # a zero chord heads along +x, so the rectangles are axis-aligned and
    # their normals and corner projections hold exact (signed) zeros
    rng = np.random.default_rng(12)
    for a, b in ((random_rects(rng, 1000, [1.0, 0.0]), random_rects(rng, 1000)),
                 (random_rects(rng, 1000, [1.0, 0.0]),
                  random_rects(rng, 1000, [1.0, 0.0]))):
        assert paired(a, b).tobytes() == sat_margin_ref(a, b).tobytes()
    grid = rect_corners(rng.integers(-3, 4, (2, 1000, 2)).astype(np.float64),
                        np.array([1.0, 0.0]), rng.integers(1, 5, (2, 1000)),
                        rng.integers(1, 3, (2, 1000)))
    margin = paired(grid[0], grid[1])
    assert (margin == 0.0).sum() >= 50
    assert margin.tobytes() == sat_margin_ref(grid[0], grid[1]).tobytes()


def test_sat_margin_touching_rectangles_exactly_zero():
    # the parked 4 m ego reaches x = 2, where a 4.5 m agent centred at
    # x = 4.25 starts
    ego = rect_corners(np.zeros(2), np.array([1.0, 0.0]), 4.0, 1.8)
    agent = rect_corners(np.array([4.25, 0.0]), np.array([1.0, 0.0]), 4.5, 2.0)
    margin = paired(ego[None], agent[None])
    assert margin == 0.0
    assert margin.tobytes() == sat_margin_ref(ego, agent).tobytes()


def test_sat_margin_indexed_matches_gathered():
    rng = np.random.default_rng(13)
    egos = random_rects(rng, 50 * 6).reshape(50, 6, 4, 2)
    agents = random_rects(rng, 170 * 6).reshape(170, 6, 4, 2)
    index = rng.integers(0, 50, 170)
    got = sat_margin(egos, agents, index)
    assert got.shape == (170, 6)
    assert got.tobytes() == paired(egos[index], agents).tobytes()
    assert got.tobytes() == sat_margin_ref(egos[index], agents).tobytes()


def test_sat_agrees_with_sampling_oracle_1000_cases():
    rng = np.random.default_rng(42)
    rects = []
    for _ in range(1000):
        for _ in range(2):
            rects.append(rect_corners(rng.uniform(-3, 3, 2),
                                      _unit(rng.uniform(0, 2 * np.pi)),
                                      rng.uniform(1.0, 5.0), rng.uniform(0.8, 2.5)))
    a, b = np.stack(rects[0::2]), np.stack(rects[1::2])
    margins = paired(a, b)
    checked = 0
    for ra, rb, margin in zip(a, b, margins):
        if abs(margin) < 0.05:  # declared tie band
            continue
        checked += 1
        assert (margin > 0.0) == rects_overlap_sampled(ra, rb, pitch=0.05), (
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


def csv_rows(rep, path) -> list[dict]:
    """The per-scene rows of the CSV that ``rep`` writes to ``path``, each
    field as its text."""
    rep.write_csv(path)
    with open(path, newline="", encoding="utf-8") as f:
        next(f)  # the summary line
        return list(csv.DictReader(f))


def test_evaluate_rows_match_per_scene_reference(tmp_path, tiny_dataset, stage1_ckpt):
    model = stage1_ckpt.model
    for mode in ("base", "roca"):
        rep = evaluate(tiny_dataset, model, mode=mode)
        rows = csv_rows(rep, tmp_path / f"{mode}.csv")
        l2s = []
        for rec, row in zip(tiny_dataset, rows, strict=True):
            ego, _ = encode_ref(rec, model.tensors, TOKEN_SCALE)
            if mode == "base":
                traj, _ = plan_ref(ego, rec.command, model.tensors, model.cb)
            else:
                traj = predict_ref(ego, rec.command, model)[0].reshape(6, 2)
            l2 = avg_l2_ref(traj, rec.ego_gt)
            l2s.append(l2)
            assert row["scene_id"] == rec.scene_id
            got = [row[k] for k in ("l2_overall", "l2_at_1s", "l2_at_2s", "l2_at_3s")]
            assert got == [f"{v:.6f}" for v in l2]
            assert row["collision"] == str(int(collision_reference(
                traj, rec.agent_gt, rec.agent_footprints)))
        assert rep.avg_l2_m == pytest.approx(np.mean(l2s, axis=0)[0], rel=0, abs=1e-12)
        hits = sum(int(row["collision"]) for row in rows)
        assert rep.collision_rate_pct == pytest.approx(100.0 * hits / len(rows))


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


def test_evaluate_rarity_subset_skips_unlabeled(tmp_path, tiny_dataset, stage1_ckpt):
    bins = {"curved": {"min_abs_curvature": 0.01}, "slow": {"max_speed": 5.0}}
    unlabeled = [replace(r, ego_gt=None, agent_gt=None) for r in tiny_dataset[:5]]
    for subset in bins:
        want = evaluate(tiny_dataset, stage1_ckpt.model, subset=subset,
                        rarity_bins=bins)
        got = evaluate(unlabeled + tiny_dataset, stage1_ckpt.model, subset=subset,
                       rarity_bins=bins)
        assert 0 < got.n_scenes < len(tiny_dataset)
        assert (csv_rows(got, tmp_path / "got.csv")
                == csv_rows(want, tmp_path / "want.csv"))


def test_evaluate_rejects_scene_without_agent_gt(tiny_dataset, stage1_ckpt):
    rec = next(r for r in tiny_dataset if r.n_agents)
    records = [replace(rec, agent_gt=None) if r is rec else r for r in tiny_dataset]
    with pytest.raises(ValueError, match=f"scene {rec.scene_id}: "
                       f"{rec.n_agents} agent observations but 0 agent trajectories"):
        evaluate(records, stage1_ckpt.model)


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
