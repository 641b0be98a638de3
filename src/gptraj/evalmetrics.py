"""Planning metrics: average L2 error and oriented-rectangle collision rate.

L2 follows the cumulative-average convention: the value at k seconds is the
mean point error over all waypoints up to and including k seconds, so the
overall value equals the 3 s value. Collision uses exact separating-axis
tests between oriented footprint rectangles at each of the 6 timesteps, with
headings taken from waypoint chords (one-sided at the endpoints).

``evaluate`` works in array passes: one ``avg_l2`` call over every scene's
trajectory and one ``scene_collisions`` call over every (agent, step) pair.
That call has two phases: a broad phase keeps only the pairs whose centres
are close enough for the rectangles to touch, by a reach derived from the
SAT's own axes, and a narrow phase runs one ``sat_margin`` call over the
kept pairs. The SAT runs on contiguous per-corner x and y arrays, and each
ego rectangle's edge normals and its projections onto them are computed once
and gathered for the pairs that use it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basemodel import encode, plan
from .codebook import admissible
from .core import Command, SceneRecord, scene_rows
from .trainer import frozen_gp_predict

EGO_FOOTPRINT = (4.0, 1.8)  # length, width in meters
# relative and absolute widening of the broad phase's squared reach, also
# applied to the pair's squared centre norms: rounding moves a computed
# margin or distance by about 1e-15 of the coordinates
REACH_GUARD = 1e-9


def avg_l2(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Cumulative-average point errors of (..., n, 2) waypoints: the (..., 4)
    columns (overall, at 1 s, at 2 s, at 3 s), one row per trajectory."""
    err = np.linalg.norm(pred - gt, axis=-1)
    at3 = err.mean(axis=-1)
    return np.stack([at3, err[..., :2].mean(axis=-1), err[..., :4].mean(axis=-1), at3],
                    axis=-1)


def _headings(points: np.ndarray) -> np.ndarray:
    """Unit heading per waypoint of (..., n, 2) points, from the
    (k-1 -> k+1) chord, one-sided at the ends; +x where the chord is
    shorter than 1e-9 m (a stopped vehicle)."""
    n = points.shape[-2]
    k = np.arange(n)
    d = points[..., np.minimum(k + 1, n - 1), :] - points[..., np.maximum(k - 1, 0), :]
    norm = np.hypot(d[..., 0], d[..., 1])[..., None]
    moving = norm > 1e-9
    return np.where(moving, d / np.where(moving, norm, 1.0), np.array([1.0, 0.0]))


def rect_corners(center: np.ndarray, heading: np.ndarray,
                 length, width) -> np.ndarray:
    """Corners of oriented rectangles, counter-clockwise, shape (..., 4, 2).

    ``center`` and ``heading`` are (..., 2); ``length`` and ``width`` are
    scalars or arrays over the leading dimensions.
    """
    fwd = heading * (np.asarray(length, dtype=np.float64) / 2.0)[..., None]
    left = (np.stack([-heading[..., 1], heading[..., 0]], axis=-1)
            * (np.asarray(width, dtype=np.float64) / 2.0)[..., None])
    return np.stack([
        center + fwd + left,
        center - fwd + left,
        center - fwd - left,
        center + fwd - left,
    ], axis=-2)


def _normals(x: np.ndarray, y: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Unit normals (nx, ny) of the edges 0->1 and 1->2 of rectangles given
    as corner-major coordinates (4, ...)."""
    out = []
    for k in (0, 1):
        nx, ny = -(y[k + 1] - y[k]), x[k + 1] - x[k]
        norm = np.hypot(nx, ny)
        out.append((nx / norm, ny / norm))
    return out


def _extent(x: np.ndarray, y: np.ndarray, normal) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) over the 4 corners of their projections onto ``normal``."""
    p = x * normal[0] + y * normal[1]
    return (np.minimum(np.minimum(np.minimum(p[0], p[1]), p[2]), p[3]),
            np.maximum(np.maximum(np.maximum(p[0], p[1]), p[2]), p[3]))


def sat_margin(a: np.ndarray, b: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Signed overlap of the rectangle pairs (``a[index[j]]``, ``b[j]``): min
    over candidate axes of projection overlap. Rectangles are (..., 4, 2)
    corners; ``index`` indexes ``a``'s first axis and has ``b``'s length,
    and the remaining leading dimensions, shared by ``a`` and ``b``, are
    batch dimensions.

    Positive means the rectangles penetrate by at least that much along
    every axis; negative means some axis separates them by that much. Each
    rectangle of ``a`` has its edge normals and its projections onto them
    computed once, then gathered.
    """
    ax, ay = (np.ascontiguousarray(np.moveaxis(a[..., i], -1, 0)) for i in (0, 1))
    bx, by = (np.ascontiguousarray(np.moveaxis(b[..., i], -1, 0)) for i in (0, 1))
    a_normals = _normals(ax, ay)
    a_self = [_extent(ax, ay, n) for n in a_normals]
    ax, ay = ax[:, index], ay[:, index]
    a_normals = [(nx[index], ny[index]) for nx, ny in a_normals]
    a_self = [(lo[index], hi[index]) for lo, hi in a_self]
    b_normals = _normals(bx, by)
    extents = ([(ea, _extent(bx, by, n)) for ea, n in zip(a_self, a_normals)]
               + [(_extent(ax, ay, n), _extent(bx, by, n)) for n in b_normals])
    overlap = [np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
               for (lo_a, hi_a), (lo_b, hi_b) in extents]
    return np.minimum(np.minimum(overlap[0], overlap[1]),
                      np.minimum(overlap[2], overlap[3]))


def scene_collisions(ego_points: np.ndarray, agent_points: np.ndarray,
                     agent_footprints: np.ndarray, agent_scene: np.ndarray) -> np.ndarray:
    """Per scene, True iff its ego rectangle (``EGO_FOOTPRINT``) overlaps one
    of its agents' rectangles at a common step, i.e. their SAT margin is > 0.

    ``ego_points`` (S, n, 2) holds each scene's ego waypoints;
    ``agent_points`` (P, n, 2), ``agent_footprints`` (P, 2) (length, width)
    and ``agent_scene`` (P,) each agent's waypoints, footprint and scene
    index.

    Broad phase: keep the (agent, step) pairs whose centres are within reach.
    Let u and v be the ego's unit edge normals (u along its heading) and d
    the centre offset. On u the ego projects to the half-extent L_e / 2 and
    the agent to at most its circumradius r_a = hypot(L_a, W_a) / 2, so a
    positive margin needs |d.u| < L_e / 2 + r_a; likewise |d.v| <
    W_e / 2 + r_a. As u is orthogonal to v, |d|^2 = (d.u)^2 + (d.v)^2 <
    (L_e / 2 + r_a)^2 + (W_e / 2 + r_a)^2, the squared reach (5.59 m for a
    4.5 x 2 m agent). The computed margin and distance carry rounding of
    corners, normals and projections of about 1e-15 of the coordinates, so
    a pair is kept while |d|^2 < reach^2 + REACH_GUARD * (1 + reach^2 +
    |c_ego|^2 + |c_agent|^2); every pair culled has margin <= 0.

    Narrow phase: one ``sat_margin`` call over the kept pairs, on rectangles
    built only for the (scene, step) egos and (agent, step) agents they use,
    with headings from the full waypoint chords. A scene is hit if one of
    its kept pairs has margin > 0.
    """
    fp = np.asarray(agent_footprints, dtype=np.float64).reshape(-1, 2)
    r = np.hypot(fp[:, 0], fp[:, 1]) / 2.0
    reach2 = ((EGO_FOOTPRINT[0] / 2.0 + r) ** 2 + (EGO_FOOTPRINT[1] / 2.0 + r) ** 2)
    ego_c = ego_points[agent_scene]
    d = agent_points - ego_c
    d *= d
    norms = ego_c * ego_c
    norms += agent_points * agent_points
    guard = REACH_GUARD * (1.0 + reach2[:, None] + norms[..., 0] + norms[..., 1])
    near = d[..., 0] + d[..., 1] < reach2[:, None] + guard

    agents = np.flatnonzero(near.any(axis=1))
    pair, step = np.nonzero(near[agents])
    scenes, scene_of = np.unique(agent_scene[agents], return_inverse=True)
    ego_rows, index = np.unique(scene_of[pair] * ego_points.shape[1] + step,
                                return_inverse=True)
    ego_near, agent_near = ego_points[scenes], agent_points[agents]
    ego = rect_corners(ego_near.reshape(-1, 2)[ego_rows],
                       _headings(ego_near).reshape(-1, 2)[ego_rows], *EGO_FOOTPRINT)
    fp = fp[agents[pair]]
    others = rect_corners(agent_near[pair, step], _headings(agent_near)[pair, step],
                          fp[:, 0], fp[:, 1])
    hit = sat_margin(ego, others, index) > 0.0
    return np.bincount(scenes[scene_of[pair[hit]]], minlength=len(ego_points)) > 0


def collision(pred_ego: np.ndarray, agent_trajs: np.ndarray,
              agent_footprints: np.ndarray) -> bool:
    """True iff the ego rectangle of ``pred_ego`` (6, 2) overlaps the
    rectangle of one of ``agent_trajs`` (A, 6, 2), with ``agent_footprints``
    (A, 2), at a common step.

    Kept for the tests and because the benchmark probes it by name;
    ``evaluate`` and the scene generator call ``scene_collisions``.
    """
    agent_scene = np.zeros(len(agent_trajs), dtype=np.intp)
    return bool(scene_collisions(pred_ego[None], agent_trajs, agent_footprints,
                                 agent_scene)[0])


def scene_stats(rec: SceneRecord) -> tuple[float, float]:
    """(speed m/s, |curvature| 1/m) estimated from the ground-truth trajectory."""
    pts = np.vstack([[0.0, 0.0], rec.ego_gt])
    segs = np.diff(pts, axis=0)
    lens = np.linalg.norm(segs, axis=1)
    arclen = float(lens.sum())
    speed = arclen / 3.0
    theta = np.arctan2(segs[:, 1], segs[:, 0])
    heading = np.unwrap(theta)
    dtheta = float(heading[-1] - heading[0])
    curv = abs(dtheta) / arclen if arclen > 1e-6 else 0.0
    return speed, curv


@dataclass
class EvalReport:
    """Aggregate metrics, and per scene its id, command, (overall, 1 s, 2 s,
    3 s) L2 row of ``l2`` (n, 4) and collision flag, which ``write_csv``
    formats."""

    n_scenes: int
    avg_l2_m: float
    avg_l2_at_1s: float
    avg_l2_at_2s: float
    avg_l2_at_3s: float
    collision_rate_pct: float
    subset: str
    mode: str
    scene_ids: list[str]
    commands: list[Command]
    l2: np.ndarray
    collisions: np.ndarray

    def summary_text(self) -> str:
        return (
            f"mode={self.mode} subset={self.subset} n={self.n_scenes} "
            f"avg_l2_m={self.avg_l2_m:.6f} "
            f"(1s={self.avg_l2_at_1s:.6f} 2s={self.avg_l2_at_2s:.6f} "
            f"3s={self.avg_l2_at_3s:.6f}) "
            f"collision_rate_pct={self.collision_rate_pct:.6f}"
        )

    def write_csv(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow([f"# {self.summary_text()} (cumulative-average L2 convention)"])
            w.writerow(["scene_id", "command", "l2_overall", "l2_at_1s", "l2_at_2s",
                        "l2_at_3s", "collision"])
            for sid, command, l2, hit in zip(self.scene_ids, self.commands,
                                             self.l2.tolist(), self.collisions.tolist()):
                w.writerow([sid, command.value, *(f"{v:.6f}" for v in l2), int(hit)])


def check_subset(subset: str, rarity_bins: dict | None) -> None:
    """Raise ValueError unless ``subset`` is ``full``, ``targeted`` or a
    name in ``rarity_bins``."""
    if subset not in ("full", "targeted", *(rarity_bins or ())):
        raise ValueError(f"unknown eval subset {subset!r}")


def _subset_filter(records: list[SceneRecord], subset: str,
                   rarity_bins: dict | None) -> list[SceneRecord]:
    check_subset(subset, rarity_bins)
    if subset == "full":
        return records
    if subset == "targeted":
        return [r for r in records if r.command != Command.GO_STRAIGHT]
    spec = rarity_bins[subset]
    out = []
    for r in records:
        speed, curv = scene_stats(r)
        if speed < spec.get("min_speed", -np.inf):
            continue
        if speed > spec.get("max_speed", np.inf):
            continue
        if curv < spec.get("min_abs_curvature", -np.inf):
            continue
        if curv > spec.get("max_abs_curvature", np.inf):
            continue
        out.append(r)
    return out


def evaluate(records: list[SceneRecord], model, mode: str = "base",
             subset: str = "full", rarity_bins: dict | None = None) -> EvalReport:
    """Aggregate planning metrics over a labeled dataset.

    ``mode`` selects the trajectory source: the planner head ("base") or the
    GP module ("roca"). ``model`` is a ``trainer.Model``: its spec, its
    tensor dict and the codebook over it.
    """
    if mode not in ("base", "roca"):
        raise ValueError(f"unknown eval mode {mode!r}")
    scenes = _subset_filter([r for r in records if r.labeled], subset, rarity_bins)
    if not scenes:
        raise ValueError(f"no labeled scenes after subset filter {subset!r}")
    layout = scene_rows(scenes, labeled=True)
    n = len(scenes)
    tokens = encode(layout.obs[:n], model.tensors)
    if mode == "base":
        trajs = plan(tokens, admissible(model.cb, layout.commands), model.tensors,
                     model.cb.traj_anchors)[0]
    else:
        trajs = frozen_gp_predict(model, tokens, layout.commands, "eval GP")[0]
    trajs = trajs.reshape(n, -1, 2)
    hits = scene_collisions(trajs, layout.gt[n:],
                            np.concatenate([r.agent_footprints for r in scenes]),
                            layout.scene_of_row[n:])
    l2s = avg_l2(trajs, layout.gt[:n])
    means = l2s.mean(axis=0)
    return EvalReport(
        n_scenes=len(scenes),
        avg_l2_m=float(means[0]),
        avg_l2_at_1s=float(means[1]),
        avg_l2_at_2s=float(means[2]),
        avg_l2_at_3s=float(means[3]),
        collision_rate_pct=100.0 * int(hits.sum()) / len(scenes),
        subset=subset,
        mode=mode,
        scene_ids=[r.scene_id for r in scenes],
        commands=layout.commands,
        l2=l2s,
        collisions=hits,
    )
