"""Planning metrics: average L2 error and oriented-rectangle collision rate.

L2 follows the cumulative-average convention: the value at k seconds is the
mean point error over all waypoints up to and including k seconds, so the
overall value equals the 3 s value. Collision uses exact separating-axis
tests between oriented footprint rectangles at each of the 6 timesteps, with
headings taken from waypoint chords (one-sided at the endpoints).

``evaluate`` works in array passes: one ``avg_l2`` call over every scene's
trajectory and one ``sat_margin`` call over every (scene, agent) pair. The
SAT runs on contiguous per-corner x and y arrays, and each ego rectangle's
edge normals and its projections onto them are computed once per scene and
gathered for the scene's agents.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basemodel import encode, plan
from .codebook import admissible
from .core import Command, SceneRecord, Trajectory
from .gpmodule import GpInference

EGO_FOOTPRINT = (4.0, 1.8)  # length, width in meters


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


def sat_margin(a: np.ndarray, b: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """Signed overlap of rectangle pairs (..., 4, 2): min over candidate axes
    of projection overlap. Leading dimensions are batch dimensions.

    Positive means the rectangles penetrate by at least that much along
    every axis; negative means some axis separates them by that much.
    With ``index``, ``b[j]`` pairs with ``a[index[j]]``: each rectangle of
    ``a`` has its edge normals and its projections onto them computed once,
    then gathered.
    """
    if index is None:
        a, b = np.broadcast_arrays(a, b)
    ax, ay = (np.ascontiguousarray(np.moveaxis(a[..., i], -1, 0)) for i in (0, 1))
    bx, by = (np.ascontiguousarray(np.moveaxis(b[..., i], -1, 0)) for i in (0, 1))
    a_normals = _normals(ax, ay)
    a_self = [_extent(ax, ay, n) for n in a_normals]
    if index is not None:
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
                     agent_footprints: np.ndarray, agent_scene: np.ndarray,
                     ego_footprint: tuple[float, float] = EGO_FOOTPRINT) -> np.ndarray:
    """Per scene, True iff its ego rectangle overlaps one of its agents'
    rectangles at a common step.

    ``ego_points`` (S, n, 2) holds each scene's ego waypoints;
    ``agent_points`` (P, n, 2), ``agent_footprints`` (P, 2) (length, width)
    and ``agent_scene`` (P,) each agent's waypoints, footprint and scene
    index. One SAT pass covers every (ego, agent) pair at every step.
    """
    ego = rect_corners(ego_points, _headings(ego_points), *ego_footprint)
    fp = np.asarray(agent_footprints, dtype=np.float64).reshape(-1, 1, 2)
    agents = rect_corners(agent_points, _headings(agent_points), fp[..., 0], fp[..., 1])
    hit = (sat_margin(ego, agents, agent_scene) > 0.0).any(axis=-1)
    return np.bincount(agent_scene[hit], minlength=len(ego_points)) > 0


def collision(pred_ego: Trajectory, agent_trajs: list[Trajectory],
              agent_footprints: list[tuple[float, float]],
              ego_footprint: tuple[float, float] = EGO_FOOTPRINT) -> bool:
    """True iff the ego rectangle overlaps any agent rectangle at any step.

    Kept for the tests and because the benchmark probes it by name;
    ``evaluate`` and the scene generator call ``scene_collisions``.
    """
    if not agent_trajs:
        return False
    agents = np.stack([t.points for t in agent_trajs])
    return bool(scene_collisions(pred_ego.points[None], agents, agent_footprints,
                                 np.zeros(len(agents), dtype=np.intp), ego_footprint)[0])


def scene_stats(rec: SceneRecord) -> tuple[float, float]:
    """(speed m/s, |curvature| 1/m) estimated from the ground-truth trajectory."""
    pts = np.vstack([[0.0, 0.0], rec.ego_gt.points])
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
    n_scenes: int
    avg_l2_m: float
    avg_l2_at_1s: float
    avg_l2_at_2s: float
    avg_l2_at_3s: float
    collision_rate_pct: float
    subset: str
    mode: str
    rows: list[dict] = field(default_factory=list)

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
        cols = ["scene_id", "command", "l2_overall", "l2_at_1s", "l2_at_2s",
                "l2_at_3s", "collision"]
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow([f"# {self.summary_text()} (cumulative-average L2 convention)"])
            w.writerow(cols)
            for r in self.rows:
                w.writerow([r[c] for c in cols])


def _subset_filter(records: list[SceneRecord], subset: str,
                   rarity_bins: dict | None) -> list[SceneRecord]:
    if subset == "full":
        return records
    if subset == "targeted":
        return [r for r in records if r.command != Command.GO_STRAIGHT]
    if rarity_bins and subset in rarity_bins:
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
    raise ValueError(f"unknown eval subset {subset!r}")


def evaluate(records: list[SceneRecord], model, mode: str = "base",
             subset: str = "full", rarity_bins: dict | None = None) -> EvalReport:
    """Aggregate planning metrics over a labeled dataset.

    ``mode`` selects the trajectory source: the planner head ("base") or the
    GP module ("roca"). ``model`` provides cb/base/clf/gp attributes.
    """
    if mode not in ("base", "roca"):
        raise ValueError(f"unknown eval mode {mode!r}")
    scenes = _subset_filter([r for r in records if r.labeled], subset, rarity_bins)
    if not scenes:
        raise ValueError(f"no labeled scenes after subset filter {subset!r}")
    for r in scenes:
        if len(r.agent_gt or []) != r.n_agents:
            raise ValueError(f"scene {r.scene_id}: {r.n_agents} agent observations "
                             f"but {len(r.agent_gt or [])} agent trajectories")
    commands = [r.command for r in scenes]
    tokens = encode(np.stack([r.ego_obs for r in scenes]), model.base)
    if mode == "base":
        trajs = plan(tokens, admissible(model.cb, commands), model.base,
                     model.cb.traj_anchors())[0]
    else:
        trajs = GpInference(model.cb, model.clf, model.gp).predict_scene(
            tokens, commands)[0]
    trajs = trajs.reshape(len(scenes), -1, 2)
    hits = scene_collisions(
        trajs,
        np.array([t.points for r in scenes for t in r.agent_gt or []]
                 ).reshape(-1, *trajs.shape[1:]),
        np.array([fp for r in scenes for fp in r.agent_footprints]).reshape(-1, 2),
        np.repeat(np.arange(len(scenes)), [r.n_agents for r in scenes]))
    l2s = avg_l2(trajs, np.stack([r.ego_gt.points for r in scenes]))
    rows = [{
        "scene_id": rec.scene_id,
        "command": rec.command.value,
        "l2_overall": f"{overall:.6f}",
        "l2_at_1s": f"{a1:.6f}",
        "l2_at_2s": f"{a2:.6f}",
        "l2_at_3s": f"{a3:.6f}",
        "collision": int(hit),
    } for rec, (overall, a1, a2, a3), hit in zip(scenes, l2s.tolist(), hits.tolist())]
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
        rows=rows,
    )
