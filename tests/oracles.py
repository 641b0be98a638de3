"""Independent oracles for the test suite.

These deliberately avoid the library's own linear algebra and geometry: plain
loops, Gauss-Jordan elimination, Jacobi eigenvalues, quadrature integration,
dense point sampling, a scalar separating-axis loop, one-row numpy forms of
the base model and the group classifier, and central finite differences. They exist to cross-check the
production paths and must stay independent of them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from gptraj.basemodel import RESIDUAL_BOUND
from gptraj.codebook import admissible_groups
from gptraj.core import Token, Trajectory


def gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Dense inverse via Gauss-Jordan elimination with partial pivoting."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-300:
            raise ZeroDivisionError(f"singular at column {col}")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:]


def jacobi_eigenvalues(a: np.ndarray, sweeps: int = 50) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by classical Jacobi rotations."""
    m = np.array(a, dtype=np.float64)
    n = m.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += m[p, q] ** 2
                if abs(m[p, q]) < 1e-14:
                    continue
                theta = 0.5 * math.atan2(2 * m[p, q], m[q, q] - m[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
        if off < 1e-24:
            break
    return np.sort(np.diag(m))


def rbf_oracle(x: np.ndarray, y: np.ndarray, ell: float, sf: float) -> float:
    d2 = 0.0
    for xi, yi in zip(x, y):
        d2 += (xi - yi) ** 2
    return sf * sf * math.exp(-d2 / (2.0 * ell * ell))


def gp_oracle(basis: np.ndarray, targets: np.ndarray, query: np.ndarray,
              ell: float, sf: float, noise_var: float):
    """Dense-inverse GP posterior: mean vector and scalar variance.

    targets: (C, K) raw values; conditioning subtracts their column mean
    (the anchor) and adds it back, matching the anchored formulation.
    """
    c = basis.shape[0]
    anchor = targets.mean(axis=0)
    centered = targets - anchor[None, :]
    k_bb = np.array([[rbf_oracle(basis[i], basis[j], ell, sf) for j in range(c)]
                     for i in range(c)])
    k_star = np.array([rbf_oracle(query, basis[i], ell, sf) for i in range(c)])
    k_inv = gauss_jordan_inverse(k_bb)
    mean = anchor + k_star @ k_inv @ centered
    var = sf * sf - float(k_star @ k_inv @ k_star)
    return mean, max(var, 0.0) + noise_var


def classify_ref(token: np.ndarray, role, cb, clf, p) -> tuple[int, np.ndarray]:
    """Masked classifier logits of one token and the argmax group (ties: lowest
    id): ``rbf_oracle`` features against every basis token in group order,
    then the two-layer tanh perceptron."""
    ell, sf = math.exp(p.log_lengthscale), math.exp(p.log_outputscale)
    feats = np.array([rbf_oracle(token, b, ell, sf)
                      for g in cb.groups for b in g.basis_tokens])
    raw = clf.w2 @ np.tanh(clf.w1 @ feats + clf.b1) + clf.b2
    logits = np.full_like(raw, -np.inf)
    ids = admissible_groups(cb, role)
    logits[ids] = raw[ids]
    return int(np.argmax(logits)), logits


def predict_ref(token: np.ndarray, role, model) -> tuple[np.ndarray, float]:
    """The GP module's trajectory mean and scalar variance for one token of a
    model (cb, clf, gp): ``classify_ref``, then ``gp_oracle`` in that group."""
    p = model.gp
    g = model.cb.group(classify_ref(token, role, model.cb, model.clf, p)[0])
    return gp_oracle(g.basis_tokens, g.trajectories, token,
                     math.exp(p.log_lengthscale), math.exp(p.log_outputscale),
                     math.exp(2.0 * p.log_noise_traj))


def arc_position_quadrature(speed: float, curvature: float, t: float):
    """Arc position by numerical integration of the heading ODE."""
    x, _ = quad(lambda tau: speed * math.cos(curvature * speed * tau), 0.0, t,
                epsabs=1e-12, epsrel=1e-12)
    y, _ = quad(lambda tau: speed * math.sin(curvature * speed * tau), 0.0, t,
                epsabs=1e-12, epsrel=1e-12)
    return np.array([x, y])


def point_in_convex_quad(point: np.ndarray, corners: np.ndarray) -> bool:
    """Half-plane containment for counter-clockwise quad corners."""
    for i in range(4):
        a = corners[i]
        b = corners[(i + 1) % 4]
        edge = b - a
        if edge[0] * (point[1] - a[1]) - edge[1] * (point[0] - a[0]) < 0:
            return False
    return True


def _grid_points(corners: np.ndarray, pitch: float) -> np.ndarray:
    """Points covering the rectangle on a regular grid in its own frame."""
    origin = corners[0]
    u = corners[1] - corners[0]
    v = corners[3] - corners[0]
    lu, lv = np.linalg.norm(u), np.linalg.norm(v)
    nu = max(int(math.ceil(lu / pitch)) + 1, 2)
    nv = max(int(math.ceil(lv / pitch)) + 1, 2)
    pts = []
    for i in range(nu):
        for j in range(nv):
            pts.append(origin + u * (i / (nu - 1)) + v * (j / (nv - 1)))
    return np.array(pts)


def rects_overlap_sampled(a: np.ndarray, b: np.ndarray, pitch: float = 0.05) -> bool:
    """Dense point-sampling overlap test between two convex quads."""
    for p in _grid_points(a, pitch):
        if point_in_convex_quad(p, b):
            return True
    for p in _grid_points(b, pitch):
        if point_in_convex_quad(p, a):
            return True
    return False


def triplet_oracle(token: np.ndarray, pos_anchors: list, neg_anchors: list,
                   margin: float) -> float:
    """Brute-force mean hinge over all 9 (positive, negative) pairs."""
    total = 0.0
    for pa in pos_anchors:
        for na in neg_anchors:
            dp = math.sqrt(sum((t - p) ** 2 for t, p in zip(token, pa)) + 1e-12)
            dn = math.sqrt(sum((t - n) ** 2 for t, n in zip(token, na)) + 1e-12)
            total += max(0.0, dp - dn + margin)
    return total / (len(pos_anchors) * len(neg_anchors))


def finite_difference(loss_fn, arrays: dict, h: float = 1e-5,
                      entries: dict | None = None) -> dict:
    """Central-difference gradients of ``loss_fn()`` for named float arrays.

    Each array is perturbed in place and restored. ``entries`` maps a name to
    the flat indices to probe (default: every entry); the others stay 0.
    """
    out = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in (range(flat.size) if entries is None else entries[name]):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        out[name] = g
    return out


# --- separating-axis collision, one pair and one step at a time -------------


def _heading_ref(points, i: int) -> tuple[float, float]:
    lo, hi = max(i - 1, 0), min(i + 1, len(points) - 1)
    dx = float(points[hi][0] - points[lo][0])
    dy = float(points[hi][1] - points[lo][1])
    norm = math.hypot(dx, dy)
    return (dx / norm, dy / norm) if norm > 1e-9 else (1.0, 0.0)


def _corners_ref(center, heading, length: float, width: float) -> list:
    cx, cy = float(center[0]), float(center[1])
    fx, fy = heading[0] * (length / 2.0), heading[1] * (length / 2.0)
    lx, ly = -heading[1] * (width / 2.0), heading[0] * (width / 2.0)
    return [(cx + fx + lx, cy + fy + ly), (cx - fx + lx, cy - fy + ly),
            (cx - fx - lx, cy - fy - ly), (cx + fx - lx, cy + fy - ly)]


def _sat_overlap_ref(a: list, b: list) -> bool:
    margin = math.inf
    for rect in (a, b):
        for i in range(2):
            ex = rect[i + 1][0] - rect[i][0]
            ey = rect[i + 1][1] - rect[i][1]
            norm = math.hypot(-ey, ex)
            ax, ay = -ey / norm, ex / norm
            pa = [x * ax + y * ay for x, y in a]
            pb = [x * ax + y * ay for x, y in b]
            margin = min(margin, min(max(pa), max(pb)) - max(min(pa), min(pb)))
    return margin > 0.0


def collision_reference(ego: Trajectory, agent_trajs: list, agent_footprints: list,
                        ego_footprint=(4.0, 1.8)) -> bool:
    """Ego/agent rectangle overlap at any common step, by a scalar SAT loop
    over every pair and step."""
    for traj, (length, width) in zip(agent_trajs, agent_footprints):
        for k in range(len(ego.points)):
            if _sat_overlap_ref(
                    _corners_ref(ego.points[k], _heading_ref(ego.points, k),
                                 *ego_footprint),
                    _corners_ref(traj.points[k], _heading_ref(traj.points, k),
                                 length, width)):
                return True
    return False


# --- the base model, one numpy row at a time -----------------------------------


def _encode_vec(obs: np.ndarray, p) -> np.ndarray:
    h = np.tanh(p.enc_w1 @ obs + p.enc_b1)
    raw = p.enc_w2 @ h + p.enc_b2
    return p.token_scale * raw / np.sqrt(raw @ raw + 1e-12)


def encode_ref(scene, p) -> tuple[Token, list[Token]]:
    """Ego and agent tokens of one scene; agents in input order."""
    if scene.ego_obs.shape[0] != p.enc_w1.shape[1]:
        raise ValueError(
            f"observation length {scene.ego_obs.shape[0]} != encoder input "
            f"{p.enc_w1.shape[1]}")
    return (Token(_encode_vec(scene.ego_obs, p)),
            [Token(_encode_vec(a, p)) for a in scene.agent_obs])


def _planner_raw(token: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    h = np.tanh(p.pln_w1 @ token + p.pln_b1)
    out = p.pln_w2 @ h + p.pln_b2
    return out[: p.n_code], RESIDUAL_BOUND * np.tanh(out[p.n_code:])


def plan_ref(token: Token, role, p, cb) -> tuple[Trajectory, np.ndarray]:
    """Anchor-plus-residual trajectory for the argmax admissible group."""
    raw_logits, residual = _planner_raw(token.values, p)
    logits = np.full_like(raw_logits, -np.inf)
    ids = admissible_groups(cb, role)
    logits[ids] = raw_logits[ids]
    group = int(np.argmax(logits))
    return Trajectory.from_flat(cb.group(group).traj_anchor + residual), logits


def plan_with_group_ref(token: Token, group: int, p, cb) -> Trajectory:
    """Trajectory for an externally chosen group."""
    _, residual = _planner_raw(token.values, p)
    return Trajectory.from_flat(cb.group(group).traj_anchor + residual)


def masked_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax where -inf entries get exactly zero probability."""
    m = np.max(logits[np.isfinite(logits)])
    z = np.where(np.isfinite(logits), np.exp(logits - m), 0.0)
    return z / z.sum()
