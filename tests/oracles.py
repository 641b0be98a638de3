"""Independent oracles for the test suite.

These deliberately avoid the library's own linear algebra and geometry: plain
loops, Gauss-Jordan elimination, Jacobi eigenvalues, a per-matrix jittered
Cholesky inverse, the out-of-place Adam update, quadrature integration,
dense point sampling, a one-scene L2, a broadcast separating-axis margin
over (..., corner, axis) projections, a scalar separating-axis loop, one-row
numpy forms of the base model and the group classifier, the codebook's Lloyd
clustering with every distance recomputed by ``np.linalg.norm`` and
per-cluster means, a statement of the codebook's group layout with a
sort-per-label triplet selection, the scene generator drawing and checking
one candidate agent at a time, and central finite differences. They exist to
cross-check the production paths and must stay independent of them.
"""

from __future__ import annotations

import math
import zlib
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad
from scipy.linalg import lapack, solve_triangular

from gptraj.basemodel import RESIDUAL_BOUND
from gptraj.core import COMMANDS, Command, SceneRecord, Trajectory


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


def psd_inverse_ref(stack: np.ndarray, ladder) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of each (A + jitter I) in a (..., n, n) stack, one matrix at a
    time: dpotrf at each jitter of ``ladder`` until one succeeds, then two
    triangular solves against the identity. Returns the inverses and the
    jitters (...)."""
    stack = np.asarray(stack, dtype=np.float64)
    n = stack.shape[-1]
    inv = np.empty_like(stack).reshape(-1, n, n)
    jitters = np.empty(len(inv))
    for i, a in enumerate(stack.reshape(-1, n, n)):
        for jitter in ladder:
            c, info = lapack.dpotrf(a + jitter * np.eye(n), lower=1)
            if info == 0:
                break
        else:
            raise ZeroDivisionError(f"matrix {i} not positive definite")
        lower = np.tril(c)
        l_inv = solve_triangular(lower, np.eye(n), lower=True)
        inv[i] = solve_triangular(lower.T, l_inv, lower=False)
        jitters[i] = jitter
    return inv.reshape(stack.shape), jitters.reshape(stack.shape[:-2])


def adam_ref(p, g, m, v, t: int, lr: float, b1: float, b2: float, eps: float):
    """One out-of-place Adam step with bias correction: the new (p, m, v)."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


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


def traj_distance(a: Trajectory, b: Trajectory) -> float:
    """Mean Euclidean distance over the 6 waypoint pairs, in meters."""
    return float(np.mean(np.linalg.norm(a.points - b.points, axis=1)))


# --- codebook clustering -----------------------------------------------------


def traj_dists_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean-over-waypoints distance of flat (..., 12) rows, broadcast, by
    ``np.linalg.norm`` over the (x, y) axis."""
    d = a - b
    return np.linalg.norm(d.reshape(*d.shape[:-1], -1, 2), axis=-1).mean(axis=-1)


def lloyd_ref(flat: np.ndarray, k: int, rng: np.random.Generator, *,
              max_iters: int, tol: float) -> np.ndarray:
    """The k centroids of farthest-point initialization from a seeded first
    pick, then Lloyd iterations that recompute every distance, update each
    non-empty cluster by its ``mean`` and stop once no centroid moves by
    ``tol`` or more."""
    n = len(flat)
    first = int(rng.integers(n))
    centroids = [flat[first]]
    dists = traj_dists_ref(flat, flat[first])
    for _ in range(1, k):
        nxt = int(np.argmax(dists))
        centroids.append(flat[nxt])
        dists = np.minimum(dists, traj_dists_ref(flat, flat[nxt]))
    centroids = np.stack(centroids)

    for _ in range(max_iters):
        all_d = np.stack([traj_dists_ref(flat, c) for c in centroids], axis=1)
        assign = np.argmin(all_d, axis=1)
        new = centroids.copy()
        for j in range(k):
            members = flat[assign == j]
            if len(members):
                new[j] = members.mean(axis=0)
        motion = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        centroids = new
        if motion < tol:
            break
    return centroids


# --- the codebook's group layout ---------------------------------------------


def group_ids_ref(cb, command) -> list[int]:
    """Groups a row may be classified into: ``n_ego / 3`` ego groups per
    command in ``COMMANDS`` order, then the agent groups. ``command`` is
    None for an agent row."""
    if command is None:
        return list(range(cb.n_ego, cb.n_code))
    per_cmd = cb.n_ego // len(COMMANDS)
    first = COMMANDS.index(command) * per_cmd
    return list(range(first, first + per_cmd))


def command_of_ref(cb, group: int):
    """The command of an ego group, None for an agent group."""
    if group >= cb.n_ego:
        return None
    return COMMANDS[group // (cb.n_ego // len(COMMANDS))]


def triplet_classes_ref(cb, label: int) -> tuple[list[int], list[int]]:
    """Positive/negative classes of one label by sorting its candidates on
    (trajectory-anchor distance, id). Ego: the 3 nearest other groups of its
    command, the 3 nearest groups of other commands. Agent: the 3 nearest
    and 3 farthest other agent groups."""
    anchors = [Trajectory.from_flat(a) for a in cb.traj_anchors()]

    def ranked(ids):
        return sorted(ids, key=lambda i: (traj_distance(anchors[i], anchors[label]), i))

    command = command_of_ref(cb, label)
    same = ranked(g for g in group_ids_ref(cb, command) if g != label)
    if command is None:
        return same[:3], same[-3:]
    other = ranked(g for c in COMMANDS if c != command for g in group_ids_ref(cb, c))
    return same[:3], other[:3]


def classify_ref(token: np.ndarray, command, cb, clf, p) -> tuple[int, np.ndarray]:
    """Masked classifier logits of one token and the argmax group (ties: lowest
    id): ``rbf_oracle`` features against every basis token in group order,
    then the two-layer tanh perceptron."""
    ell, sf = math.exp(p.log_lengthscale), math.exp(p.log_outputscale)
    feats = np.array([rbf_oracle(token, b, ell, sf)
                      for group in cb.basis for b in group])
    raw = clf.w2 @ np.tanh(clf.w1 @ feats + clf.b1) + clf.b2
    logits = np.full_like(raw, -np.inf)
    ids = group_ids_ref(cb, command)
    logits[ids] = raw[ids]
    return int(np.argmax(logits)), logits


def predict_ref(token: np.ndarray, command, model) -> tuple[np.ndarray, float]:
    """The GP module's trajectory mean and scalar variance for one token of a
    model (cb, clf, gp): ``classify_ref``, then ``gp_oracle`` in that group."""
    p = model.gp
    g = classify_ref(token, command, model.cb, model.clf, p)[0]
    return gp_oracle(model.cb.basis[g], model.cb.trajectories[g], token,
                     math.exp(p.log_lengthscale), math.exp(p.log_outputscale),
                     math.exp(2.0 * p.log_noise_traj))


def arc_position_quadrature(speed: float, curvature: float, t: float):
    """Arc position by numerical integration of the heading ODE."""
    x, _ = quad(lambda tau: speed * math.cos(curvature * speed * tau), 0.0, t,
                epsabs=1e-12, epsrel=1e-12)
    y, _ = quad(lambda tau: speed * math.sin(curvature * speed * tau), 0.0, t,
                epsabs=1e-12, epsrel=1e-12)
    return np.array([x, y])


def point_in_convex_quad(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Half-plane containment of each point (..., 2) in the quad with these
    counter-clockwise corners; boolean (...)."""
    inside = np.ones(points.shape[:-1], dtype=bool)
    for i in range(4):
        a = corners[i]
        b = corners[(i + 1) % 4]
        edge = b - a
        inside &= (edge[0] * (points[..., 1] - a[1])
                   - edge[1] * (points[..., 0] - a[0])) >= 0
    return inside


def _grid_points(corners: np.ndarray, pitch: float) -> np.ndarray:
    """Points (nu * nv, 2) covering the rectangle on a regular grid in its own
    frame."""
    origin = corners[0]
    u = corners[1] - corners[0]
    v = corners[3] - corners[0]
    lu, lv = np.linalg.norm(u), np.linalg.norm(v)
    nu = max(int(math.ceil(lu / pitch)) + 1, 2)
    nv = max(int(math.ceil(lv / pitch)) + 1, 2)
    s = (np.arange(nu) / (nu - 1))[:, None, None]
    t = (np.arange(nv) / (nv - 1))[None, :, None]
    return (origin + u * s + v * t).reshape(-1, 2)


def rects_overlap_sampled(a: np.ndarray, b: np.ndarray, pitch: float = 0.05) -> bool:
    """Dense point-sampling overlap test between two convex quads."""
    return bool(point_in_convex_quad(_grid_points(a, pitch), b).any()
                or point_in_convex_quad(_grid_points(b, pitch), a).any())


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


# --- planning metrics in their earlier forms --------------------------------


def avg_l2_ref(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float, float, float]:
    """(overall, at 1 s, at 2 s, at 3 s) cumulative-average point errors of
    one (6, 2) trajectory."""
    err = np.linalg.norm(pred - gt, axis=1)
    at3 = float(err.mean())
    return at3, float(err[:2].mean()), float(err[:4].mean()), at3


def sat_margin_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signed SAT overlap of rectangle pairs (..., 4, 2), by broadcasting the
    projections of both rectangles onto each rectangle's edge normals."""
    margin = np.inf
    for rect in (a, b):
        edge = rect[..., 1:3, :] - rect[..., 0:2, :]
        axis = np.stack([-edge[..., 1], edge[..., 0]], axis=-1)
        axis = axis / np.hypot(axis[..., 0], axis[..., 1])[..., None]
        pa = a[..., :, None, 0] * axis[..., None, :, 0] + a[..., :, None, 1] * axis[..., None, :, 1]
        pb = b[..., :, None, 0] * axis[..., None, :, 0] + b[..., :, None, 1] * axis[..., None, :, 1]
        overlap = (np.minimum(pa.max(axis=-2), pb.max(axis=-2))
                   - np.maximum(pa.min(axis=-2), pb.min(axis=-2)))
        margin = np.minimum(margin, overlap.min(axis=-1))
    return margin


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


# --- the scene generator, one candidate agent at a time -----------------------


def _stream_ref(seed: int, *keys) -> np.random.Generator:
    """The stream of a seed and keys: ``default_rng`` over the seed and each
    key, strings by their crc32."""
    ints = [seed & 0xFFFFFFFF] + [zlib.crc32(k.encode()) if isinstance(k, str)
                                  else k & 0xFFFFFFFF for k in keys]
    return np.random.default_rng(ints)


def _arc_ref(speed: float, curvature: float) -> np.ndarray:
    s = speed * (0.5 * np.arange(1, 7))
    if abs(curvature) < 1e-9:
        return np.stack([s, np.zeros_like(s)], axis=1)
    th = curvature * s
    return np.stack([np.sin(th) / curvature, (1.0 - np.cos(th)) / curvature], axis=1)


def sample_agent_ref(rng: np.random.Generator, speed_prior) -> SimpleNamespace:
    """One candidate agent: 5 scalar draws, then its arc from the drawn pose."""
    a = SimpleNamespace(rel=np.array([rng.uniform(4.0, 28.0), rng.uniform(-8.0, 8.0)]),
                        heading=rng.normal(0.0, 0.25), speed=rng.uniform(*speed_prior),
                        curvature=rng.normal(0.0, 0.01))
    c, s = np.cos(a.heading), np.sin(a.heading)
    a.points = a.rel[None, :] + _arc_ref(a.speed, a.curvature) @ np.array([[c, -s], [s, c]]).T
    return a


def gen_dataset_ref(spec, n_scenes: int, seed: int, obs_dim: int,
                    sample_agent=sample_agent_ref) -> list:
    """Scenes one at a time from their own streams: command, speed and
    curvature, the agent count, then per agent up to 20 candidates from
    ``sample_agent`` until ``collision_reference`` clears one, the mirror,
    and noisy observations of the raw features."""
    order = [Command.TURN_LEFT, Command.GO_STRAIGHT, Command.TURN_RIGHT]
    footprint = (4.5, 2.0)
    embed = _stream_ref(0, "obs-embed", obs_dim).normal(0.0, 1.0 / np.sqrt(12),
                                                         size=(obs_dim, 12))
    records = []
    for i in range(n_scenes):
        rng = _stream_ref(seed, "scene", spec.name, i)
        command = order[int(rng.integers(3))]
        speed = rng.uniform(*spec.speed_prior)
        curvature = rng.normal(*spec.curvature_prior[command])
        ego = _arc_ref(speed, curvature)
        agents = []
        for _ in range(int(rng.integers(0, 5))):
            for _ in range(20):
                cand = sample_agent(rng, spec.speed_prior)
                if not collision_reference(Trajectory(ego), [Trajectory(cand.points)],
                                           [footprint]):
                    agents.append(cand)
                    break
        if spec.mirror:
            command = {Command.TURN_LEFT: Command.TURN_RIGHT,
                       Command.TURN_RIGHT: Command.TURN_LEFT}.get(command, command)
            curvature = -curvature
            ego = ego * np.array([1.0, -1.0])
            for a in agents:
                a.rel = a.rel * np.array([1.0, -1.0])
                a.heading, a.curvature = -a.heading, -a.curvature
                a.points = a.points * np.array([1.0, -1.0])

        def observe(raw):
            clean = spec.obs_transform @ (embed @ raw) + spec.obs_bias
            return clean + rng.normal(0.0, spec.obs_noise_std, size=obs_dim)

        raw = np.zeros(12)
        raw[[0, 1, 2, 3 + order.index(command), 10]] = (
            1.0, speed / 10.0, curvature / 0.08, 1.0, len(agents) / 4)
        if agents:
            raw[6] = np.mean([a.rel[0] for a in agents]) / 20.0
            raw[7] = np.mean([a.rel[1] for a in agents]) / 10.0
        agent_obs = []
        ego_obs = observe(raw)
        for a in agents:
            raw = np.zeros(12)
            raw[[1, 2, 6, 7, 8, 9, 10]] = (
                a.speed / 10.0, a.curvature / 0.08, a.rel[0] / 20.0, a.rel[1] / 10.0,
                np.sin(a.heading), np.cos(a.heading), footprint[0] / 5.0)
            agent_obs.append(observe(raw))
        records.append(SceneRecord(
            scene_id=f"{spec.name}-{seed}-{i:06d}", domain_tag=spec.name,
            command=command, ego_obs=ego_obs, agent_obs=agent_obs,
            ego_gt=Trajectory(ego), agent_gt=[Trajectory(a.points) for a in agents],
            agent_footprints=[footprint] * len(agents)))
    return records


# --- the base model, one numpy row at a time -----------------------------------


def _encode_vec(obs: np.ndarray, p) -> np.ndarray:
    h = np.tanh(p.enc_w1 @ obs + p.enc_b1)
    raw = p.enc_w2 @ h + p.enc_b2
    return p.token_scale * raw / np.sqrt(raw @ raw + 1e-12)


def encode_ref(scene, p) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ego and agent tokens of one scene; agents in input order."""
    if scene.ego_obs.shape[0] != p.enc_w1.shape[1]:
        raise ValueError(
            f"observation length {scene.ego_obs.shape[0]} != encoder input "
            f"{p.enc_w1.shape[1]}")
    return _encode_vec(scene.ego_obs, p), [_encode_vec(a, p) for a in scene.agent_obs]


def _planner_raw(token: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    h = np.tanh(p.pln_w1 @ token + p.pln_b1)
    out = p.pln_w2 @ h + p.pln_b2
    return out[: p.n_code], RESIDUAL_BOUND * np.tanh(out[p.n_code:])


def plan_ref(token: np.ndarray, command, p, cb) -> tuple[Trajectory, np.ndarray]:
    """Anchor-plus-residual trajectory for the argmax admissible group."""
    raw_logits, residual = _planner_raw(token, p)
    logits = np.full_like(raw_logits, -np.inf)
    ids = group_ids_ref(cb, command)
    logits[ids] = raw_logits[ids]
    group = int(np.argmax(logits))
    return Trajectory.from_flat(cb.traj_anchors()[group] + residual), logits


def plan_with_group_ref(token: np.ndarray, group: int, p, cb) -> Trajectory:
    """Trajectory for an externally chosen group."""
    _, residual = _planner_raw(token, p)
    return Trajectory.from_flat(cb.traj_anchors()[group] + residual)


def masked_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax where -inf entries get exactly zero probability."""
    m = np.max(logits[np.isfinite(logits)])
    z = np.where(np.isfinite(logits), np.exp(logits - m), 0.0)
    return z / z.sum()
