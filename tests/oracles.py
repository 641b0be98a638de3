"""Independent oracles for the test suite.

These deliberately avoid the library's own linear algebra and geometry: plain
loops, Gauss-Jordan elimination, Jacobi eigenvalues, a per-matrix jittered
Cholesky inverse, a scatter-add loop, the out-of-place Adam update, quadrature integration,
dense point sampling, the RBF kernel and its gradients in their earlier
seven-pass form, a one-scene L2, a broadcast separating-axis margin
over (..., corner, axis) projections, a scalar separating-axis loop, one-row
numpy forms of the base model and the group classifier, which read the
weights by checkpoint name, per-family parameter initializers drawing one
weight matrix at a time, the codebook's Lloyd
clustering with every distance recomputed by ``np.linalg.norm`` and
per-cluster means, a statement of the codebook's group layout with a
sort-per-label triplet selection and a whole-table ``lexsort`` one, the scene generator drawing and checking
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
from gptraj.core import COMMANDS, Command


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


def add_at_ref(shape: tuple, idx, g) -> np.ndarray:
    """``np.add.at(np.zeros(shape), idx, g)`` as a plain loop: each entry
    of row ``idx[i]`` adds ``g[i]``'s entry in index order, from 0.0."""
    out = np.zeros(shape)
    flat = out.reshape(shape[0], -1)
    ids = np.asarray(idx).reshape(-1)
    for i, row in zip(ids, np.reshape(g, (len(ids), flat.shape[1]))):
        for j, x in enumerate(row):
            flat[i, j] += x
    return out


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


def rbf_seven_pass_ref(x: np.ndarray, y: np.ndarray, log_ell: float, log_sf: float,
                       g: np.ndarray) -> tuple[np.ndarray, ...]:
    """The RBF kernel of the rows of x (..., N, D) and y (..., M, D) in its
    earlier form, squared distances 2 x.y subtracted from ||x||^2, plus
    ||y||^2, clipped at 0 and negated, with its closed-form gradients under
    the upstream gradient ``g``: returns (k, dx, dy, dlog_ell, dlog_sf)."""
    d2 = x @ np.swapaxes(y, -1, -2)
    d2 *= 2.0
    np.subtract(np.sum(x * x, axis=-1)[..., :, None], d2, out=d2)
    d2 += np.sum(y * y, axis=-1)[..., None, :]
    np.maximum(d2, 0.0, out=d2)
    ell = float(np.exp(log_ell))
    k = np.negative(d2)
    k /= 2.0 * ell * ell
    np.exp(k, out=k)
    k *= float(np.exp(log_sf)) ** 2
    gd2 = np.multiply(g, k)
    d_log_sf = np.array(2.0 * np.sum(gd2))
    np.copyto(gd2, 0.0, where=~(d2 > 0.0))
    gd2 *= -0.5 / ell ** 2
    dx = 2.0 * (np.sum(gd2, axis=-1)[..., None] * x - gd2 @ y)
    dy = 2.0 * (np.sum(gd2, axis=-2)[..., None] * y - np.swapaxes(gd2, -1, -2) @ x)
    d_log_ell = np.array(-2.0 * np.sum(np.multiply(gd2, d2, out=gd2)))
    return k, dx, dy, d_log_ell, d_log_sf


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


def traj_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance over the 6 waypoint pairs of two (6, 2)
    trajectories, in meters."""
    return float(np.mean(np.linalg.norm(a - b, axis=1)))


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
    anchors = cb.trajectories.mean(axis=1).reshape(-1, 6, 2)

    def ranked(ids):
        return sorted(ids, key=lambda i: (traj_distance(anchors[i], anchors[label]), i))

    command = command_of_ref(cb, label)
    same = ranked(g for g in group_ids_ref(cb, command) if g != label)
    if command is None:
        return same[:3], same[-3:]
    other = ranked(g for c in COMMANDS if c != command for g in group_ids_ref(cb, c))
    return same[:3], other[:3]


def triplet_table_ref(cb) -> tuple[np.ndarray, np.ndarray]:
    """The triplet classes of every label, as (n_code, 3) positive and
    negative id arrays, from one ``lexsort`` over the full (n_code, n_code)
    ``traj_dists_ref`` matrix of the trajectory anchors. A label's
    candidates sort by rank class, then distance, then id: class 0 is its
    own bucket, 1 another ego bucket (ego labels only), 2 never chosen (the
    label itself, the other role). An ego label's negatives open its class-1
    block, after its per_cmd - 1 class-0 groups; an agent label's close its
    n_agent - 1 class-0 groups."""
    anchors = cb.trajectories.mean(axis=1)
    dist = traj_dists_ref(anchors[None], anchors[:, None])  # [label, candidate]
    per_cmd, n_agent = cb.n_ego // len(COMMANDS), cb.n_code - cb.n_ego
    bucket = np.array([COMMANDS.index(command_of_ref(cb, g)) if g < cb.n_ego
                       else len(COMMANDS) for g in range(cb.n_code)])
    ego = bucket < len(COMMANDS)
    rank = np.where(bucket[:, None] == bucket, 0, np.where(ego[:, None] & ego, 1, 2))
    np.fill_diagonal(rank, 2)
    order = np.lexsort((dist, rank))
    start = np.where(ego, per_cmd - 1, n_agent - 4)
    return order[:, :3], np.take_along_axis(order, start[:, None] + np.arange(3), axis=1)


def classify_ref(token: np.ndarray, command, cb, w) -> tuple[int, np.ndarray]:
    """Masked classifier logits of one token and the argmax group (ties: lowest
    id): ``rbf_oracle`` features against every basis token in group order,
    then the two-layer tanh perceptron. ``w`` holds the ``cb.basis``,
    ``clf.*`` and ``gp.*`` tensors by checkpoint name."""
    ell, sf = math.exp(w["gp.log_lengthscale"]), math.exp(w["gp.log_outputscale"])
    feats = np.array([rbf_oracle(token, b, ell, sf)
                      for group in w["cb.basis"] for b in group])
    raw = w["clf.w2"] @ np.tanh(w["clf.w1"] @ feats + w["clf.b1"]) + w["clf.b2"]
    logits = np.full_like(raw, -np.inf)
    ids = group_ids_ref(cb, command)
    logits[ids] = raw[ids]
    return int(np.argmax(logits)), logits


def predict_ref(token: np.ndarray, command, model) -> tuple[np.ndarray, float]:
    """The GP module's trajectory mean and scalar variance for one token of a
    model (cb, tensors): ``classify_ref``, then ``gp_oracle`` in that group."""
    w = model.tensors
    g = classify_ref(token, command, model.cb, w)[0]
    return gp_oracle(w["cb.basis"][g], model.cb.trajectories[g], token,
                     math.exp(w["gp.log_lengthscale"]), math.exp(w["gp.log_outputscale"]),
                     math.exp(2.0 * w["gp.log_noise_traj"]))


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


def collision_reference(ego: np.ndarray, agent_trajs, agent_footprints,
                        ego_footprint=(4.0, 1.8)) -> bool:
    """Overlap of the ego rectangle of (6, 2) waypoints and an agent
    rectangle at any common step, by a scalar SAT loop over every pair and
    step."""
    for traj, (length, width) in zip(agent_trajs, agent_footprints):
        for k in range(len(ego)):
            if _sat_overlap_ref(
                    _corners_ref(ego[k], _heading_ref(ego, k), *ego_footprint),
                    _corners_ref(traj[k], _heading_ref(traj, k), length, width)):
                return True
    return False


# --- the scene generator, one candidate agent at a time -----------------------


def _stream_ref(seed: int, *keys) -> np.random.Generator:
    """The stream of a seed and keys: ``default_rng`` over the seed and each
    key, strings by their crc32."""
    ints = [seed & 0xFFFFFFFF] + [zlib.crc32(k.encode()) if isinstance(k, str)
                                  else k & 0xFFFFFFFF for k in keys]
    return np.random.default_rng(ints)


def arc_points_ref(speed: float, curvature: float) -> np.ndarray:
    """The (6, 2) waypoints of one constant-curvature arc from the origin
    heading +x: a straight line below curvature 1e-9 in magnitude."""
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
    rot = np.array([[c, -s], [s, c]])
    a.points = a.rel[None, :] + arc_points_ref(a.speed, a.curvature) @ rot.T
    return a


def gen_dataset_ref(spec, n_scenes: int, seed: int, obs_dim: int,
                    sample_agent=sample_agent_ref) -> list:
    """Scenes one at a time from their own streams: command, speed and
    curvature, the agent count, then per agent up to 20 candidates from
    ``sample_agent`` until ``collision_reference`` clears one, the mirror,
    and noisy observations of the raw features. Each scene is a dict of
    the dataset's JSON form, built here from plain lists."""
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
        ego = arc_points_ref(speed, curvature)
        agents = []
        for _ in range(int(rng.integers(0, 5))):
            for _ in range(20):
                cand = sample_agent(rng, spec.speed_prior)
                if not collision_reference(ego, [cand.points], [footprint]):
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
        records.append({
            "schema": 1, "scene_id": f"{spec.name}-{seed}-{i:06d}",
            "domain_tag": spec.name, "command": command.value,
            "ego_obs": ego_obs.tolist(), "agent_obs": [a.tolist() for a in agent_obs],
            "ego_gt": ego.tolist(), "agent_gt": [a.points.tolist() for a in agents],
            "agent_footprints": [list(footprint)] * len(agents)})
    return records


# --- the base model, one numpy row at a time -----------------------------------


def _encode_vec(obs: np.ndarray, w, token_scale: float) -> np.ndarray:
    h = np.tanh(w["base.enc_w1"] @ obs + w["base.enc_b1"])
    raw = w["base.enc_w2"] @ h + w["base.enc_b2"]
    return token_scale * raw / np.sqrt(raw @ raw + 1e-12)


def encode_ref(scene, w, token_scale: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ego and agent tokens of one scene; agents in input order. ``w`` holds
    the ``base.*`` tensors by checkpoint name."""
    n_in = w["base.enc_w1"].shape[1]
    if scene.ego_obs.shape[0] != n_in:
        raise ValueError(
            f"observation length {scene.ego_obs.shape[0]} != encoder input {n_in}")
    return (_encode_vec(scene.ego_obs, w, token_scale),
            [_encode_vec(a, w, token_scale) for a in scene.agent_obs])


def _planner_raw(token: np.ndarray, w, n_code: int) -> tuple[np.ndarray, np.ndarray]:
    h = np.tanh(w["base.pln_w1"] @ token + w["base.pln_b1"])
    out = w["base.pln_w2"] @ h + w["base.pln_b2"]
    return out[:n_code], RESIDUAL_BOUND * np.tanh(out[n_code:])


def plan_ref(token: np.ndarray, command, w, cb) -> tuple[np.ndarray, np.ndarray]:
    """Anchor-plus-residual (6, 2) trajectory for the argmax admissible
    group, and the masked logits."""
    raw_logits, residual = _planner_raw(token, w, cb.n_code)
    logits = np.full_like(raw_logits, -np.inf)
    ids = group_ids_ref(cb, command)
    logits[ids] = raw_logits[ids]
    group = int(np.argmax(logits))
    return (cb.trajectories.mean(axis=1)[group] + residual).reshape(6, 2), logits


def plan_with_group_ref(token: np.ndarray, group: int, w, cb) -> np.ndarray:
    """(6, 2) trajectory for an externally chosen group."""
    _, residual = _planner_raw(token, w, cb.n_code)
    return (cb.trajectories.mean(axis=1)[group] + residual).reshape(6, 2)


# --- parameter initialization, one family at a time ---------------------------


def base_init_ref(rng: np.random.Generator, obs_dim: int, token_dim: int, n_code: int,
                  hidden_enc: int, hidden_pln: int) -> dict[str, np.ndarray]:
    """Encoder and planner weights by checkpoint name: each weight matrix
    (n_out, n_in) from N(0, 1/sqrt(n_in)), drawn from ``rng`` layer by
    layer; zero biases."""
    def layer(n_out, n_in):
        return rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))

    return {
        "base.enc_w1": layer(hidden_enc, obs_dim), "base.enc_b1": np.zeros(hidden_enc),
        "base.enc_w2": layer(token_dim, hidden_enc), "base.enc_b2": np.zeros(token_dim),
        "base.pln_w1": layer(hidden_pln, token_dim), "base.pln_b1": np.zeros(hidden_pln),
        "base.pln_w2": layer(n_code + 12, hidden_pln),
        "base.pln_b2": np.zeros(n_code + 12),
    }


def classifier_init_ref(rng: np.random.Generator, n_code: int, group_size: int,
                        hidden: int) -> dict[str, np.ndarray]:
    """Group-classifier weights by checkpoint name, over n_code * group_size
    kernel features, drawn like ``base_init_ref``'s."""
    n_in = n_code * group_size
    return {
        "clf.w1": rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(hidden, n_in)),
        "clf.b1": np.zeros(hidden),
        "clf.w2": rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(n_code, hidden)),
        "clf.b2": np.zeros(n_code),
    }


def gp_scalars_ref(log_lengthscale: float = 0.0, log_outputscale: float = 0.0,
                   log_noise_recon: float = float(np.log(1e-2)),
                   log_noise_traj: float = float(np.log(1e-2))) -> dict[str, np.ndarray]:
    """The GP's log-space scalars by checkpoint name, as 0-d arrays; the
    defaults are a fresh model's."""
    return {"gp.log_lengthscale": np.array(log_lengthscale),
            "gp.log_outputscale": np.array(log_outputscale),
            "gp.log_noise_recon": np.array(log_noise_recon),
            "gp.log_noise_traj": np.array(log_noise_traj)}


def basis_tokens_ref(seed: int, n_code: int, group_size: int,
                     token_dim: int) -> np.ndarray:
    """(n_code, group_size, token_dim) basis tokens, i.i.d. N(0, 1/token_dim)."""
    return _stream_ref(seed, "basis-init").normal(
        0.0, 1.0 / np.sqrt(token_dim), size=(n_code, group_size, token_dim))


def init_tensors_ref(spec, seed: int, trajs: np.ndarray) -> dict[str, np.ndarray]:
    """Every checkpoint tensor of a fresh model of ``spec`` at ``seed`` with
    codebook trajectories ``trajs``: base weights from the ``base-init``
    stream, classifier weights from ``clf-init``, the default GP scalars and
    basis tokens from ``basis-init``."""
    n_code = spec.n_ego + spec.n_agent
    return {
        **base_init_ref(_stream_ref(seed, "base-init"), spec.obs_dim, spec.token_dim,
                        n_code, spec.encoder_hidden, spec.planner_hidden),
        **classifier_init_ref(_stream_ref(seed, "clf-init"), n_code, spec.group_size,
                              spec.classifier_hidden),
        **gp_scalars_ref(),
        "cb.basis": basis_tokens_ref(seed, n_code, spec.group_size, spec.token_dim),
        "cb.trajs": trajs,
    }


def masked_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax where -inf entries get exactly zero probability."""
    m = np.max(logits[np.isfinite(logits)])
    z = np.where(np.isfinite(logits), np.exp(logits - m), 0.0)
    return z / z.sum()
