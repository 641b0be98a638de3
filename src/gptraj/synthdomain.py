"""Deterministic synthetic multi-domain driving scenes.

Ego ground truth is an exact constant-curvature arc sampled at the 6
waypoint times; agents follow their own arcs from a sampled start pose.
Observations are a fixed global linear embedding of the scene's semantic
features, distorted by a per-domain affine transform plus Gaussian noise.
Domain shift is therefore purely statistical: mirrored geometry with swapped
turn labels, shifted speed/curvature priors, a rotated or rank-deficient
observation space, and a higher noise floor.

Each scene draws from its own stream: command, speed, curvature and agent
count, then 5 scalar draws per candidate agent, then the observation noise.
A candidate that collides with the ego is redrawn, up to
``AGENT_RESAMPLE_ATTEMPTS`` times per agent. The candidates therefore form
one fixed sequence per scene whatever is accepted; the decisions only set
how many are consumed before the noise draws start. Only the draws stay per
scene, since each comes from its scene's stream in this order. A scalar
draw is the expression that ``Generator.uniform`` or ``.normal`` evaluates,
``low + (high - low) * random()`` or ``loc + scale * standard_normal()``:
the same value without the call's argument checks, which is why
``DomainSpec`` rejects a negative standard deviation itself. Everything
else runs in array passes over all scenes. ``gen_dataset`` draws
ahead in rounds: one candidate per open agent slot of every scene, then the
whole round's geometry (rotations, arcs, waypoints) in one pass, all of it
checked by one SAT pass, then each scene's decisions in draw order. A round
never draws more candidates than its decisions consume, so every stream,
and with it every record, is the one a candidate-at-a-time loop gives. The
ego arcs, the mirror, and the raw feature rows of every ego and agent are
one pass each, and the clean observations of all of them one stacked
product ``obs_transform @ (embed @ raw)`` over (12, 1) operands: numpy
computes each stacked matrix-vector product as it does the one-row
product, so every row has the one-row bytes, where a 2-D (n, 12) product
rounds differently. Each scene's noise for its ego and agent rows is one
draw of (1 + A, D) values, ego row first, the order of the one-row draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DEFAULT_OBS_DIM, N_WAYPOINTS, Command, SceneRecord, rng_for
from .evalmetrics import scene_collisions

RAW_DIM = 12
AGENT_FOOTPRINT = (4.5, 2.0)
MAX_AGENTS = 4
AGENT_RESAMPLE_ATTEMPTS = 20

# feature normalization constants keep raw entries O(1)
_SPEED_NORM = 10.0
_CURV_NORM = 0.08
_RELX_NORM = 20.0
_RELY_NORM = 10.0

# a scene's command draw indexes this order, as does its one-hot raw
# feature; the mirror swaps the turns, index k for 2 - k
_COMMAND_ORDER = (Command.TURN_LEFT, Command.GO_STRAIGHT, Command.TURN_RIGHT)

_TIMES = 0.5 * np.arange(1, N_WAYPOINTS + 1)  # the waypoint times in s

# the columns of a candidate agent's draws, in draw order: start x and y,
# heading, speed, curvature; mirroring negates y, heading and curvature
_X, _Y, _HEADING, _SPEED, _CURV = range(5)
_MIRROR_DRAWS = np.array([1.0, -1.0, -1.0, 1.0, -1.0])
_FLIP = np.array([1.0, -1.0])  # the mirror of an (x, y) point

# each observation-transform kind's required descriptor keys, in the order
# the build reads them
_TRANSFORM_KEYS = {"identity": (), "rotation": ("seed",), "low_rank": ("rank", "seed")}


def check_domain(obs_noise_std, curvature_prior, speed_prior) -> None:
    """``DomainSpec``'s checks of its numbers, which ``config.resolve`` makes
    before it builds any observation transform. A standard deviation with
    its sign bit set is rejected, as numpy's ``normal`` rejects it."""
    if np.signbit(obs_noise_std):
        raise ValueError("obs_noise_std must be >= 0")
    for command, (_, std) in curvature_prior.items():
        if np.signbit(std):
            raise ValueError(f"curvature_prior.{command.value} std must be >= 0, got {std!r}")
    lo, hi = speed_prior
    if not (1.0 <= lo <= hi <= 20.0):
        raise ValueError(f"speed range {speed_prior} outside [1, 20] m/s")


@dataclass(frozen=True)
class DomainSpec:
    """Statistical signature of one driving domain."""

    name: str
    obs_transform: np.ndarray  # (obs_dim, obs_dim)
    obs_bias: np.ndarray  # (obs_dim,)
    obs_noise_std: float
    curvature_prior: dict[Command, tuple[float, float]]  # mean, std in 1/m
    speed_prior: tuple[float, float]  # min, max in m/s
    mirror: bool = False

    def __post_init__(self):
        check_domain(self.obs_noise_std, self.curvature_prior, self.speed_prior)


def embed_matrix(obs_dim: int) -> np.ndarray:
    """Fixed global raw-feature embedding, shared by every domain."""
    rng = rng_for(0, "obs-embed", obs_dim)
    return rng.normal(0.0, 1.0 / np.sqrt(RAW_DIM), size=(obs_dim, RAW_DIM))


def check_obs_transform(desc: dict) -> str:
    """The kind of an observation-transform descriptor (see
    ``build_obs_transform``), checked without building it: an unknown kind
    or a negative ``bias_scale`` raises ValueError, a missing ``seed`` or
    ``rank`` KeyError."""
    kind = desc.get("kind", "identity")
    if "bias_seed" in desc and np.signbit(desc.get("bias_scale", 0.1)):
        raise ValueError(f"bias_scale must be >= 0, got {desc['bias_scale']!r}")
    if not isinstance(kind, str) or kind not in _TRANSFORM_KEYS:
        raise ValueError(f"unknown obs_transform kind {kind!r}")
    for key in _TRANSFORM_KEYS[kind]:
        if key not in desc:
            raise KeyError(key)
    return kind


def build_obs_transform(desc: dict, obs_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Expand a compact config descriptor, an object whose ``kind`` is
    "identity" (the default), "rotation" or "low_rank", into an explicit
    (matrix, bias); ``bias_seed`` draws a bias, else it is zero. Only the
    rotation and low-rank kinds load ``scipy.linalg``."""
    kind = check_obs_transform(desc)
    bias = np.zeros(obs_dim)
    if "bias_seed" in desc:
        bias = rng_for(int(desc["bias_seed"]), "obs-bias").normal(
            0.0, float(desc.get("bias_scale", 0.1)), size=obs_dim)
    if kind == "identity":
        return np.eye(obs_dim), bias
    if kind == "rotation":
        from scipy.linalg import expm

        rng = rng_for(int(desc["seed"]), "obs-rotation")
        s = rng.normal(size=(obs_dim, obs_dim))
        s = s - s.T
        s /= np.linalg.norm(s, 2)
        return expm(float(desc.get("angle", 0.4)) * s), bias
    from scipy.linalg import qr

    rank = int(desc["rank"])
    rng = rng_for(int(desc["seed"]), "obs-lowrank")
    q, _ = qr(rng.normal(size=(obs_dim, obs_dim)))
    v = q[:, :rank]
    return v @ v.T, bias


def arc_points(speed, curvature) -> np.ndarray:
    """Constant-curvature arcs from the origin heading +x, exact closed form.

    ``speed`` and ``curvature`` are (m,) rows, giving the (m, 6, 2)
    waypoints at t = 0.5 ... 3.0 s, or scalars, giving (6, 2). A row with
    ``|curvature| < 1e-9`` is the straight line (speed * t, 0).
    """
    speed, curvature = np.asarray(speed, dtype=np.float64), np.asarray(curvature, dtype=np.float64)
    s = speed[..., None] * _TIMES
    straight = (np.abs(curvature) < 1e-9)[..., None]
    c = np.where(straight, 1.0, curvature[..., None])  # a straight row's stand-in
    th = c * s
    return np.stack([np.where(straight, s, np.sin(th) / c),
                     np.where(straight, 0.0, (1.0 - np.cos(th)) / c)], axis=-1)


def _sample_agents(rngs: list[np.random.Generator], speed_prior
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One candidate agent from each stream of ``rngs``: its 5 scalar draws
    (m, 5) in the column order of ``_X`` ... ``_CURV``, which is their draw
    order, and its waypoints (m, 6, 2), the arc of its speed and curvature
    turned by its heading and moved to its start."""
    lo, hi = speed_prior
    # uniform(4, 28), uniform(-8, 8), normal(0, 0.25), uniform(lo, hi),
    # normal(0, 0.01) as the expressions those calls evaluate
    draws = np.array([(4.0 + (28.0 - 4.0) * rng.random(), -8.0 + (8.0 + 8.0) * rng.random(),
                       0.0 + 0.25 * rng.standard_normal(), lo + (hi - lo) * rng.random(),
                       0.0 + 0.01 * rng.standard_normal()) for rng in rngs])
    c, s = np.cos(draws[:, _HEADING]), np.sin(draws[:, _HEADING])
    rot = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    # a (6, 2) @ (2, 2) product per row, as for one arc: BLAS fuses its
    # multiply-adds, so an elementwise rotation would round differently
    arcs = arc_points(draws[:, _SPEED], draws[:, _CURV])
    return draws, draws[:, None, :2] + arcs @ rot.transpose(0, 2, 1)


def _agent_raw(agents: np.ndarray) -> np.ndarray:
    raw = np.zeros((len(agents), RAW_DIM))
    raw[:, 1] = agents[:, _SPEED] / _SPEED_NORM
    raw[:, 2] = agents[:, _CURV] / _CURV_NORM
    raw[:, 6] = agents[:, _X] / _RELX_NORM
    raw[:, 7] = agents[:, _Y] / _RELY_NORM
    raw[:, 8] = np.sin(agents[:, _HEADING])
    raw[:, 9] = np.cos(agents[:, _HEADING])
    raw[:, 10] = AGENT_FOOTPRINT[0] / 5.0
    return raw


def _ego_raw(speeds: np.ndarray, curvatures: np.ndarray, commands: np.ndarray,
             starts: np.ndarray, n_agents: np.ndarray) -> np.ndarray:
    """The (S, 12) raw rows of S egos from their speeds, curvatures,
    command indices, agent counts and their agents' (x, y) starts (N, 2)
    in scene order. A scene's mean start is ``ndarray.mean``'s: its
    agents' coordinates summed in slot order from zero (further zeros pad
    the slots), divided by the count; a scene without agents has zeros."""
    n = len(speeds)
    first = np.cumsum(n_agents) - n_agents
    scene = np.repeat(np.arange(n), n_agents)
    padded = np.zeros((n, MAX_AGENTS, 2))
    padded[scene, np.arange(len(scene)) - first[scene]] = starts
    means = padded.sum(axis=1) / np.maximum(n_agents, 1)[:, None]
    raw = np.zeros((n, RAW_DIM))
    raw[:, 0] = 1.0
    raw[:, 1] = speeds / _SPEED_NORM
    raw[:, 2] = curvatures / _CURV_NORM
    raw[np.arange(n), 3 + commands] = 1.0
    raw[:, 6] = means[:, 0] / _RELX_NORM
    raw[:, 7] = means[:, 1] / _RELY_NORM
    raw[:, 10] = n_agents / MAX_AGENTS
    return raw


def _draw_agents(spec: DomainSpec, rngs: list[np.random.Generator],
                 ego_points: np.ndarray, n_agents: list[int]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The collision-free agents of every scene: their draws (N, 5) and
    waypoints (N, 6, 2), as ``_sample_agents`` gives them, in scene order
    and each scene's in slot order, and each scene's count (S,).

    Each round draws one candidate per open slot of every pending scene from
    that scene's stream, checks them all with one SAT pass against
    ``ego_points`` (S, 6, 2), then walks each scene's candidates in draw
    order: a clear one fills the slot, a colliding one counts an attempt,
    and a slot's ``AGENT_RESAMPLE_ATTEMPTS``-th collision drops it.
    Resolving a slot takes at least one candidate, so a scene consumes every
    candidate of its round and its stream stands where the one-at-a-time
    loop would leave it.
    """
    draws, points = [np.empty((0, 5))], [np.empty((0, N_WAYPOINTS, 2))]
    kept: list[list[int]] = [[] for _ in rngs]  # per scene: its agents' candidate ids
    open_slots = list(n_agents)
    attempts = [0] * len(rngs)
    pending = [i for i in range(len(rngs)) if open_slots[i]]
    n_drawn = 0
    while pending:
        owner = [i for i in pending for _ in range(open_slots[i])]
        d, p = _sample_agents([rngs[i] for i in owner], spec.speed_prior)
        hits = scene_collisions(ego_points[owner], p, np.full((len(owner), 2), AGENT_FOOTPRINT),
                                np.arange(len(owner)))
        for cand, (i, hit) in enumerate(zip(owner, hits), start=n_drawn):
            if hit:
                attempts[i] += 1
                if attempts[i] < AGENT_RESAMPLE_ATTEMPTS:
                    continue
                # all attempts collided: drop the agent
            else:
                kept[i].append(cand)
            attempts[i] = 0
            open_slots[i] -= 1
        draws.append(d)
        points.append(p)
        n_drawn += len(owner)
        pending = [i for i in pending if open_slots[i]]
    ids = [cand for scene in kept for cand in scene]
    return (np.concatenate(draws)[ids], np.concatenate(points)[ids],
            np.array([len(scene) for scene in kept], dtype=np.int64))


def gen_dataset(spec: DomainSpec, n_scenes: int, seed: int,
                obs_dim: int = DEFAULT_OBS_DIM) -> list[SceneRecord]:
    """n scenes with per-scene derived RNG streams; ``core.save_dataset``
    writes them to disk.

    A scene is an ego arc, 0-4 collision-free agents and distorted
    observations. The mirror flag reflects the whole scene about the x axis
    after the draws (so mirrored and unmirrored runs of the same seed differ
    exactly by the sign of every y) and swaps the turn-left/turn-right label
    to keep command semantics truthful.
    """
    if n_scenes < 0:
        raise ValueError(f"n_scenes must be non-negative, got {n_scenes}")
    rngs = [rng_for(seed, "scene", spec.name, i) for i in range(n_scenes)]
    lo, hi = spec.speed_prior
    commands, speeds, curvatures, n_agents = [], [], [], []
    for rng in rngs:
        command = int(rng.integers(3))
        speeds.append(lo + (hi - lo) * rng.random())  # uniform(lo, hi)
        mu, sd = spec.curvature_prior[_COMMAND_ORDER[command]]
        curvatures.append(mu + sd * rng.standard_normal())  # normal(mu, sd)
        commands.append(command)
        n_agents.append(int(rng.integers(0, MAX_AGENTS + 1)))
    speeds, curvatures = np.array(speeds), np.array(curvatures)
    commands = np.array(commands, dtype=np.int64)
    ego_points = arc_points(speeds, curvatures)
    draws, points, n_agents = _draw_agents(spec, rngs, ego_points, n_agents)
    if spec.mirror:
        commands = 2 - commands
        curvatures = -curvatures
        ego_points = ego_points * _FLIP
        draws = draws * _MIRROR_DRAWS
        points = points * _FLIP

    # every scene's rows in one array: its ego row, then its agents' rows
    ego_rows = np.arange(n_scenes) + np.cumsum(n_agents) - n_agents
    is_ego = np.zeros(n_scenes + len(draws), dtype=bool)
    is_ego[ego_rows] = True
    raw = np.empty((len(is_ego), RAW_DIM))
    raw[is_ego] = _ego_raw(speeds, curvatures, commands, draws[:, :2], n_agents)
    raw[~is_ego] = _agent_raw(draws)
    obs = (spec.obs_transform @ (embed_matrix(obs_dim) @ raw[:, :, None]))[:, :, 0]
    obs += spec.obs_bias
    footprints = np.full((len(draws), 2), AGENT_FOOTPRINT)

    records = []
    for i, (rng, command, ego, row, n) in enumerate(
            zip(rngs, commands.tolist(), ego_points, ego_rows.tolist(), n_agents.tolist())):
        agent = row - i  # the scene's first agent
        rows = obs[row:row + 1 + n]
        rows += rng.normal(0.0, spec.obs_noise_std, size=rows.shape)
        records.append(SceneRecord(
            scene_id=f"{spec.name}-{seed}-{i:06d}",
            domain_tag=spec.name,
            command=_COMMAND_ORDER[command],
            ego_obs=rows[0],
            agent_obs=rows[1:],
            ego_gt=ego,
            agent_gt=points[agent:agent + n],
            agent_footprints=footprints[agent:agent + n],
        ))
    return records


def strip_labels(records: list[SceneRecord]) -> list[SceneRecord]:
    """Unlabeled copies of the records (target-domain adaptation input)."""
    return [replace(r, ego_gt=None, agent_gt=None) for r in records]
