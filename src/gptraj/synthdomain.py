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
how many are consumed before the noise draws start. ``gen_dataset`` draws
ahead in rounds: one candidate per open agent slot of every scene, each
candidate's draws still taken one at a time from its own scene's stream,
then the whole round's geometry (rotations, arcs, waypoints) in one array
pass, all of it checked by one SAT pass, then each scene's decisions in draw
order. A round never draws more candidates than its decisions consume, so
every stream, and with it every record, is the one a candidate-at-a-time
loop gives. The ego arcs are one array pass over all scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm, qr

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

# a scene's command draw indexes this order, as does its one-hot raw feature
_COMMAND_ORDER = (Command.TURN_LEFT, Command.GO_STRAIGHT, Command.TURN_RIGHT)

_MIRROR_SWAP = {
    Command.TURN_LEFT: Command.TURN_RIGHT,
    Command.TURN_RIGHT: Command.TURN_LEFT,
    Command.GO_STRAIGHT: Command.GO_STRAIGHT,
}

_TIMES = 0.5 * np.arange(1, N_WAYPOINTS + 1)  # the waypoint times in s

# the columns of a candidate agent's draws, in draw order: start x and y,
# heading, speed, curvature; mirroring negates y, heading and curvature
_X, _Y, _HEADING, _SPEED, _CURV = range(5)
_MIRROR_DRAWS = np.array([1.0, -1.0, -1.0, 1.0, -1.0])


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
        if self.obs_noise_std < 0:
            raise ValueError("obs_noise_std must be >= 0")
        lo, hi = self.speed_prior
        if not (1.0 <= lo <= hi <= 20.0):
            raise ValueError(f"speed range {self.speed_prior} outside [1, 20] m/s")


def embed_matrix(obs_dim: int) -> np.ndarray:
    """Fixed global raw-feature embedding, shared by every domain."""
    rng = rng_for(0, "obs-embed", obs_dim)
    return rng.normal(0.0, 1.0 / np.sqrt(RAW_DIM), size=(obs_dim, RAW_DIM))


def build_obs_transform(desc: dict, obs_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Expand a compact config descriptor, an object whose ``kind`` is
    "identity" (the default), "rotation" or "low_rank", into an explicit
    (matrix, bias); ``bias_seed`` draws a bias, else it is zero."""
    kind = desc.get("kind", "identity")
    bias = np.zeros(obs_dim)
    if "bias_seed" in desc:
        bias = rng_for(int(desc["bias_seed"]), "obs-bias").normal(
            0.0, float(desc.get("bias_scale", 0.1)), size=obs_dim)
    if kind == "identity":
        return np.eye(obs_dim), bias
    if kind == "rotation":
        rng = rng_for(int(desc["seed"]), "obs-rotation")
        s = rng.normal(size=(obs_dim, obs_dim))
        s = s - s.T
        s /= np.linalg.norm(s, 2)
        return expm(float(desc.get("angle", 0.4)) * s), bias
    if kind == "low_rank":
        rank = int(desc["rank"])
        rng = rng_for(int(desc["seed"]), "obs-lowrank")
        q, _ = qr(rng.normal(size=(obs_dim, obs_dim)))
        v = q[:, :rank]
        return v @ v.T, bias
    raise ValueError(f"unknown obs_transform kind {kind!r}")


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
    draws = np.array([(rng.uniform(4.0, 28.0), rng.uniform(-8.0, 8.0), rng.normal(0.0, 0.25),
                       rng.uniform(lo, hi), rng.normal(0.0, 0.01)) for rng in rngs])
    c, s = np.cos(draws[:, _HEADING]), np.sin(draws[:, _HEADING])
    rot = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    # a (6, 2) @ (2, 2) product per row, as for one arc: BLAS fuses its
    # multiply-adds, so an elementwise rotation would round differently
    arcs = arc_points(draws[:, _SPEED], draws[:, _CURV])
    return draws, draws[:, None, :2] + arcs @ rot.transpose(0, 2, 1)


def _ego_raw(speed, curvature, command, agents: np.ndarray) -> np.ndarray:
    raw = np.zeros(RAW_DIM)
    raw[0] = 1.0
    raw[1] = speed / _SPEED_NORM
    raw[2] = curvature / _CURV_NORM
    raw[3 + _COMMAND_ORDER.index(command)] = 1.0
    if len(agents):
        raw[6] = agents[:, _X].mean() / _RELX_NORM
        raw[7] = agents[:, _Y].mean() / _RELY_NORM
    raw[10] = len(agents) / MAX_AGENTS
    return raw


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


def _draw_agents(spec: DomainSpec, rngs: list[np.random.Generator],
                 ego_points: np.ndarray, n_agents: list[int]
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The collision-free agents of every scene, in slot order: their draws
    (A, 5) and waypoints (A, 6, 2), as ``_sample_agents`` gives them.

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
    draws, points = np.concatenate(draws), np.concatenate(points)
    return [(draws[ids], points[ids]) for ids in kept]


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
    commands, speeds, curvatures, n_agents = [], [], [], []
    for rng in rngs:
        command = _COMMAND_ORDER[int(rng.integers(3))]
        speeds.append(rng.uniform(*spec.speed_prior))
        mu, sd = spec.curvature_prior[command]
        curvatures.append(rng.normal(mu, sd))
        commands.append(command)
        n_agents.append(int(rng.integers(0, MAX_AGENTS + 1)))
    ego_points = arc_points(np.array(speeds), np.array(curvatures))
    agents = _draw_agents(spec, rngs, ego_points, n_agents)

    embed = embed_matrix(obs_dim)

    def observe(raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        clean = spec.obs_transform @ (embed @ raw) + spec.obs_bias
        return clean + rng.normal(0.0, spec.obs_noise_std, size=obs_dim)

    flip = np.array([1.0, -1.0])
    records = []
    for i, (rng, command, speed, curvature, ego, (draws, points)) in enumerate(
            zip(rngs, commands, speeds, curvatures, ego_points, agents)):
        if spec.mirror:
            command = _MIRROR_SWAP[command]
            curvature = -curvature
            ego = ego * flip
            draws = draws * _MIRROR_DRAWS
            points = points * flip
        ego_obs = observe(_ego_raw(speed, curvature, command, draws), rng)
        records.append(SceneRecord(
            scene_id=f"{spec.name}-{seed}-{i:06d}",
            domain_tag=spec.name,
            command=command,
            ego_obs=ego_obs,
            agent_obs=[observe(raw, rng) for raw in _agent_raw(draws)],
            ego_gt=ego,
            agent_gt=points,
            agent_footprints=[AGENT_FOOTPRINT] * len(draws),
        ))
    return records


def strip_labels(records: list[SceneRecord]) -> list[SceneRecord]:
    """Unlabeled copies of the records (target-domain adaptation input)."""
    return [replace(r, ego_gt=None, agent_gt=None) for r in records]
