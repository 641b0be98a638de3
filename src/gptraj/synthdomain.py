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
ahead in rounds: one candidate per open agent slot of every scene, all
checked by one SAT pass, then each scene's decisions in draw order. A round
never draws more candidates than its decisions consume, so every stream,
and with it every record, is the one a candidate-at-a-time loop gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.linalg import expm, qr

from .core import Command, SceneRecord, rng_for, save_dataset
from .evalmetrics import scene_collisions

RAW_DIM = 12
DEFAULT_OBS_DIM = 24
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


def build_obs_transform(desc: dict | str, obs_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Expand a compact config descriptor into an explicit (matrix, bias)."""
    if isinstance(desc, str):
        desc = {"kind": desc}
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
    if kind == "matrix":
        m = np.asarray(desc["matrix"], dtype=np.float64)
        b = np.asarray(desc.get("bias", bias), dtype=np.float64)
        if m.shape != (obs_dim, obs_dim) or b.shape != (obs_dim,):
            raise ValueError(f"explicit obs_transform shape mismatch for obs_dim={obs_dim}")
        return m, b
    raise ValueError(f"unknown obs_transform kind {kind!r}")


def arc_points(speed: float, curvature: float,
               times: np.ndarray | None = None) -> np.ndarray:
    """Constant-curvature arc from the origin heading +x, exact closed form."""
    if times is None:
        times = 0.5 * np.arange(1, 7)
    s = speed * times
    if abs(curvature) < 1e-9:
        return np.stack([s, np.zeros_like(s)], axis=1)
    th = curvature * s
    return np.stack([np.sin(th) / curvature, (1.0 - np.cos(th)) / curvature], axis=1)


@dataclass
class _AgentDraw:
    rel: np.ndarray
    heading: float
    speed: float
    curvature: float
    points: np.ndarray = field(default_factory=lambda: np.zeros((6, 2)))


def _sample_agent(rng: np.random.Generator, speed_prior) -> _AgentDraw:
    a = _AgentDraw(
        rel=np.array([rng.uniform(4.0, 28.0), rng.uniform(-8.0, 8.0)]),
        heading=rng.normal(0.0, 0.25),
        speed=rng.uniform(*speed_prior),
        curvature=rng.normal(0.0, 0.01),
    )
    c, s = np.cos(a.heading), np.sin(a.heading)
    rot = np.array([[c, -s], [s, c]])
    a.points = a.rel[None, :] + arc_points(a.speed, a.curvature) @ rot.T
    return a


def _ego_raw(speed, curvature, command, agents) -> np.ndarray:
    raw = np.zeros(RAW_DIM)
    raw[0] = 1.0
    raw[1] = speed / _SPEED_NORM
    raw[2] = curvature / _CURV_NORM
    raw[3 + _COMMAND_ORDER.index(command)] = 1.0
    if agents:
        rel = np.stack([a.rel for a in agents])
        raw[6] = rel[:, 0].mean() / _RELX_NORM
        raw[7] = rel[:, 1].mean() / _RELY_NORM
    raw[10] = len(agents) / MAX_AGENTS
    return raw


def _agent_raw(a: _AgentDraw) -> np.ndarray:
    raw = np.zeros(RAW_DIM)
    raw[1] = a.speed / _SPEED_NORM
    raw[2] = a.curvature / _CURV_NORM
    raw[6] = a.rel[0] / _RELX_NORM
    raw[7] = a.rel[1] / _RELY_NORM
    raw[8] = np.sin(a.heading)
    raw[9] = np.cos(a.heading)
    raw[10] = AGENT_FOOTPRINT[0] / 5.0
    return raw


def _draw_agents(spec: DomainSpec, rngs: list[np.random.Generator],
                 ego_points: list[np.ndarray], n_agents: list[int]
                 ) -> list[list[_AgentDraw]]:
    """The collision-free agents of every scene, in slot order.

    Each round draws one candidate per open slot of every pending scene from
    that scene's stream, checks them all with one SAT pass, then walks each
    scene's candidates in draw order: a clear one fills the slot, a colliding
    one counts an attempt, and a slot's ``AGENT_RESAMPLE_ATTEMPTS``-th
    collision drops it. Resolving a slot takes at least one candidate, so a
    scene consumes every candidate of its round and its stream stands where
    the one-at-a-time loop would leave it.
    """
    agents: list[list[_AgentDraw]] = [[] for _ in rngs]
    open_slots = list(n_agents)
    attempts = [0] * len(rngs)
    pending = [i for i in range(len(rngs)) if open_slots[i]]
    while pending:
        owner = [i for i in pending for _ in range(open_slots[i])]
        cands = [_sample_agent(rngs[i], spec.speed_prior) for i in owner]
        hits = scene_collisions(np.stack([ego_points[i] for i in owner]),
                                np.stack([c.points for c in cands]),
                                np.full((len(cands), 2), AGENT_FOOTPRINT),
                                np.arange(len(cands)))
        for i, cand, hit in zip(owner, cands, hits):
            if hit:
                attempts[i] += 1
                if attempts[i] < AGENT_RESAMPLE_ATTEMPTS:
                    continue
                # all attempts collided: drop the agent
            else:
                agents[i].append(cand)
            attempts[i] = 0
            open_slots[i] -= 1
        pending = [i for i in pending if open_slots[i]]
    return agents


def gen_dataset(spec: DomainSpec, n_scenes: int, seed: int, path=None,
                obs_dim: int = DEFAULT_OBS_DIM) -> list[SceneRecord]:
    """n scenes with per-scene derived RNG streams; optionally written to disk.

    A scene is an ego arc, 0-4 collision-free agents and distorted
    observations. The mirror flag reflects the whole scene about the x axis
    after the draws (so mirrored and unmirrored runs of the same seed differ
    exactly by the sign of every y) and swaps the turn-left/turn-right label
    to keep command semantics truthful.
    """
    rngs = [rng_for(seed, "scene", spec.name, i) for i in range(n_scenes)]
    egos = []  # per scene: command, speed, curvature, ego points, agent count
    for rng in rngs:
        command = _COMMAND_ORDER[int(rng.integers(3))]
        speed = rng.uniform(*spec.speed_prior)
        mu, sd = spec.curvature_prior[command]
        curvature = rng.normal(mu, sd)
        egos.append((command, speed, curvature, arc_points(speed, curvature),
                     int(rng.integers(0, MAX_AGENTS + 1))))
    agents = _draw_agents(spec, rngs, [e[3] for e in egos], [e[4] for e in egos])

    embed = embed_matrix(obs_dim)

    def observe(raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        clean = spec.obs_transform @ (embed @ raw) + spec.obs_bias
        return clean + rng.normal(0.0, spec.obs_noise_std, size=obs_dim)

    flip = np.array([1.0, -1.0])
    records = []
    for i, (rng, (command, speed, curvature, ego_points, _), scene_agents) in enumerate(
            zip(rngs, egos, agents)):
        if spec.mirror:
            command = _MIRROR_SWAP[command]
            curvature = -curvature
            ego_points = ego_points * flip
            for a in scene_agents:
                a.rel = a.rel * flip
                a.heading = -a.heading
                a.curvature = -a.curvature
                a.points = a.points * flip
        ego_obs = observe(_ego_raw(speed, curvature, command, scene_agents), rng)
        records.append(SceneRecord(
            scene_id=f"{spec.name}-{seed}-{i:06d}",
            domain_tag=spec.name,
            command=command,
            ego_obs=ego_obs,
            agent_obs=[observe(_agent_raw(a), rng) for a in scene_agents],
            ego_gt=ego_points,
            agent_gt=[a.points for a in scene_agents],
            agent_footprints=[AGENT_FOOTPRINT] * len(scene_agents),
        ))
    if path is not None:
        save_dataset(records, Path(path))
    return records


def strip_labels(records: list[SceneRecord]) -> list[SceneRecord]:
    """Unlabeled copies of the records (target-domain adaptation input)."""
    return [replace(r, ego_gt=None, agent_gt=None) for r in records]
