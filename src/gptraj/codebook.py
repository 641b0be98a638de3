"""Paired codebooks of learnable basis tokens and fixed anchor trajectories.

Groups are built by Lloyd-style clustering of ground-truth trajectories under
the mean-waypoint-distance metric, bucketed by role: ego groups are
partitioned evenly across the three driving commands, agent groups share one
bucket. Each group holds exactly ``group_size`` trajectories; basis tokens
map to them one-to-one and are the learnable half of the pair.

The codebook is two stacked arrays, trajectories (n_code, C, 12) and basis
tokens (n_code, C, D), in a fixed group layout: the ``n_ego`` ego groups
first, ``n_ego / 3`` per command in ``COMMANDS`` order, then the agent
groups. A group's role follows from its index, so it is not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import COMMANDS, Command, Trajectory, rng_for

LLOYD_MAX_ITERS = 100
LLOYD_TOL = 1e-6


class BuildError(Exception):
    """Raised when a bucket has too few trajectories to populate its groups."""


@dataclass(frozen=True)
class Role:
    """Ego-with-command or agent; determines which groups are admissible."""

    kind: str  # "ego" | "agent"
    command: Command | None = None

    @classmethod
    def ego(cls, command: Command) -> "Role":
        return cls("ego", command)

    @classmethod
    def agent(cls) -> "Role":
        return cls("agent")


@dataclass
class Codebook:
    """Group g's C trajectories are ``trajectories[g]`` and its C basis
    tokens ``basis[g]``, paired one-to-one, in the group layout above."""

    trajectories: np.ndarray  # (n_code, C, 12), fixed after build
    n_ego: int
    token_dim: int
    basis: np.ndarray | None = None  # (n_code, C, D), learnable

    @property
    def n_code(self) -> int:
        return self.trajectories.shape[0]

    @property
    def n_agent(self) -> int:
        return self.n_code - self.n_ego

    @property
    def group_size(self) -> int:
        return self.trajectories.shape[1]

    @property
    def command_groups(self) -> dict[Command, list[int]]:
        per_cmd = self.n_ego // len(COMMANDS)
        return {c: list(range(i * per_cmd, (i + 1) * per_cmd))
                for i, c in enumerate(COMMANDS)}

    @property
    def agent_group_ids(self) -> list[int]:
        return list(range(self.n_ego, self.n_code))

    def role(self, group: int) -> Role:
        if group >= self.n_ego:
            return Role.agent()
        return Role.ego(COMMANDS[group // (self.n_ego // len(COMMANDS))])

    def traj_anchors(self) -> np.ndarray:
        """Mean trajectory of each group; shape (n_code, 12)."""
        return self.trajectories.mean(axis=1)

    def token_anchors(self) -> np.ndarray:
        """Mean basis token of each group; shape (n_code, D). Recomputed on
        read so it tracks optimizer updates."""
        if self.basis is None:
            raise ValueError("basis tokens not initialized")
        return self.basis.mean(axis=1)


def admissible_groups(cb: Codebook, role: Role) -> list[int]:
    """Group ids a token of this role may be classified into."""
    if role.kind == "ego":
        return cb.command_groups[role.command]
    return cb.agent_group_ids


def admissible_mask(cb: Codebook, role: Role) -> np.ndarray:
    """Boolean (n_code,) mask of ``admissible_groups``."""
    mask = np.zeros(cb.n_code, dtype=bool)
    mask[admissible_groups(cb, role)] = True
    return mask


def ego_admissible(cb: Codebook, commands) -> np.ndarray:
    """(N, n_code) admissible masks of ego rows with these commands."""
    masks = {c: admissible_mask(cb, Role.ego(c)) for c in set(commands)}
    return np.array([masks[c] for c in commands], dtype=bool).reshape(-1, cb.n_code)


def traj_dists(flat: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    # mean-over-waypoints Euclidean distance, vectorized over rows of flat
    d = flat.reshape(len(flat), -1, 2) - centroid.reshape(-1, 2)[None]
    return np.linalg.norm(d, axis=2).mean(axis=1)


def _lloyd(flat: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster rows of ``flat`` into k centroids.

    Farthest-point initialization from a seeded first pick, then Lloyd
    iterations: assign by trajectory distance, update centroids as means.
    """
    n = len(flat)
    first = int(rng.integers(n))
    centroids = [flat[first]]
    dists = traj_dists(flat, flat[first])
    for _ in range(1, k):
        nxt = int(np.argmax(dists))
        centroids.append(flat[nxt])
        dists = np.minimum(dists, traj_dists(flat, flat[nxt]))
    centroids = np.stack(centroids)

    for _ in range(LLOYD_MAX_ITERS):
        all_d = np.stack([traj_dists(flat, c) for c in centroids], axis=1)
        assign = np.argmin(all_d, axis=1)
        new = centroids.copy()
        for j in range(k):
            members = flat[assign == j]
            if len(members):
                new[j] = members.mean(axis=0)
        motion = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        centroids = new
        if motion < LLOYD_TOL:
            break
    return centroids


def sample_and_cluster(
    trajs: list[tuple[Trajectory, Command, bool]],
    n_ego_groups: int,
    n_agent_groups: int,
    group_size: int,
    token_dim: int,
    seed: int,
) -> Codebook:
    """Cluster trajectories into a codebook skeleton (basis tokens unset).

    ``trajs`` entries are (trajectory, command, is_ego). Ego trajectories are
    bucketed per command with n_ego_groups/3 groups each; agent trajectories
    form one bucket with n_agent_groups groups. A group's trajectories are
    the ``group_size`` rows of its bucket nearest its centroid.
    """
    if n_ego_groups % len(COMMANDS) != 0:
        raise BuildError(f"n_ego_groups {n_ego_groups} not divisible by {len(COMMANDS)}")
    per_cmd = n_ego_groups // len(COMMANDS)

    buckets: dict[tuple[str, Command | None], list[np.ndarray]] = {}
    for traj, cmd, is_ego in trajs:
        key = ("ego", cmd) if is_ego else ("agent", None)
        buckets.setdefault(key, []).append(traj.flat)

    def build_bucket(key, k) -> list[np.ndarray]:
        rows = buckets.get(key, [])
        need = k * group_size
        if len(rows) < need:
            raise BuildError(
                f"bucket {key[0]}/{key[1].value if key[1] else '-'}: "
                f"{len(rows)} trajectories < required {need} ({k} groups x {group_size})"
            )
        flat = np.stack(rows)
        centroids = _lloyd(flat, k, rng_for(seed, "cluster", key[0],
                                            key[1].value if key[1] else "all"))
        # stable centroid order: by forward progress of the anchor endpoint
        order = np.argsort(centroids[:, -2], kind="stable")
        return [flat[np.argsort(traj_dists(flat, c), kind="stable")[:group_size]]
                for c in centroids[order]]

    members = [m for cmd in COMMANDS for m in build_bucket(("ego", cmd), per_cmd)]
    members += build_bucket(("agent", None), n_agent_groups)
    return Codebook(trajectories=np.stack(members), n_ego=n_ego_groups,
                    token_dim=token_dim)


def init_basis_tokens(cb: Codebook, rng_seed: int) -> Codebook:
    """Sample basis tokens i.i.d. from N(0, 1/D) per entry, in place."""
    rng = rng_for(rng_seed, "basis-init")
    cb.basis = rng.normal(0.0, 1.0 / np.sqrt(cb.token_dim),
                          size=(cb.n_code, cb.group_size, cb.token_dim))
    return cb


def nearest_group(cb: Codebook, flat: np.ndarray, admissible: np.ndarray) -> np.ndarray:
    """Ground-truth classes of the rows of ``flat`` (M, 12): each row's
    admissible group, from the (M, n_code) mask, with the nearest traj_anchor.
    Ties go to the lowest group id."""
    dists = np.stack([traj_dists(flat, a) for a in cb.traj_anchors()], axis=1)
    return np.argmin(np.where(admissible, dists, np.inf), axis=1)
