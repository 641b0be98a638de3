"""Paired codebooks of learnable basis tokens and fixed anchor trajectories.

Groups are built by Lloyd-style clustering of ground-truth trajectories under
the mean-waypoint-distance metric, bucketed by role: ego groups are
partitioned evenly across the three driving commands, agent groups share one
bucket. Each group stores exactly ``group_size`` trajectories; basis tokens
map to them one-to-one and are the learnable half of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class CodebookGroup:
    group_id: int
    role: Role
    trajectories: np.ndarray  # (C, 12), fixed after build
    traj_anchor: np.ndarray  # (12,), mean of trajectories
    basis_tokens: np.ndarray | None = None  # (C, D), learnable
    duplicated: int = 0  # members cloned to reach C at build time

    @property
    def traj_centered(self) -> np.ndarray:
        return self.trajectories - self.traj_anchor[None, :]

    @property
    def token_anchor(self) -> np.ndarray:
        """Mean of the current basis tokens; recomputed on read so it always
        tracks optimizer updates."""
        if self.basis_tokens is None:
            raise ValueError(f"group {self.group_id}: basis tokens not initialized")
        return self.basis_tokens.mean(axis=0)


@dataclass
class Codebook:
    groups: list[CodebookGroup]
    n_ego: int
    n_agent: int
    group_size: int
    token_dim: int
    command_groups: dict[Command, list[int]] = field(default_factory=dict)

    @property
    def n_code(self) -> int:
        return self.n_ego + self.n_agent

    @property
    def agent_group_ids(self) -> list[int]:
        return [g.group_id for g in self.groups if g.role.kind == "agent"]

    def group(self, group_id: int) -> CodebookGroup:
        return self.groups[group_id]

    def traj_anchors(self) -> np.ndarray:
        """All trajectory anchors row-stacked in group order; shape (n_code, 12)."""
        return np.stack([g.traj_anchor for g in self.groups])

    def token_anchors(self) -> np.ndarray:
        """All token anchors row-stacked in group order; shape (n_code, D)."""
        return np.stack([g.token_anchor for g in self.groups])


def admissible_groups(cb: Codebook, role: Role) -> list[int]:
    """Group ids a token of this role may be classified into."""
    if role.kind == "ego":
        return list(cb.command_groups[role.command])
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


def _fill_group(flat: np.ndarray, centroid: np.ndarray, c: int) -> tuple[np.ndarray, int]:
    """The c trajectories nearest the centroid, duplicating nearest members
    when the cluster is short."""
    order = np.argsort(traj_dists(flat, centroid), kind="stable")
    chosen = list(order[:c])
    duplicated = 0
    while len(chosen) < c:
        chosen.append(chosen[duplicated % max(len(order), 1)])
        duplicated += 1
    return flat[np.asarray(chosen[:c])], duplicated


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
    form one bucket with n_agent_groups groups.
    """
    if n_ego_groups % len(COMMANDS) != 0:
        raise BuildError(f"n_ego_groups {n_ego_groups} not divisible by {len(COMMANDS)}")
    per_cmd = n_ego_groups // len(COMMANDS)

    buckets: dict[tuple[str, Command | None], list[np.ndarray]] = {}
    for traj, cmd, is_ego in trajs:
        key = ("ego", cmd) if is_ego else ("agent", None)
        buckets.setdefault(key, []).append(traj.flat)

    groups: list[CodebookGroup] = []
    command_groups: dict[Command, list[int]] = {c: [] for c in COMMANDS}
    gid = 0

    def build_bucket(key, k, role):
        nonlocal gid
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
        for j in order:
            members, dup = _fill_group(flat, centroids[j], group_size)
            anchor = members.mean(axis=0)
            groups.append(
                CodebookGroup(
                    group_id=gid,
                    role=role,
                    trajectories=members,
                    traj_anchor=anchor,
                    duplicated=dup,
                )
            )
            if role.kind == "ego":
                command_groups[role.command].append(gid)
            gid += 1

    for cmd in COMMANDS:
        build_bucket(("ego", cmd), per_cmd, Role.ego(cmd))
    build_bucket(("agent", None), n_agent_groups, Role.agent())

    return Codebook(
        groups=groups,
        n_ego=n_ego_groups,
        n_agent=n_agent_groups,
        group_size=group_size,
        token_dim=token_dim,
        command_groups=command_groups,
    )


def init_basis_tokens(cb: Codebook, rng_seed: int) -> Codebook:
    """Sample basis tokens i.i.d. from N(0, 1/D) per entry, in place."""
    rng = rng_for(rng_seed, "basis-init")
    std = 1.0 / np.sqrt(cb.token_dim)
    for g in cb.groups:
        g.basis_tokens = rng.normal(0.0, std, size=(cb.group_size, cb.token_dim))
    return cb


def nearest_group(cb: Codebook, flat: np.ndarray, admissible: np.ndarray) -> np.ndarray:
    """Ground-truth classes of the rows of ``flat`` (M, 12): each row's
    admissible group, from the (M, n_code) mask, with the nearest traj_anchor.
    Ties go to the lowest group id."""
    dists = np.stack([traj_dists(flat, a) for a in cb.traj_anchors()], axis=1)
    return np.argmin(np.where(admissible, dists, np.inf), axis=1)
