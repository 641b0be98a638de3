"""Shared domain types, record validation, and dataset file IO.

Trajectories are 6 BEV waypoints covering 3 s at 2 Hz (t = 0.5 s ... 3.0 s)
in an ego-centric frame: x forward, y left, meters. Datasets are
line-delimited JSON, one scene per line, with a mandatory ``"schema": 1``
version key.
"""

from __future__ import annotations

import enum
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_WAYPOINTS = 6
WAYPOINT_DT = 0.5  # seconds between waypoints
COORD_BOUND = 200.0  # sanity bound on |x|, |y| in meters
SCHEMA_VERSION = 1

DATASET_FIELDS = {
    "schema", "scene_id", "domain_tag", "command", "ego_obs", "agent_obs",
    "ego_gt", "agent_gt", "agent_footprints",
}


class Command(enum.Enum):
    """The three driving commands; serialized as lowercase strings."""

    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"
    GO_STRAIGHT = "go_straight"

    @classmethod
    def from_str(cls, s: str) -> "Command":
        for c in cls:
            if c.value == s:
                return c
        raise ValueError(f"unknown command {s!r}")


COMMANDS = (Command.TURN_LEFT, Command.TURN_RIGHT, Command.GO_STRAIGHT)


@dataclass(frozen=True)
class Trajectory:
    """Six (x, y) waypoints in meters, ego-centric BEV frame."""

    points: np.ndarray  # shape (6, 2), float64

    def __post_init__(self):
        object.__setattr__(
            self, "points", np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        )

    @property
    def flat(self) -> np.ndarray:
        """Row-major 12-vector (x1, y1, ..., x6, y6)."""
        return self.points.reshape(-1)

    @classmethod
    def from_flat(cls, v) -> "Trajectory":
        return cls(np.asarray(v, dtype=np.float64).reshape(N_WAYPOINTS, 2))

    def violations(self) -> list[str]:
        out = []
        if self.points.shape != (N_WAYPOINTS, 2):
            out.append(f"waypoint count != {N_WAYPOINTS}: shape {self.points.shape}")
            return out
        if not np.all(np.isfinite(self.points)):
            out.append("non-finite waypoint coordinate")
        elif np.any(np.abs(self.points) > COORD_BOUND):
            out.append(f"waypoint coordinate exceeds {COORD_BOUND} m bound")
        return out


@dataclass(frozen=True)
class SceneRecord:
    """One training/eval sample. Ground truth is absent for unlabeled data."""

    scene_id: str
    domain_tag: str
    command: Command
    ego_obs: np.ndarray
    agent_obs: list[np.ndarray] = field(default_factory=list)
    ego_gt: Trajectory | None = None
    agent_gt: list[Trajectory] | None = None
    agent_footprints: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "ego_obs", np.asarray(self.ego_obs, dtype=np.float64))
        object.__setattr__(
            self, "agent_obs", [np.asarray(a, dtype=np.float64) for a in self.agent_obs]
        )

    @property
    def n_agents(self) -> int:
        return len(self.agent_obs)

    @property
    def labeled(self) -> bool:
        return self.ego_gt is not None

    def to_json_dict(self) -> dict:
        d: dict = {
            "schema": SCHEMA_VERSION,
            "scene_id": self.scene_id,
            "domain_tag": self.domain_tag,
            "command": self.command.value,
            "ego_obs": self.ego_obs.tolist(),
            "agent_obs": [a.tolist() for a in self.agent_obs],
            "agent_footprints": [[float(l), float(w)] for l, w in self.agent_footprints],
        }
        if self.ego_gt is not None:
            d["ego_gt"] = self.ego_gt.points.tolist()
        if self.agent_gt is not None:
            d["agent_gt"] = [t.points.tolist() for t in self.agent_gt]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SceneRecord":
        unknown = set(d) - DATASET_FIELDS
        if unknown:
            raise ValueError(f"unknown dataset keys: {sorted(unknown)}")
        if d.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {d.get('schema')!r}")
        return cls(
            scene_id=d["scene_id"],
            domain_tag=d["domain_tag"],
            command=Command.from_str(d["command"]),
            ego_obs=np.asarray(d["ego_obs"], dtype=np.float64),
            agent_obs=[np.asarray(a, dtype=np.float64) for a in d["agent_obs"]],
            ego_gt=Trajectory(np.asarray(d["ego_gt"])) if "ego_gt" in d else None,
            agent_gt=[Trajectory(np.asarray(t)) for t in d["agent_gt"]]
            if "agent_gt" in d
            else None,
            agent_footprints=[(float(l), float(w)) for l, w in d["agent_footprints"]],
        )


def validate_record(rec: SceneRecord, obs_dim: int | None = None) -> list[str]:
    """All invariant violations for a record; empty list means ok."""
    errors: list[str] = []
    if rec.ego_obs.ndim != 1:
        errors.append("ego_obs must be a vector")
    if obs_dim is not None and rec.ego_obs.shape[0] != obs_dim:
        errors.append(f"ego_obs length {rec.ego_obs.shape[0]} != {obs_dim}")
    if not np.all(np.isfinite(rec.ego_obs)):
        errors.append("non-finite ego_obs")
    for i, a in enumerate(rec.agent_obs):
        if a.shape != rec.ego_obs.shape:
            errors.append(f"agent_obs[{i}] length mismatch with ego_obs")
        elif not np.all(np.isfinite(a)):
            errors.append(f"non-finite agent_obs[{i}]")
    if rec.ego_gt is not None:
        errors.extend(f"ego_gt: {v}" for v in rec.ego_gt.violations())
    if rec.agent_gt is not None:
        if len(rec.agent_gt) != len(rec.agent_obs):
            errors.append(
                f"agent list length mismatch: {len(rec.agent_obs)} agent_obs, "
                f"{len(rec.agent_gt)} agent_gt"
            )
        for i, t in enumerate(rec.agent_gt):
            errors.extend(f"agent_gt[{i}]: {v}" for v in t.violations())
    if len(rec.agent_footprints) != len(rec.agent_obs):
        errors.append(
            f"agent list length mismatch: {len(rec.agent_obs)} agent_obs, "
            f"{len(rec.agent_footprints)} agent_footprints"
        )
    for i, (l, w) in enumerate(rec.agent_footprints):
        if not (l > 0 and w > 0 and np.isfinite(l) and np.isfinite(w)):
            errors.append(f"agent_footprints[{i}] must be positive finite (length, width)")
    return errors


def save_dataset(records, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            f.write(json.dumps(rec.to_json_dict(), sort_keys=True))
            f.write("\n")


def load_dataset(path) -> list[SceneRecord]:
    """The file's records, each checked by ``validate_record`` with the
    observation length of the first record; the first violation found is
    raised as ``<path>:<line>: <violation>``."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = SceneRecord.from_json_dict(json.loads(line))
            except (ValueError, KeyError) as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
            obs_dim = records[0].ego_obs.shape[0] if records else None
            errors = validate_record(rec, obs_dim)
            if errors:
                raise ValueError(f"{path}:{lineno}: {errors[0]}")
            records.append(rec)
    return records


def rng_for(seed: int, *keys) -> np.random.Generator:
    """Purpose-keyed RNG stream derived from the global seed.

    String keys are hashed with crc32 so streams are stable across runs and
    platforms (unlike Python's salted ``hash``).
    """
    ints = [int(seed) & 0xFFFFFFFF]
    for k in keys:
        if isinstance(k, str):
            ints.append(zlib.crc32(k.encode("utf-8")))
        else:
            ints.append(int(k) & 0xFFFFFFFF)
    return np.random.default_rng(ints)
