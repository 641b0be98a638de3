"""Shared domain types, record validation, and dataset file IO.

Trajectories are 6 BEV waypoints covering 3 s at 2 Hz (t = 0.5 s ... 3.0 s)
in an ego-centric frame: x forward, y left, meters. A scene of one ego
vehicle and A agents is a ``SceneRecord`` of float64 arrays: ``ego_obs``
(D,), ``agent_obs`` (A, D), ``ego_gt`` (6, 2), ``agent_gt`` (A, 6, 2) and
``agent_footprints`` (A, 2) as (length, width) in meters. A record raises
on any other shape when built, so ``validate_record`` checks values only.
Ground truth is None for unlabeled data; a labeled scene without agents has
a (0, 6, 2) ``agent_gt``. ``scene_rows`` lays scenes out as the rows that
every stage, selection and eval pass works on: every ego row in record
order, then every agent row in record order. Datasets are line-delimited
JSON, one scene per line, with a mandatory ``"schema": 1`` version key.
"""

from __future__ import annotations

import enum
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_WAYPOINTS = 6
TRAJ_DIM = 2 * N_WAYPOINTS  # a flat trajectory: x, y of each waypoint
DEFAULT_OBS_DIM = 24  # observation length of generated scenes and of ModelSpec
COORD_BOUND = 200.0  # sanity bound on |x|, |y| in meters
SCHEMA_VERSION = 1

ARRAY_FIELDS = ("ego_obs", "agent_obs", "ego_gt", "agent_gt", "agent_footprints")
DATASET_FIELDS = {"schema", "scene_id", "domain_tag", "command", *ARRAY_FIELDS}


class Command(enum.Enum):
    """The three driving commands; serialized as lowercase strings."""

    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"
    GO_STRAIGHT = "go_straight"


COMMANDS = (Command.TURN_LEFT, Command.TURN_RIGHT, Command.GO_STRAIGHT)

_TRAJ_SHAPE = (N_WAYPOINTS, 2)

# the fault of a field, or of row i of a per-agent field, of another shape
_SHAPE_FAULTS = {
    "ego_gt": "ego_gt: waypoint count != %d: shape {shape}" % N_WAYPOINTS,
    "agent_obs": "agent_obs[{i}] length mismatch with ego_obs",
    "agent_gt": "agent_gt[{i}]: waypoint count != %d: shape {shape}" % N_WAYPOINTS,
    "agent_footprints": "agent_footprints[{i}] must be a (length, width) pair",
}


def _array(name: str, value, row_shape: tuple | None = None) -> np.ndarray:
    """``value`` as a float64 array. With ``row_shape`` it is a per-agent
    field, (A, *row_shape), and an empty list is (0, *row_shape); a row of
    another shape raises, a ragged list naming its first such row."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as e:
        for i, row in enumerate(() if row_shape is None else value):
            shape = np.asarray(row, dtype=object).shape  # ragged rows too
            if shape != row_shape:
                raise ValueError(_SHAPE_FAULTS[name].format(i=i, shape=shape)) from None
        raise ValueError(f"{name}: {e}") from None
    if row_shape is None:
        return arr
    if arr.ndim == 0:
        raise ValueError(f"{name} must be a list")
    if arr.shape == (0,):
        return arr.reshape(0, *row_shape)
    if arr.shape[1:] != row_shape:
        raise ValueError(_SHAPE_FAULTS[name].format(i=0, shape=arr.shape[1:]))
    return arr


@dataclass(frozen=True)
class SceneRecord:
    """One training/eval scene, its fields shaped as the module docstring
    states, else a ValueError names the fault; lists become arrays."""

    scene_id: str
    domain_tag: str
    command: Command
    ego_obs: np.ndarray
    agent_obs: np.ndarray
    ego_gt: np.ndarray | None
    agent_gt: np.ndarray | None
    agent_footprints: np.ndarray

    def __post_init__(self):
        ego = _array("ego_obs", self.ego_obs)
        if ego.ndim != 1:
            raise ValueError("ego_obs must be a vector")
        object.__setattr__(self, "ego_obs", ego)
        object.__setattr__(self, "agent_obs", _array("agent_obs", self.agent_obs, ego.shape))
        if self.ego_gt is not None:
            object.__setattr__(self, "ego_gt", _array("ego_gt", self.ego_gt))
            if self.ego_gt.shape != _TRAJ_SHAPE:
                raise ValueError(_SHAPE_FAULTS["ego_gt"].format(shape=self.ego_gt.shape))
        for name, row_shape in (("agent_gt", _TRAJ_SHAPE), ("agent_footprints", (2,))):
            value = getattr(self, name)
            if value is not None:
                arr = _array(name, value, row_shape)
                if len(arr) != self.n_agents:
                    raise ValueError(f"agent list length mismatch: {self.n_agents} agent_obs, "
                                     f"{len(arr)} {name}")
                object.__setattr__(self, name, arr)

    @property
    def n_agents(self) -> int:
        return len(self.agent_obs)

    @property
    def labeled(self) -> bool:
        return self.ego_gt is not None

    def to_json_dict(self) -> dict:
        d = {"schema": SCHEMA_VERSION, "scene_id": self.scene_id,
             "domain_tag": self.domain_tag, "command": self.command.value}
        for name in ARRAY_FIELDS:
            if getattr(self, name) is not None:
                d[name] = getattr(self, name).tolist()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SceneRecord":
        if not isinstance(d, dict):
            raise ValueError(f"a scene must be a JSON object, not {type(d).__name__}")
        unknown = set(d) - DATASET_FIELDS
        if unknown:
            raise ValueError(f"unknown dataset keys: {sorted(unknown)}")
        if d.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {d.get('schema')!r}")
        missing = DATASET_FIELDS - {"ego_gt", "agent_gt"} - set(d)
        if missing:
            raise ValueError(f"missing dataset keys: {sorted(missing)}")
        nulls = sorted(k for k, v in d.items() if v is None)
        if nulls:
            raise ValueError(f"null dataset values: {nulls}")
        for key in ("scene_id", "domain_tag"):
            if not isinstance(d[key], str):
                raise ValueError(f"{key} must be a string, got {d[key]!r}")
        return cls(
            scene_id=d["scene_id"], domain_tag=d["domain_tag"],
            command=Command(d["command"]), ego_obs=d["ego_obs"],
            agent_obs=d["agent_obs"], ego_gt=d.get("ego_gt"),
            agent_gt=d.get("agent_gt"), agent_footprints=d["agent_footprints"])


def _traj_violations(trajs: np.ndarray, name) -> list[str]:
    """Violations of stacked (n, 6, 2) trajectories, the i-th named
    ``name(i)``."""
    inside = (np.abs(trajs) <= COORD_BOUND).all(axis=(1, 2))  # False for NaN too
    return [f"{name(i)}: non-finite waypoint coordinate"
            if not np.isfinite(trajs[i]).all() else
            f"{name(i)}: waypoint coordinate exceeds {COORD_BOUND} m bound"
            for i in np.flatnonzero(~inside)]


def validate_record(rec: SceneRecord, obs_dim: int | None = None) -> list[str]:
    """All value violations for a record, its observation length against
    ``obs_dim`` among them; empty list means ok."""
    errors: list[str] = []
    ego, footprints = rec.ego_obs, rec.agent_footprints
    if obs_dim is not None and len(ego) != obs_dim:
        errors.append(f"ego_obs length {len(ego)} != {obs_dim}")
    if not np.all(np.isfinite(ego)):
        errors.append("non-finite ego_obs")
    errors.extend(f"non-finite agent_obs[{i}]"
                  for i in np.flatnonzero(~np.isfinite(rec.agent_obs).all(axis=1)))
    if rec.ego_gt is not None:
        errors.extend(_traj_violations(rec.ego_gt[None], lambda i: "ego_gt"))
    if rec.agent_gt is not None:
        errors.extend(_traj_violations(rec.agent_gt, lambda i: f"agent_gt[{i}]"))
    ok = np.isfinite(footprints).all(axis=1) & (footprints > 0).all(axis=1)
    errors.extend(f"agent_footprints[{i}] must be positive finite (length, width)"
                  for i in np.flatnonzero(~ok))
    return errors


@dataclass(frozen=True)
class SceneRows:
    """Scenes in row layout: every ego row in record order, then every
    agent row in record order. Scene i's ego is row i, and ``scene_of_row``
    holds the record index of every row.
    """

    commands: list[Command]  # (S,)
    scene_of_row: np.ndarray  # (S + A,)
    obs: np.ndarray  # (S + A, D)
    gt: np.ndarray | None  # (S + A, 6, 2), when labeled


def scene_rows(records: list[SceneRecord], labeled: bool) -> SceneRows:
    """The rows of non-empty ``records``; with ``labeled``, their ground
    truth too, which a record with agents must have for its agents."""
    counts = [r.n_agents for r in records]
    gt = None
    if labeled:
        for r, n in zip(records, counts):
            if n and r.agent_gt is None:
                raise ValueError(f"scene {r.scene_id}: {n} agent observations "
                                 f"but 0 agent trajectories")
        gt = np.concatenate([np.array([r.ego_gt for r in records])]
                            + [r.agent_gt for r in records if r.n_agents])
    return SceneRows(
        commands=[r.command for r in records],
        scene_of_row=np.concatenate([np.arange(len(records)),
                                     np.repeat(np.arange(len(records)), counts)]),
        obs=np.concatenate([np.array([r.ego_obs for r in records])]
                           + [r.agent_obs for r in records]),
        gt=gt)


def save_dataset(records, path) -> None:
    """Write ``records`` as JSONL, one scene per line. A non-finite value
    has no JSON form, so it raises ``<path>: scene <id>: non-finite value``
    and leaves no file at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for rec in records:
                try:
                    line = json.dumps(rec.to_json_dict(), sort_keys=True, allow_nan=False)
                except ValueError:
                    raise ValueError(f"{path}: scene {rec.scene_id}: non-finite value") from None
                f.write(line)
                f.write("\n")
    except ValueError:
        path.unlink(missing_ok=True)
        raise


def _invalid_records(records: list[SceneRecord]) -> np.ndarray:
    """(n,) True where ``validate_record``, given the first record's
    observation length from the second record on, reports a violation.

    One pass over the stacked fields instead of one call per record: a
    Python comparison of each record's observation length, then one array
    check per value group (observations finite, trajectories within
    ``COORD_BOUND``, footprints finite and positive) whose failing elements
    are mapped back to their records."""
    obs_dim = len(records[0].ego_obs) if records else 0
    bad = np.array([len(r.ego_obs) != obs_dim for r in records], dtype=bool)
    groups = (
        ([[r.ego_obs, r.agent_obs] for r in records], np.isfinite),
        ([[t for t in (r.ego_gt, r.agent_gt) if t is not None] for r in records],
         lambda v: np.abs(v) <= COORD_BOUND),  # False for NaN too
        ([[r.agent_footprints] for r in records], lambda v: np.isfinite(v) & (v > 0)),
    )
    for arrays, good in groups:
        ends = np.cumsum([sum(a.size for a in arrs) for arrs in arrays])
        # the leading empty array keeps a group without arrays valid
        flat = np.concatenate([np.empty(0)] + [a for arrs in arrays for a in arrs], axis=None)
        bad[np.searchsorted(ends, np.flatnonzero(~good(flat)), side="right")] = True
    return bad


def _raise_first_violation(path, records: list[SceneRecord], linenos: list[int]) -> None:
    """Raise ``<path>:<line>: <violation>`` for the first record that
    ``validate_record`` rejects, if there is one."""
    flagged = np.flatnonzero(_invalid_records(records))
    if flagged.size:
        k = int(flagged[0])
        errors = validate_record(records[k], records[0].ego_obs.shape[0] if k else None)
        raise ValueError(f"{path}:{linenos[k]}: {errors[0]}")


def load_dataset(path) -> list[SceneRecord]:
    """The file's records, each checked as ``validate_record`` checks it
    with the observation length of the first record.

    Lines are parsed and built into records one at a time, then the whole
    file is checked by one array pass, and ``validate_record`` runs only on
    the first record that pass flags. The first fault in line order is
    raised as ``<path>:<line>: <message>``, the line counted in the file,
    blank lines included: a record's first value violation, or a line that
    does not parse into a well-shaped record or repeats a scene_id,
    whichever comes first."""
    records, linenos, first_line = [], [], {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = SceneRecord.from_json_dict(json.loads(line))
                seen = first_line.setdefault(rec.scene_id, lineno)
                if seen != lineno:
                    raise ValueError(f"scene_id {rec.scene_id} repeats line {seen}")
            except ValueError as e:
                _raise_first_violation(path, records, linenos)  # an earlier line wins
                raise ValueError(f"{path}:{lineno}: {e}") from e
            records.append(rec)
            linenos.append(lineno)
    _raise_first_violation(path, records, linenos)
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
