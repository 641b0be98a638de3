"""Run configuration: strict JSON schema, defaults, and resolution.

Unknown keys anywhere in the file are rejected. ``resolve`` expands compact
domain descriptors into full ``DomainSpec`` objects and materializes the
trainer/model configs; every run should log the fully resolved form via
``resolved_dict``. The ``model`` and ``train`` sections hold the fields of
``ModelSpec`` (codebook sizes included) and ``TrainConfig`` but its seed.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .core import COMMANDS
from .synthdomain import DomainSpec, build_obs_transform
from .trainer import ModelSpec, TrainConfig, _finite, _is_int


def _field_defaults(cls) -> dict:
    """A dataclass's field defaults; fields without a default are left out."""
    out = {}
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
        elif f.default is not dataclasses.MISSING:
            out[f.name] = f.default
    return out


def _source_priors() -> dict:
    """source_city's driving priors, new lists and dicts on every call. The
    low_light and motion_blur domains keep them: they shift only the
    observations."""
    return {
        "curvature_prior": {
            "turn_left": [0.05, 0.015],
            "go_straight": [0.0, 0.004],
            "turn_right": [-0.05, 0.015],
        },
        "speed_prior": [3.0, 13.0],
        "mirror": False,
    }


DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out_dir": "runs/default",
    "model": _field_defaults(ModelSpec),
    "train": _field_defaults(TrainConfig),
    "data": {
        "n_source": 2000,
        "n_source_val": 400,
        "n_target": 800,
        "n_target_val": 400,
        "source_domain": "source_city",
        "target_domain": "target_city",
    },
    "domains": {
        "source_city": {
            "obs_transform": {"kind": "identity"},
            "obs_noise_std": 0.05,
            **_source_priors(),
        },
        "target_city": {
            "obs_transform": {"kind": "rotation", "seed": 7, "angle": 0.5,
                              "bias_seed": 7, "bias_scale": 0.2},
            "obs_noise_std": 0.10,
            "curvature_prior": {
                "turn_left": [0.075, 0.02],
                "go_straight": [0.0, 0.006],
                "turn_right": [-0.075, 0.02],
            },
            "speed_prior": [2.0, 9.0],
            "mirror": True,
        },
        "low_light": {
            "obs_transform": {"kind": "low_rank", "seed": 11, "rank": 18},
            "obs_noise_std": 0.30,
            **_source_priors(),
        },
        "motion_blur": {
            "obs_transform": {"kind": "low_rank", "seed": 13, "rank": 20},
            "obs_noise_std": 0.20,
            **_source_priors(),
        },
    },
    "eval": {
        "rarity_bins": {
            "high_curvature": {"min_abs_curvature": 0.07},
            "low_speed": {"max_speed": 4.0},
        },
    },
}

_DOMAIN_KEYS = set(DEFAULT_CONFIG["domains"]["source_city"])
_TRANSFORM_KEYS = {"kind", "seed", "angle", "rank", "bias_seed", "bias_scale"}
_BIN_KEYS = {"min_speed", "max_speed", "min_abs_curvature", "max_abs_curvature"}


class ConfigError(Exception):
    pass


def _object(d, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must be an object, got {d!r}")
    return d


def _check_keys(d: dict, allowed, path: str) -> None:
    unknown = set(_object(d, path)) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys at {path}: {sorted(unknown)}")


def _number(value, path: str) -> float:
    if not _finite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if not _is_int(value):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _check_transform(desc: dict, obs_dim: int, path: str) -> None:
    """The numbers of an ``obs_transform`` descriptor: finite reals, integer
    seeds, and a rank in [1, obs_dim]."""
    _check_keys(desc, _TRANSFORM_KEYS, path)
    for key in ("angle", "bias_scale"):
        if key in desc:
            _number(desc[key], f"{path}.{key}")
    for key in ("seed", "bias_seed", "rank"):
        if key in desc:
            _integer(desc[key], f"{path}.{key}")
    if "rank" in desc and not 1 <= desc["rank"] <= obs_dim:
        raise ConfigError(f"{path}.rank must be in [1, {obs_dim}], got {desc['rank']!r}")


def _pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a pair [a, b] of numbers, got {value!r}")
    return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")


@dataclass
class Config:
    seed: int
    out_dir: Path
    model: ModelSpec
    train: TrainConfig
    data: dict
    domains: dict[str, DomainSpec]
    rarity_bins: dict[str, dict]
    raw: dict = field(repr=False, default_factory=dict)

    def domain(self, name: str) -> DomainSpec:
        if name not in self.domains:
            raise ConfigError(f"unknown domain {name!r}")
        return self.domains[name]

    def resolved_dict(self) -> dict:
        return copy.deepcopy(self.raw)


def _merge_defaults(user: dict) -> dict:
    merged = copy.deepcopy(DEFAULT_CONFIG)

    def rec(dst: dict, src: dict):
        for k, v in src.items():
            if isinstance(v, dict) and isinstance(dst.get(k), dict) and k != "domains":
                rec(dst[k], v)
            else:
                dst[k] = copy.deepcopy(v)
        return dst

    # domains given by the user replace wholesale (partial domain specs are
    # too easy to get wrong silently); everything else deep-merges
    out = rec(merged, {k: v for k, v in _object(user, "<root>").items() if k != "domains"})
    if "domains" in user:
        for name, spec in _object(user["domains"], "domains").items():
            out["domains"][name] = copy.deepcopy(spec)
    return out


def resolve(user: dict | None = None) -> Config:
    raw = _merge_defaults(user or {})
    _check_keys(raw, DEFAULT_CONFIG, "<root>")
    for section in ("model", "train", "data", "eval"):
        _check_keys(raw[section], DEFAULT_CONFIG[section], section)
    for name, spec in _object(raw["eval"]["rarity_bins"], "eval.rarity_bins").items():
        _check_keys(spec, _BIN_KEYS, f"eval.rarity_bins.{name}")
        for key, bound in spec.items():
            _number(bound, f"eval.rarity_bins.{name}.{key}")

    if not isinstance(raw["out_dir"], str):
        raise ConfigError(f"out_dir must be a path string, got {raw['out_dir']!r}")
    try:
        model = ModelSpec(**raw["model"])
    except ValueError as e:
        # each ModelSpec message opens with the field's name
        raise ConfigError(f"model.{e}") from e
    try:
        train = TrainConfig(seed=raw["seed"], **raw["train"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train: {e}") from e

    domains = {}
    for name, d in raw["domains"].items():
        path = f"domains.{name}"
        _check_keys(d, _DOMAIN_KEYS, path)
        missing = _DOMAIN_KEYS - set(d)
        if missing:
            raise ConfigError(f"{path} missing keys {sorted(missing)}")
        _check_transform(d["obs_transform"], model.obs_dim, f"{path}.obs_transform")
        try:
            matrix, bias = build_obs_transform(d["obs_transform"], model.obs_dim)
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{path}.obs_transform: {e!r}") from e
        _check_keys(d["curvature_prior"], {c.value for c in COMMANDS},
                    f"{path}.curvature_prior")
        if not isinstance(d["mirror"], bool):
            raise ConfigError(f"{path}.mirror must be true or false, got {d['mirror']!r}")
        curv = {}
        for cmd in COMMANDS:
            if cmd.value not in d["curvature_prior"]:
                raise ConfigError(f"{path}.curvature_prior missing {cmd.value}")
            curv[cmd] = _pair(d["curvature_prior"][cmd.value],
                              f"{path}.curvature_prior.{cmd.value}")
        try:
            domains[name] = DomainSpec(
                name=name,
                obs_transform=matrix,
                obs_bias=bias,
                obs_noise_std=_number(d["obs_noise_std"], f"{path}.obs_noise_std"),
                curvature_prior=curv,
                speed_prior=_pair(d["speed_prior"], f"{path}.speed_prior"),
                mirror=d["mirror"],
            )
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from e
    for key in ("n_source", "n_source_val", "n_target", "n_target_val"):
        n = raw["data"][key]
        if not _is_int(n) or n < 1:
            raise ConfigError(f"data.{key} must be a positive integer, got {n!r}")
    for key in ("source_domain", "target_domain"):
        name = raw["data"][key]
        if not isinstance(name, str) or name not in domains:
            raise ConfigError(f"data.{key}: unknown domain {name!r}")

    return Config(
        seed=raw["seed"],
        out_dir=Path(raw["out_dir"]),
        model=model,
        train=train,
        data=dict(raw["data"]),
        domains=domains,
        rarity_bins=copy.deepcopy(raw["eval"]["rarity_bins"]),
        raw=raw,
    )


def load(path) -> dict:
    """The user config in the JSON file at ``path``, unresolved."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            user = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return user
