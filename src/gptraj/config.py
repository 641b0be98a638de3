"""Run configuration: strict JSON schema, defaults, and resolution.

Unknown keys anywhere in the file are rejected. ``resolve`` expands compact
domain descriptors into full ``DomainSpec`` objects and materializes the
trainer/model configs; every run should log the fully resolved form via
``resolved_dict``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .core import COMMANDS, Command
from .losses import TERM_NAMES
from .synthdomain import DomainSpec, build_obs_transform
from .trainer import ModelSpec, TrainConfig

_BASE_TERMS = ("base_plan", "base_motion", "base_class_ce_ego", "base_class_ce_agent")
_CODEBOOK_KEYS = ("n_ego", "n_agent", "group_size")


def _field_defaults(cls) -> dict:
    """A dataclass's field defaults in JSON form (tuples become lists); fields
    without a default are left out."""
    out = {}
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
        elif f.default is not dataclasses.MISSING:
            out[f.name] = list(f.default) if isinstance(f.default, tuple) else f.default
    return out


_SPEC_DEFAULTS = _field_defaults(ModelSpec)

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out_dir": "runs/default",
    "model": {k: v for k, v in _SPEC_DEFAULTS.items() if k not in _CODEBOOK_KEYS},
    "codebook": {k: _SPEC_DEFAULTS[k] for k in _CODEBOOK_KEYS},
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
            "curvature_prior": {
                "turn_left": [0.05, 0.015],
                "go_straight": [0.0, 0.004],
                "turn_right": [-0.05, 0.015],
            },
            "speed_prior": [3.0, 13.0],
            "mirror": False,
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
            "curvature_prior": {
                "turn_left": [0.05, 0.015],
                "go_straight": [0.0, 0.004],
                "turn_right": [-0.05, 0.015],
            },
            "speed_prior": [3.0, 13.0],
            "mirror": False,
        },
        "motion_blur": {
            "obs_transform": {"kind": "low_rank", "seed": 13, "rank": 20},
            "obs_noise_std": 0.20,
            "curvature_prior": {
                "turn_left": [0.05, 0.015],
                "go_straight": [0.0, 0.004],
                "turn_right": [-0.05, 0.015],
            },
            "speed_prior": [3.0, 13.0],
            "mirror": False,
        },
    },
    "eval": {
        "rarity_bins": {
            "high_curvature": {"min_abs_curvature": 0.07},
            "low_speed": {"max_speed": 4.0},
        },
    },
}

_DOMAIN_KEYS = {"obs_transform", "obs_noise_std", "curvature_prior",
                "speed_prior", "mirror"}
_TRANSFORM_KEYS = {"kind", "seed", "angle", "rank", "matrix", "bias",
                   "bias_seed", "bias_scale"}
_MODEL_INTS = tuple(k for k, v in DEFAULT_CONFIG["model"].items() if type(v) is int)
_BIN_KEYS = {"min_speed", "max_speed", "min_abs_curvature", "max_abs_curvature"}


class ConfigError(Exception):
    pass


def _check_keys(d: dict, allowed, path: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must be an object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys at {path}: {sorted(unknown)}")


def _check_int(value, path: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return float(value)


def _pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a pair [a, b] of numbers, got {value!r}")
    return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")


@dataclass
class Config:
    seed: int
    out_dir: Path
    model: ModelSpec
    n_ego: int
    n_agent: int
    group_size: int
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
    out = rec(merged, {k: v for k, v in user.items() if k != "domains"})
    if "domains" in user:
        for name, spec in user["domains"].items():
            out["domains"][name] = copy.deepcopy(spec)
    return out


def resolve(user: dict | None = None, seed_override: int | None = None) -> Config:
    raw = _merge_defaults(user or {})
    _check_keys(raw, {"seed", "out_dir", "model", "codebook", "train", "data",
                      "domains", "eval"}, "<root>")
    for section in ("model", "codebook", "train"):
        _check_keys(raw[section], DEFAULT_CONFIG[section], section)
    _check_keys(raw["data"], {"n_source", "n_source_val", "n_target",
                              "n_target_val", "source_domain", "target_domain"},
                "data")
    _check_keys(raw["eval"], {"rarity_bins"}, "eval")
    for name, spec in raw["eval"]["rarity_bins"].items():
        _check_keys(spec, _BIN_KEYS, f"eval.rarity_bins.{name}")

    known_terms = set(TERM_NAMES) | set(_BASE_TERMS)
    bad = set(raw["train"]["loss_weights"]) - known_terms
    if bad:
        raise ConfigError(f"unknown loss weight names: {sorted(bad)}")

    if seed_override is not None:
        raw["seed"] = int(seed_override)

    for section, keys in (("model", _MODEL_INTS), ("codebook", _CODEBOOK_KEYS)):
        for key in keys:
            _check_int(raw[section][key], f"{section}.{key}")
    _number(raw["model"]["token_scale"], "model.token_scale")

    model = ModelSpec(
        obs_dim=raw["model"]["obs_dim"],
        token_dim=raw["model"]["token_dim"],
        n_ego=raw["codebook"]["n_ego"],
        n_agent=raw["codebook"]["n_agent"],
        group_size=raw["codebook"]["group_size"],
        encoder_hidden=raw["model"]["encoder_hidden"],
        planner_hidden=raw["model"]["planner_hidden"],
        classifier_hidden=raw["model"]["classifier_hidden"],
        token_scale=raw["model"]["token_scale"],
    )
    tr = dict(raw["train"])
    tr["sigma_clamp"] = _pair(tr["sigma_clamp"], "train.sigma_clamp")
    try:
        train = TrainConfig(seed=raw["seed"], **tr)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train: {e}") from e

    domains = {}
    for name, d in raw["domains"].items():
        path = f"domains.{name}"
        _check_keys(d, _DOMAIN_KEYS, path)
        missing = _DOMAIN_KEYS - set(d)
        if missing:
            raise ConfigError(f"{path} missing keys {sorted(missing)}")
        tdesc = d["obs_transform"]
        if isinstance(tdesc, dict):
            _check_keys(tdesc, _TRANSFORM_KEYS, f"{path}.obs_transform")
        try:
            matrix, bias = build_obs_transform(tdesc, model.obs_dim)
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{path}.obs_transform: {e!r}") from e
        _check_keys(d["curvature_prior"], {c.value for c in COMMANDS},
                    f"{path}.curvature_prior")
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
                mirror=bool(d["mirror"]),
            )
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from e

    return Config(
        seed=raw["seed"],
        out_dir=Path(raw["out_dir"]),
        model=model,
        n_ego=raw["codebook"]["n_ego"],
        n_agent=raw["codebook"]["n_agent"],
        group_size=raw["codebook"]["group_size"],
        train=train,
        data=dict(raw["data"]),
        domains=domains,
        rarity_bins=copy.deepcopy(raw["eval"]["rarity_bins"]),
        raw=raw,
    )


def load(path, seed_override: int | None = None) -> Config:
    with open(path, "r", encoding="utf-8") as f:
        try:
            user = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return resolve(user, seed_override=seed_override)
