"""Config resolution: defaults, and one-line ConfigErrors naming the key path."""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from gptraj import config
from gptraj.config import DEFAULT_CONFIG, ConfigError
from gptraj.trainer import ModelSpec


def domain(**changes) -> dict:
    d = copy.deepcopy(DEFAULT_CONFIG["domains"]["source_city"])
    d.update(changes)
    return d


def test_defaults_resolve():
    cfg = config.resolve({})
    assert cfg.model.token_dim == DEFAULT_CONFIG["model"]["token_dim"]
    # the codebook sizes among them
    assert list(DEFAULT_CONFIG["model"]) == [f.name for f in dataclasses.fields(ModelSpec)]
    assert cfg.domain("target_city").speed_prior == (2.0, 9.0)
    assert config.resolve({"train": {"epochs_stage3": 0}}).train.epochs_stage3 == 0


def test_default_domains_keep_source_priors_in_unshared_values():
    domains = DEFAULT_CONFIG["domains"]
    priors = ("curvature_prior", "speed_prior", "mirror")
    for name in ("low_light", "motion_blur"):
        assert ({k: domains[name][k] for k in priors}
                == {k: domains["source_city"][k] for k in priors})

    def containers(value):
        """The ids of every dict and list within ``value``, itself included."""
        if isinstance(value, (dict, list)):
            yield id(value)
            for v in value.values() if isinstance(value, dict) else value:
                yield from containers(v)

    ids = [set(containers(d)) for d in domains.values()]
    assert sum(map(len, ids)) == len(set().union(*ids))


@pytest.mark.parametrize("user,path", [
    ({"domains": {"city": {"obs_noise_std": 0.1}}}, "domains.city missing keys"),
    ({"domains": {"city": domain(curvature_prior={
        "turn_left": [0.05, 0.01, 0.3], "go_straight": [0.0, 0.004],
        "turn_right": [-0.05, 0.015]})}}, "domains.city.curvature_prior.turn_left"),
    ({"domains": {"city": domain(speed_prior=5.0)}}, "domains.city.speed_prior"),
    ({"domains": {"city": domain(speed_prior=[3.0, "fast"])}},
     r"domains.city.speed_prior\[1\]"),
    ({"domains": {"city": domain(speed_prior=[0.5, 9.0])}}, "domains.city: speed range"),
    ({"domains": {"city": domain(obs_transform={"kind": "warp"})}},
     "domains.city.obs_transform"),
    ({"domains": {"city": domain(obs_noise_std="low")}}, "domains.city.obs_noise_std"),
    ({"domains": {"city": domain(curvature_prior={"turn_left": [0.05, 0.01]})}},
     "domains.city.curvature_prior missing"),
    ({"model": {"token_dim": "x"}}, "model.token_dim"),
    ({"model": {"token_dim": 32.5}}, "model.token_dim"),
    ({"model": {"obs_dim": "24"}}, "model.obs_dim"),
    ({"model": {"group_size": True}}, "model.group_size"),
    ({"model": 3}, "model must be an object"),
    ({"train": {"batch_size": 0}}, "train: batch_size"),
    ({"train": {"epochs_stage1": "x"}}, "train: "),
    ({"train": {"gp_weight": [1.0]}}, "train: gp_weight must be a finite number"),
    ({"model": {"n_ego": 13}}, "model.n_ego 13 is not a multiple of 3"),
    ({"model": {"n_ego": 9}}, "model.n_ego 9 gives 3 ego groups per command"),
    ({"model": {"n_agent": 6}}, "model.n_agent 6 is below the 7 agent groups"),
    ({"train": {"epochs_stage2": -1}}, "train: epochs_stage2 must be non-negative"),
    ({"train": {"adapt_epochs": -3}}, "train: adapt_epochs must be non-negative"),
    ({"train": {"batch_size": -2}}, "train: batch_size must be positive"),
    # bool("false") is True: the string must not resolve to a mirrored domain
    ({"domains": {"city": domain(mirror="false")}}, "domains.city.mirror must be true or false"),
    ({"data": {"source_domain": "nowhere"}}, "data.source_domain: unknown domain 'nowhere'"),
    ({"data": {"target_domain": ["target_city"]}}, "data.target_domain: unknown domain"),
    ({"out_dir": 3}, "out_dir must be a path string, got 3"),
    ({"seed": "abc"}, "train: seed must be an integer, got 'abc'"),
    ({"seed": 1.5}, "train: seed must be an integer, got 1.5"),
    ({"model": {"encoder_hidden": 0}}, "model.encoder_hidden must be positive"),
    ({"model": {"group_size": 0}}, "model.group_size must be positive"),
    ({"model": {"planner_hidden": -1}}, "model.planner_hidden must be positive"),
    ({"data": {"n_source": 2.5}}, "data.n_source must be a positive integer, got 2.5"),
    ({"data": {"n_source_val": -3}}, "data.n_source_val must be a positive integer, got -3"),
    ({"data": {"n_target": 0}}, "data.n_target must be a positive integer, got 0"),
    ({"data": {"n_target": True}}, "data.n_target must be a positive integer, got True"),
    ({"data": {"n_target_val": "10"}},
     "data.n_target_val must be a positive integer, got '10'"),
    # Python's json reads NaN and Infinity, so a config file can carry them
    ({"domains": {"city": domain(obs_noise_std=float("nan"))}},
     "domains.city.obs_noise_std must be a finite number, got nan"),
    ({"domains": {"city": domain(curvature_prior={
        "turn_left": [float("inf"), 0.015], "go_straight": [0.0, 0.004],
        "turn_right": [-0.05, 0.015]})}},
     r"domains.city.curvature_prior.turn_left\[0\] must be a finite number, got inf"),
    ({"train": {"lr_stage12": float("inf")}},
     "train: lr_stage12 must be a finite number, got inf"),
    ({"eval": {"rarity_bins": {"slow": {"max_speed": "fast"}}}},
     "eval.rarity_bins.slow.max_speed must be a finite number, got 'fast'"),
    ({"eval": {"rarity_bins": {"slow": {"min_abs_curvature": float("nan")}}}},
     "eval.rarity_bins.slow.min_abs_curvature must be a finite number, got nan"),
    ({"domains": {"city": domain(obs_transform="identity")}},
     "domains.city.obs_transform must be an object, got 'identity'"),
    ({"domains": {"city": domain(obs_transform={"kind": "matrix"})}},
     "domains.city.obs_transform: .*unknown obs_transform kind 'matrix'"),
    # the numbers of an obs_transform descriptor, each at its own key
    ({"domains": {"city": domain(obs_transform={"kind": "rotation", "seed": 7,
                                                "angle": float("nan")})}},
     "domains.city.obs_transform.angle must be a finite number, got nan"),
    ({"domains": {"city": domain(obs_transform={"kind": "identity", "bias_seed": 7,
                                                "bias_scale": float("inf")})}},
     "domains.city.obs_transform.bias_scale must be a finite number, got inf"),
    ({"domains": {"city": domain(obs_transform={"kind": "rotation", "seed": 7.5})}},
     "domains.city.obs_transform.seed must be an integer, got 7.5"),
    ({"domains": {"city": domain(obs_transform={"kind": "rotation", "seed": 7,
                                                "bias_seed": "7"})}},
     "domains.city.obs_transform.bias_seed must be an integer, got '7'"),
    ({"domains": {"city": domain(obs_transform={"kind": "low_rank", "seed": 7,
                                                "rank": 2.0})}},
     "domains.city.obs_transform.rank must be an integer, got 2.0"),
    ({"domains": {"city": domain(obs_transform={"kind": "low_rank", "seed": 7,
                                                "rank": True})}},
     "domains.city.obs_transform.rank must be an integer, got True"),
    ({"domains": {"city": domain(obs_transform={"kind": "low_rank", "seed": 7, "rank": 0})}},
     r"domains.city.obs_transform.rank must be in \[1, 24\], got 0"),
    ({"domains": {"city": domain(obs_transform={"kind": "low_rank", "seed": 7,
                                                "rank": 25})}},
     r"domains.city.obs_transform.rank must be in \[1, 24\], got 25"),
], ids=[
    # explicit, so that editing or deleting a case renames only that case;
    # the cases kept from the positional ids keep their names
    'user0-domains.city missing keys',
    'user1-domains.city.curvature_prior.turn_left',
    'user2-domains.city.speed_prior',
    r'user3-domains.city.speed_prior\[1\]',
    'user4-domains.city: speed range',
    'user5-domains.city.obs_transform',
    'user6-domains.city.obs_noise_std',
    'user7-domains.city.curvature_prior missing',
    'user8-model.token_dim',
    'user9-model.token_dim',
    'user10-model.obs_dim',
    'bool_group_size',
    'user12-model must be an object',
    'user13-train: batch_size',
    'user14-train: ',
    'user15-train: gp_weight must be a finite number',
    'n_ego_13',
    'n_ego_9',
    'n_agent_6',
    'user19-train: epochs_stage2 must be non-negative',
    'user20-train: adapt_epochs must be non-negative',
    'user21-train: batch_size must be positive',
    'user22-domains.city.mirror must be true or false',
    "user23-data.source_domain: unknown domain 'nowhere'",
    'user24-data.target_domain: unknown domain',
    'user25-out_dir must be a path string, got 3',
    "user26-train: seed must be an integer, got 'abc'",
    'user27-train: seed must be an integer, got 1.5',
    'user28-model.encoder_hidden must be positive',
    'zero_group_size',
    'user30-model.planner_hidden must be positive',
    'user31-data.n_source must be a positive integer, got 2.5',
    'user32-data.n_source_val must be a positive integer, got -3',
    'user33-data.n_target must be a positive integer, got 0',
    'user34-data.n_target must be a positive integer, got True',
    "user35-data.n_target_val must be a positive integer, got '10'",
    'user36-domains.city.obs_noise_std must be a finite number, got nan',
    r'user37-domains.city.curvature_prior.turn_left\[0\] must be a finite number, got inf',
    'user38-train: lr_stage12 must be a finite number, got inf',
    "user39-eval.rarity_bins.slow.max_speed must be a finite number, got 'fast'",
    'user40-eval.rarity_bins.slow.min_abs_curvature must be a finite number, got nan',
    "user41-domains.city.obs_transform must be an object, got 'identity'",
    "user42-domains.city.obs_transform: .*unknown obs_transform kind 'matrix'",
    'user43-domains.city.obs_transform.angle must be a finite number, got nan',
    'user44-domains.city.obs_transform.bias_scale must be a finite number, got inf',
    'user45-domains.city.obs_transform.seed must be an integer, got 7.5',
    "user46-domains.city.obs_transform.bias_seed must be an integer, got '7'",
    'user47-domains.city.obs_transform.rank must be an integer, got 2.0',
    'user48-domains.city.obs_transform.rank must be an integer, got True',
    r'user49-domains.city.obs_transform.rank must be in \[1, 24\], got 0',
    r'user50-domains.city.obs_transform.rank must be in \[1, 24\], got 25',
])
def test_malformed_values_name_their_key_path(user, path):
    with pytest.raises(ConfigError, match=path):
        config.resolve(user)


@pytest.mark.parametrize("user,message", [
    ({"domains": [1]}, r"domains must be an object, got \[1\]"),
    ({"domains": {"city": [1]}}, r"domains.city must be an object, got \[1\]"),
    ({"eval": {"rarity_bins": [1]}}, r"eval.rarity_bins must be an object, got \[1\]"),
])
def test_non_object_sections_name_their_key(user, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config.resolve(user)


@pytest.mark.parametrize("user,path", [
    ({"extra": 1}, "<root>"),
    ({"model": {"depth": 3}}, "model"),
    ({"codebook": {"n_ego": 12}}, "<root>"),  # the codebook sizes are model keys
    ({"train": {"momentum": 0.9}}, "train"),
    ({"data": {"n_test": 3}}, "data"),
    ({"eval": {"bins": {}}}, "eval"),
    ({"eval": {"rarity_bins": {"slow": {"max_speeed": 3.0}}}}, "eval.rarity_bins.slow"),
    ({"domains": {"city": domain(blur=0.3)}}, "domains.city"),
    ({"domains": {"city": domain(obs_transform={"kind": "identity", "scale": 2})}},
     "domains.city.obs_transform"),
    ({"domains": {"city": domain(curvature_prior={
        "turn_left": [0.05, 0.01], "go_straight": [0.0, 0.004],
        "turn_right": [-0.05, 0.015], "u_turn": [0.2, 0.01]})}},
     "domains.city.curvature_prior"),
    ({"domains": {"city": domain(obs_transform={"kind": "identity", "bias": [0.0]})}},
     "domains.city.obs_transform"),
    # options that became constants
    ({"train": {"beta1": 0.9}}, "train"),
    ({"train": {"sigma_clamp": [1e-3, 1e3]}}, "train"),
    ({"train": {"triplet_margin": 1.0}}, "train"),
    ({"model": {"token_scale": 3.0}}, "model"),
], ids=[
    'user0-<root>',
    'user1-model',
    'codebook_section',
    'user3-train',
    'user4-data',
    'user5-eval',
    'user6-eval.rarity_bins.slow',
    'user7-domains.city',
    'user8-domains.city.obs_transform',
    'user9-domains.city.curvature_prior',
    'user10-domains.city.obs_transform',
    'user11-train',
    'user12-train',
    'user13-train',
    'user14-model',
])
def test_unknown_keys_rejected_at_each_level(user, path):
    with pytest.raises(ConfigError, match=f"unknown config keys at {path}: "):
        config.resolve(user)


def test_unknown_loss_weight_rejected():
    with pytest.raises(ConfigError, match=r"unknown loss weight names: \['recon_egoo'\]"):
        config.resolve({"train": {"loss_weights": {"recon_egoo": 1.0}}})


@pytest.mark.parametrize("train, match", [
    ({"loss_weights": {"base_plan": "x"}}, "loss weight base_plan must be a finite number"),
    # Python's json reads NaN, so a config file can carry one
    ({"loss_weights": {"kl_ego": float("nan")}}, "loss weight kl_ego must be a finite number"),
    ({"loss_weights": [0.5]}, "loss_weights must map term names to numbers"),
    ({"batch_size": 2.5}, "batch_size must be an integer, got 2.5"),
    ({"epochs_stage1": 1.5}, "epochs_stage1 must be an integer, got 1.5"),
    ({"lr_stage3": float("nan")}, "lr_stage3 must be a finite number, got nan"),
    ({"gp_weight": "x"}, "gp_weight must be a finite number, got 'x'"),
    ({"gp_weight": float("nan")}, "gp_weight must be a finite number, got nan"),
], ids=["string-weight", "nan-weight", "weight-list", "float-batch", "float-epochs",
        "nan-lr", "string-gp-weight", "nan-gp-weight"])
def test_bad_train_values_rejected(train, match):
    with pytest.raises(ConfigError, match=f"train: {match}"):
        config.resolve({"train": train})


def test_load_rejects_invalid_json_and_non_object_root(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,')
    with pytest.raises(ConfigError, match="invalid JSON"):
        config.load(bad)
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError, match="config root must be an object"):
        config.load(listed)


def test_unknown_domain_rejected():
    with pytest.raises(ConfigError, match="unknown domain 'nowhere'"):
        config.resolve({}).domain("nowhere")
