"""Shared fixtures: tiny model specs and synthetic datasets sized for tests."""

from __future__ import annotations

import os

# the CLI's contract: one BLAS thread, pinned before numpy loads, so the
# bit-for-bit tests judge the bytes the CLI writes on every host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gptraj import autodiff, psdlinalg
from gptraj.autodiff import Tensor
from gptraj.core import COMMANDS, Command, scene_rows
from gptraj.synthdomain import DomainSpec, gen_dataset
from gptraj.trainer import ModelSpec, TrainConfig, build_model

TINY_OBS_DIM = 16


def tiny_domain(name: str = "tiny", noise: float = 0.03, mirror: bool = False,
                obs_transform=None, obs_bias=None, speed=(3.0, 12.0),
                curv_scale: float = 1.0) -> DomainSpec:
    dim = TINY_OBS_DIM
    return DomainSpec(
        name=name,
        obs_transform=np.eye(dim) if obs_transform is None else obs_transform,
        obs_bias=np.zeros(dim) if obs_bias is None else obs_bias,
        obs_noise_std=noise,
        curvature_prior={
            Command.TURN_LEFT: (0.05 * curv_scale, 0.015),
            Command.GO_STRAIGHT: (0.0, 0.004),
            Command.TURN_RIGHT: (-0.05 * curv_scale, 0.015),
        },
        speed_prior=speed,
        mirror=mirror,
    )


def tiny_spec() -> ModelSpec:
    return ModelSpec(obs_dim=TINY_OBS_DIM, token_dim=8, n_ego=12, n_agent=7,
                     group_size=4, encoder_hidden=24, planner_hidden=24,
                     classifier_hidden=32)


def tiny_config(seed: int = 0, **kw) -> TrainConfig:
    defaults = dict(epochs_stage1=4, epochs_stage2=3, epochs_stage3=3,
                    adapt_epochs=2, batch_size=16)
    defaults.update(kw)
    return TrainConfig(seed=seed, **defaults)


@pytest.fixture(scope="session")
def tiny_dataset():
    return gen_dataset(tiny_domain(), 90, seed=5, obs_dim=TINY_OBS_DIM)


@pytest.fixture(scope="session")
def tiny_model(tiny_dataset):
    return build_model(scene_rows(tiny_dataset, labeled=True), tiny_config(), tiny_spec())


def parameter(data) -> Tensor:
    """A learnable leaf holding a copy of ``data``."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def grad_map(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """``autodiff.grad`` of ``loss`` into a new buffer for each parameter."""
    return autodiff.grad(loss, params, {n: np.empty_like(p.data) for n, p in params.items()})


@pytest.fixture
def factored(monkeypatch) -> list[int]:
    """The number of matrices of each ``psdlinalg.cholesky_factor`` call
    from here on, in call order."""
    sizes = []
    real = psdlinalg.cholesky_factor

    def factor(a):
        sizes.append(int(np.prod(a.shape[:-2])))
        return real(a)

    monkeypatch.setattr(psdlinalg, "cholesky_factor", factor)
    return sizes


class GramSpy:
    """The real ``psdlinalg.group_gram_t``, which records the groups of each
    call in ``ids``. With ``corrupt``, codebook group ``corrupt``'s Gram
    matrix is -I in the ``at``-th call (from 0), or in every call when
    ``at`` is None, if the call conditions that group.

    A GP conditioning is one call: one per stage-2 step, and one per
    ``GpInference.predict_rows`` call.
    """

    real = staticmethod(psdlinalg.group_gram_t)  # as imported, before any patch

    def __init__(self, corrupt: int | None = None, at: int | None = None):
        self.corrupt, self.at = corrupt, at
        self.ids: list[np.ndarray] = []

    def __call__(self, basis, ids, *scalars):
        gram = self.real(basis, ids, *scalars)
        if (self.corrupt is not None and self.corrupt in ids
                and self.at in (None, len(self.ids))):
            gram.data[np.searchsorted(ids, self.corrupt)] = -np.eye(gram.shape[-1])
        self.ids.append(np.array(ids))
        return gram

    def renumbered(self, call: int) -> int:
        """A group of call ``call`` whose codebook id is not its index in the
        call's stack, so that an error naming it shows which one it names."""
        return next(int(g) for i, g in enumerate(self.ids[call]) if g != i)


def assert_commands_covered(records):
    seen = {r.command for r in records}
    assert seen == set(COMMANDS)
