"""Toy stand-in for the base end-to-end planner.

A two-layer tanh encoder maps raw observation vectors to tokens (scaled to a
fixed norm so kernel lengthscales stay in a sane range), and a shared
two-layer planner head maps a token to classification logits over all
codebook groups plus a squashed waypoint residual. The planned trajectory is
the selected group's anchor trajectory plus the residual; role only enters
through the admissibility mask. Both run over row matrices; training passes
parameter tensors to ``encode_t``/``planner_t``, and inference calls
``encode``/``plan``, which run them over the constants of ``frozen``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tensor

RESIDUAL_BOUND = 5.0  # meters per coordinate
TOKEN_SCALE = 3.0
_NORM_EPS = 1e-12
PARAM_NAMES = ("enc_w1", "enc_b1", "enc_w2", "enc_b2",
               "pln_w1", "pln_b1", "pln_w2", "pln_b2")


@dataclass
class BaseModelParams:
    """Encoder and planner weights. ``token_scale`` fixes the token norm."""

    enc_w1: np.ndarray  # (hidden_e, obs_dim)
    enc_b1: np.ndarray
    enc_w2: np.ndarray  # (token_dim, hidden_e)
    enc_b2: np.ndarray
    pln_w1: np.ndarray  # (hidden_p, token_dim)
    pln_b1: np.ndarray
    pln_w2: np.ndarray  # (n_code + 12, hidden_p)
    pln_b2: np.ndarray
    n_code: int
    token_scale: float = TOKEN_SCALE

    @classmethod
    def init(cls, obs_dim: int, token_dim: int, n_code: int, hidden_enc: int,
             hidden_pln: int, rng: np.random.Generator,
             token_scale: float = TOKEN_SCALE) -> "BaseModelParams":
        def layer(n_out, n_in):
            return rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))

        return cls(
            enc_w1=layer(hidden_enc, obs_dim),
            enc_b1=np.zeros(hidden_enc),
            enc_w2=layer(token_dim, hidden_enc),
            enc_b2=np.zeros(token_dim),
            pln_w1=layer(hidden_pln, token_dim),
            pln_b1=np.zeros(hidden_pln),
            pln_w2=layer(n_code + 12, hidden_pln),
            pln_b2=np.zeros(n_code + 12),
            n_code=n_code,
            token_scale=token_scale,
        )


def frozen(p: BaseModelParams) -> dict[str, Tensor]:
    """The weights as constant tensors, keyed by ``PARAM_NAMES``:
    ``encode_t``/``planner_t`` over them evaluate without building a tape."""
    return {n: Tensor(getattr(p, n)) for n in PARAM_NAMES}


# --- differentiable builders -------------------------------------------------


def encode_t(obs: np.ndarray, v: dict[str, Tensor], token_scale: float) -> Tensor:
    """Tokens (N, token_dim) of the observation rows ``obs`` (N, obs_dim)."""
    if obs.shape[1] != v["enc_w1"].data.shape[1]:
        raise ValueError(
            f"observation length {obs.shape[1]} != encoder input "
            f"{v['enc_w1'].data.shape[1]}")
    h = autodiff.tanh(autodiff.add(
        autodiff.matmul(Tensor(obs), autodiff.transpose(v["enc_w1"])), v["enc_b1"]))
    raw = autodiff.add(autodiff.matmul(h, autodiff.transpose(v["enc_w2"])), v["enc_b2"])
    norm = autodiff.sqrt(autodiff.add(
        autodiff.tsum(autodiff.square(raw), axis=1, keepdims=True), _NORM_EPS))
    return autodiff.mul(autodiff.div(raw, norm), token_scale)


def planner_t(tokens: Tensor, v: dict[str, Tensor],
              n_code: int) -> tuple[Tensor, Tensor]:
    """Raw logits (N, n_code), unmasked, and bounded residuals (N, 12) of
    the token rows."""
    h = autodiff.tanh(autodiff.add(
        autodiff.matmul(tokens, autodiff.transpose(v["pln_w1"])), v["pln_b1"]))
    out = autodiff.add(autodiff.matmul(h, autodiff.transpose(v["pln_w2"])), v["pln_b2"])
    logits = autodiff.narrow(out, 0, n_code, axis=1)
    residual = autodiff.mul(
        autodiff.tanh(autodiff.narrow(out, n_code, n_code + 12, axis=1)),
        RESIDUAL_BOUND)
    return logits, residual


# --- frozen-model inference --------------------------------------------------


def encode(obs: np.ndarray, p: BaseModelParams) -> np.ndarray:
    """Tokens (N, token_dim) of the observation rows ``obs`` (N, obs_dim)."""
    return encode_t(obs, frozen(p), p.token_scale).data


def plan(tokens: np.ndarray, admissible: np.ndarray, p: BaseModelParams,
         traj_anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planned trajectories (N, 12) of the token rows (N, token_dim) and their
    groups (N,): the anchor of each row's argmax admissible group (ties to the
    lowest id) plus the row's residual. ``admissible`` is (N, n_code) bool and
    ``traj_anchors`` (n_code, 12)."""
    raw, residual = planner_t(Tensor(tokens), frozen(p), p.n_code)
    group = np.argmax(np.where(admissible, raw.data, -np.inf), axis=1)
    return traj_anchors[group] + residual.data, group
