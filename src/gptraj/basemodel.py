"""Toy stand-in for the base end-to-end planner.

A two-layer tanh encoder maps raw observation vectors to tokens (scaled to a
fixed norm so kernel lengthscales stay in a sane range), and a shared
two-layer planner head maps a token to classification logits over all
codebook groups plus a squashed waypoint residual. The planned trajectory is
the selected group's anchor trajectory plus the residual; role only enters
through the admissibility mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tensor
from .codebook import Codebook, Role, admissible_groups
from .core import SceneRecord, Token, Trajectory

RESIDUAL_BOUND = 5.0  # meters per coordinate
TOKEN_SCALE = 3.0
_NORM_EPS = 1e-12


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


def _encode_vec(obs: np.ndarray, p: BaseModelParams) -> np.ndarray:
    h = np.tanh(p.enc_w1 @ obs + p.enc_b1)
    raw = p.enc_w2 @ h + p.enc_b2
    return p.token_scale * raw / np.sqrt(raw @ raw + _NORM_EPS)


def encode(scene: SceneRecord, p: BaseModelParams) -> tuple[Token, list[Token]]:
    """Deterministic ego and agent tokens; agents in input order."""
    if scene.ego_obs.shape[0] != p.enc_w1.shape[1]:
        raise ValueError(
            f"observation length {scene.ego_obs.shape[0]} != encoder input "
            f"{p.enc_w1.shape[1]}")
    ego = Token(_encode_vec(scene.ego_obs, p))
    agents = [Token(_encode_vec(a, p)) for a in scene.agent_obs]
    return ego, agents


def _planner_raw(token: np.ndarray, p: BaseModelParams) -> tuple[np.ndarray, np.ndarray]:
    h = np.tanh(p.pln_w1 @ token + p.pln_b1)
    out = p.pln_w2 @ h + p.pln_b2
    return out[: p.n_code], RESIDUAL_BOUND * np.tanh(out[p.n_code:])


def plan(token: Token, role: Role, p: BaseModelParams,
         cb: Codebook) -> tuple[Trajectory, np.ndarray]:
    """Anchor-plus-residual trajectory for the argmax admissible group."""
    raw_logits, residual = _planner_raw(token.values, p)
    logits = np.full_like(raw_logits, -np.inf)
    ids = admissible_groups(cb, role)
    logits[ids] = raw_logits[ids]
    group = int(np.argmax(logits))
    traj = cb.group(group).traj_anchor + residual
    return Trajectory.from_flat(traj), logits


def plan_with_group(token: Token, group: int, p: BaseModelParams,
                    cb: Codebook) -> Trajectory:
    """Trajectory for an externally chosen group (training-time label anchor)."""
    _, residual = _planner_raw(token.values, p)
    return Trajectory.from_flat(cb.group(group).traj_anchor + residual)


def masked_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax where -inf entries get exactly zero probability."""
    m = np.max(logits[np.isfinite(logits)])
    z = np.where(np.isfinite(logits), np.exp(logits - m), 0.0)
    return z / z.sum()


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
