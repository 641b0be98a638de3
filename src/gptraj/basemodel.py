"""Toy stand-in for the base end-to-end planner.

A two-layer tanh encoder maps raw observation vectors to tokens (scaled to a
fixed norm so kernel lengthscales stay in a sane range), and a shared
two-layer planner head maps a token to classification logits over all
codebook groups plus a squashed waypoint residual. The planned trajectory is
the selected group's anchor trajectory plus the residual; role only enters
through the admissibility mask. Both run over row matrices and read their
weights by checkpoint name (``base.enc_w1`` ... ``base.pln_b2``) from a
model's tensor dict, whose values may be arrays or tensors: training passes
parameter tensors to ``encode_t``/``planner_t``, and inference calls
``encode``/``plan`` over the arrays, which every autodiff op wraps as
constants, so they build no tape.
"""

from __future__ import annotations

import numpy as np

from . import autodiff
from .autodiff import Tensor

RESIDUAL_BOUND = 5.0  # meters per coordinate
TOKEN_SCALE = 3.0
_NORM_EPS = 1e-12


# --- differentiable builders -------------------------------------------------


def encode_t(obs: np.ndarray, w: dict, token_scale: float) -> Tensor:
    """Tokens (N, token_dim) of the observation rows ``obs`` (N, obs_dim)."""
    n_in = w["base.enc_w1"].shape[1]
    if obs.shape[1] != n_in:
        raise ValueError(f"observation length {obs.shape[1]} != encoder input {n_in}")
    h = autodiff.tanh(autodiff.linear(obs, w["base.enc_w1"], w["base.enc_b1"]))
    raw = autodiff.linear(h, w["base.enc_w2"], w["base.enc_b2"])
    norm = autodiff.sqrt(autodiff.add(
        autodiff.tsum(autodiff.square(raw), axis=1, keepdims=True), _NORM_EPS))
    return autodiff.mul(autodiff.div(raw, norm), token_scale)


def planner_t(tokens: Tensor, w: dict, n_code: int) -> tuple[Tensor, Tensor]:
    """Raw logits (N, n_code), unmasked, and bounded residuals (N, 12) of
    the token rows."""
    h = autodiff.tanh(autodiff.linear(tokens, w["base.pln_w1"], w["base.pln_b1"]))
    out = autodiff.linear(h, w["base.pln_w2"], w["base.pln_b2"])
    logits = autodiff.narrow(out, 0, n_code, axis=1)
    residual = autodiff.mul(
        autodiff.tanh(autodiff.narrow(out, n_code, n_code + 12, axis=1)),
        RESIDUAL_BOUND)
    return logits, residual


# --- frozen-model inference --------------------------------------------------


def encode(obs: np.ndarray, w: dict, token_scale: float) -> np.ndarray:
    """Tokens (N, token_dim) of the observation rows ``obs`` (N, obs_dim)."""
    return encode_t(obs, w, token_scale).data


def plan(tokens: np.ndarray, admissible: np.ndarray, w: dict,
         traj_anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planned trajectories (N, 12) of the token rows (N, token_dim) and their
    groups (N,): the anchor of each row's argmax admissible group (ties to the
    lowest id) plus the row's residual. ``admissible`` is (N, n_code) bool and
    ``traj_anchors`` (n_code, 12)."""
    raw, residual = planner_t(Tensor(tokens), w, len(traj_anchors))
    group = np.argmax(np.where(admissible, raw.data, -np.inf), axis=1)
    return traj_anchors[group] + residual.data, group
