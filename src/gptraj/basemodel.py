"""Toy stand-in for the base end-to-end planner.

A two-layer tanh encoder maps raw observation vectors to tokens (scaled to
the fixed norm ``TOKEN_SCALE`` so kernel lengthscales stay in a sane
range), and a shared two-layer planner head maps a token to classification
logits over all
codebook groups plus a squashed waypoint residual. The planned trajectory is
the selected group's anchor trajectory plus the residual; role only enters
through the admissibility mask. Both run over row matrices and read their
weights by checkpoint name (``base.enc_w1`` ... ``base.pln_b2``) from a
model's tensor dict, whose values may be arrays or tensors: training passes
parameter tensors to ``encode_t``/``planner_t``, and inference calls
``encode``/``plan`` over the arrays, which every autodiff op wraps as
constants, so they build no tape.

On a tape the base model is two nodes: the encoder is one node over its
four weights, and the planner's network one ``autodiff.mlp`` node, cut into
logits and residuals by two ``narrow`` nodes. Both share the two-layer
network's forward and backward (``autodiff.mlp_forward``/``mlp_thunks``),
and both keep the bytes of the chains of primitive nodes they replace.
"""

from __future__ import annotations

import numpy as np

from . import autodiff
from .autodiff import Tensor

RESIDUAL_BOUND = 5.0  # meters per coordinate
TOKEN_SCALE = 3.0
_NORM_EPS = 1e-12


# --- differentiable builders -------------------------------------------------


def encode_t(obs: np.ndarray, w: dict) -> Tensor:
    """Tokens (N, token_dim) of the observation rows ``obs`` (N, obs_dim), as
    one node over the four encoder weights: the two-layer network's raw
    rows, divided by their norm (its square sum plus a small epsilon, then
    the root) and scaled to ``TOKEN_SCALE``. The vjp replays the backward ops
    of the composed chain (``mlp``, ``square``, ``tsum``, ``add``, ``sqrt``,
    ``div``, ``mul``) in its order."""
    params = tuple(autodiff.as_tensor(w[f"base.enc_{n}"]) for n in ("w1", "b1", "w2", "b2"))
    n_in = params[0].data.shape[1]
    if obs.shape[1] != n_in:
        raise ValueError(f"observation length {obs.shape[1]} != encoder input {n_in}")
    arrays = [obs] + [p.data for p in params]
    h, raw = autodiff.mlp_forward(*arrays)
    norm = np.sqrt(np.sum(raw * raw, axis=1, keepdims=True) + _NORM_EPS)
    tokens = raw / norm * TOKEN_SCALE

    def vjp(g):
        g_q = g * TOKEN_SCALE
        g_norm = np.sum(-g_q * raw / (norm * norm), axis=1, keepdims=True)
        g_raw = g_q / norm
        g_raw += 2.0 * (g_norm * 0.5 / norm) * raw
        return autodiff.mlp_thunks(*arrays, h, g_raw)[1:]

    return autodiff._make(tokens, params, vjp)


def planner_t(tokens: Tensor, w: dict, n_code: int) -> tuple[Tensor, Tensor]:
    """Raw logits (N, n_code), unmasked, and bounded residuals (N, 12) of
    the token rows: one ``mlp`` node, cut by two ``narrow`` nodes."""
    out = autodiff.mlp(tokens, *(w[f"base.pln_{n}"] for n in ("w1", "b1", "w2", "b2")))
    logits = autodiff.narrow(out, 0, n_code, axis=1)
    residual = autodiff.mul(
        autodiff.tanh(autodiff.narrow(out, n_code, n_code + 12, axis=1)),
        RESIDUAL_BOUND)
    return logits, residual


# --- frozen-model inference --------------------------------------------------


def encode(obs: np.ndarray, w: dict) -> np.ndarray:
    """Tokens (N, token_dim) of the observation rows ``obs`` (N, obs_dim)."""
    return encode_t(obs, w).data


def plan(tokens: np.ndarray, admissible: np.ndarray, w: dict,
         traj_anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planned trajectories (N, 12) of the token rows (N, token_dim) and their
    groups (N,): the anchor of each row's argmax admissible group (ties to the
    lowest id) plus the row's residual. ``admissible`` is (N, n_code) bool and
    ``traj_anchors`` (n_code, 12)."""
    raw, residual = planner_t(Tensor(tokens), w, len(traj_anchors))
    group = np.argmax(np.where(admissible, raw.data, -np.inf), axis=1)
    return traj_anchors[group] + residual.data, group
