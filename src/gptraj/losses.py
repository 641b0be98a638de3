"""Training objectives: reconstruction, GP supervision, and teacher regularization.

All losses are built as autodiff expressions; targets (original tokens,
ground truth, teacher outputs) must be passed as constants so no gradient
flows into them. The variance-weighted form is the standard heteroscedastic
Gaussian NLL, task_loss / sigma^2 + log(sigma), with sigma clamped to a
configurable band so the total stays bounded below.

Every term is computed row-wise over one optimizer step's rows: the ego
rows of the batch's scenes first, then their agent rows, each block in
ascending scene order. A row's admissible groups come as a boolean
(N, n_code) mask. A role's term is the sum of its rows, so a step's terms
are the sum of its scenes' terms.

A step builds one masked log-softmax forward per logits matrix
(``MaskedLogSoftmax``, passed down, never cached); each of its consumers is
one tape node whose vjp replays the composed chain's backward ops in their
order, so values and gradients keep the bytes of that chain.

Each loss returns its terms as a plain dict of scalar tensors named from
``TERM_NAMES``. The trainer makes the step's loss from them with
``step_total``, one node that sums in dict order, so that order is part of
the checkpoint bits. Stage 2 fits the GP-guided families against ground truth
(``loss_sup``); base-model stages distil the same families from the frozen
GP teacher (``loss_gp_teacher``), which adds only the KL term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from . import autodiff
from .autodiff import Tensor, as_tensor

TERM_NAMES = (
    "recon_ego", "recon_agent", "ortho_ego", "ortho_agent",
    "plan_nll", "motion_nll", "class_ce_ego", "class_ce_agent",
    "triplet_ego", "triplet_agent", "kl_ego", "kl_agent",
    "base_plan", "base_motion", "base_class_ce_ego", "base_class_ce_agent",
)
# the terms of ``loss_gp_teacher``, which base-model stages scale by gp_weight
TEACHER_TERMS = TERM_NAMES[4:12]

DEFAULT_SIGMA_CLAMP = (1e-3, 1e3)
DEFAULT_TRIPLET_MARGIN = 1.0
_NORM_EPS = 1e-12


def role_sums(per_row: Tensor, n_ego: int) -> tuple[Tensor, Tensor]:
    """Sum of the ego rows (the first ``n_ego``) and sum of the agent rows."""
    n = per_row.data.shape[0]
    return (autodiff.tsum(autodiff.narrow(per_row, 0, n_ego)),
            autodiff.tsum(autodiff.narrow(per_row, n_ego, n)))


def role_terms(per_row: Mapping[tuple[str, str], Tensor], n_ego: int) -> dict[str, Tensor]:
    """Role sums of per-row families keyed (ego name, agent name): every
    family's ego term, then every family's agent term, in key order."""
    sums = [role_sums(rows, n_ego) for rows in per_row.values()]
    return {**{ego: s[0] for (ego, _), s in zip(per_row, sums)},
            **{agent: s[1] for (_, agent), s in zip(per_row, sums)}}


def _log_softmax(x: np.ndarray, admissible: np.ndarray, mask: np.ndarray):
    """Exp of the shifted rows, their masked sums, and the masked log-softmax."""
    m = np.max(np.where(admissible, x, -np.inf), axis=-1, keepdims=True)
    shifted = (x - m) * mask
    e = np.exp(shifted)
    sums = np.sum(e * mask, axis=-1, keepdims=True)
    return e, sums, (shifted - np.log(sums)) * mask


class MaskedLogSoftmax:
    """A logits matrix's masked log-softmax forward, shared by its one-node
    consumers (``cross_entropy``, ``kl_divergence``)."""

    def __init__(self, logits: Tensor, admissible: np.ndarray):
        self.logits, self.admissible, self.mask = logits, admissible, admissible.astype(float)
        self.exp, self.sums, self.out = _log_softmax(logits.data, admissible, self.mask)

    def node(self, value: np.ndarray, upstream) -> Tensor:
        """A node over the logits; its vjp takes ``upstream(g)`` through the log-softmax."""
        def grad(g):
            gd = upstream(g) * self.mask
            g_sums = np.sum(-gd, axis=-1, keepdims=True) / self.sums
            return (gd + g_sums * self.mask * self.exp) * self.mask

        return autodiff._make(value, (self.logits,), lambda g: (lambda: grad(g),))


def cross_entropy(ls: MaskedLogSoftmax, labels) -> Tensor:
    """Per row, -log softmax probability of the label among the admissible groups."""
    labels = np.asarray(labels, dtype=np.intp)
    rows = np.arange(len(labels))
    if not np.all(ls.admissible[rows, labels]):
        raise ValueError("label outside the admissible set")
    onehot = np.zeros(ls.admissible.shape)
    onehot[rows, labels] = 1.0
    return ls.node(np.sum(ls.out * onehot, axis=1) * -1.0,
                   lambda g: (g * -1.0)[:, None] * onehot)


def kl_divergence(ls: MaskedLogSoftmax, teacher_logits: np.ndarray) -> Tensor:
    """Per row, KL(softmax(student) || softmax(teacher)) over the admissible set.

    Teacher logits are constants; entries outside the set are ignored.
    """
    _, _, ls_t = _log_softmax(np.where(ls.admissible, teacher_logits, 0.0),
                              ls.admissible, ls.mask)
    e = np.exp(ls.out)
    p, diff = e * ls.mask, ls.out - ls_t
    return ls.node(np.sum(p * diff, axis=1),
                   lambda g: g[:, None] * p + g[:, None] * diff * ls.mask * e)


def step_total(terms: Mapping[str, Tensor], weights: Mapping[str, float], n_ego: int,
               gp_weight: float = 1.0, taught: Collection[str] = ()):
    """A step's loss as one node, and the values it sums: each term named in
    ``taught`` times ``gp_weight``. Each value is weighted (1 if unnamed), the
    products summed from 0 in dict order and the sum scaled by 1/n_ego."""
    scale = [gp_weight if name in taught else 1.0 for name in terms]
    w = [weights.get(name, 1.0) for name in terms]
    values = np.array([t.item() for t in terms.values()]) * scale
    total, inv = 0.0, 1.0 / n_ego
    for v, wi in zip(values, w):
        total = total + v * wi
    return autodiff._make(total * inv, tuple(terms.values()), lambda g: tuple(
        lambda wi=wi, si=si: np.asarray(g * inv * wi * si) for wi, si in zip(w, scale))), values


def heteroscedastic_nll(task_loss: Tensor, variance,
                        sigma_clamp: tuple[float, float] = DEFAULT_SIGMA_CLAMP) -> Tensor:
    """Elementwise task_loss / sigma^2 + log sigma, sigma = clamp(sqrt(variance))."""
    variance = as_tensor(variance)
    if np.any(variance.data <= 0.0):
        raise ValueError("non-positive variance in heteroscedastic loss")
    sigma = autodiff.clamp(autodiff.sqrt(variance), *sigma_clamp)
    return autodiff.add(autodiff.div(task_loss, autodiff.square(sigma)),
                        autodiff.log(sigma))


def traj_mse(pred: Tensor, gt) -> Tensor:
    """Per row, mean over the 6 waypoints of squared error from the constant ``gt``."""
    d = autodiff.sub(pred, gt)
    return autodiff.div(autodiff.tsum(autodiff.square(d), axis=-1), 6.0)


def orthogonality(basis: Tensor) -> Tensor:
    """Squared Frobenius distance of B B^T from the identity, per group of
    the (n_code, C, D) basis; shape (n_code,)."""
    gram = autodiff.matmul(basis, autodiff.transpose(basis))
    eye = np.eye(gram.data.shape[-1])
    return autodiff.tsum(autodiff.square(autodiff.sub(gram, eye)), axis=(1, 2))


def triplet_term(tokens, positives: np.ndarray, negatives: np.ndarray, anchors,
                 margin: float = DEFAULT_TRIPLET_MARGIN) -> Tensor:
    """Per row, mean hinge over every (positive, negative) anchor pair.

    ``tokens`` is (N, D); ``positives``/``negatives`` are (N, k) group ids
    into the (n_code, D) ``anchors`` table. Distances are Euclidean between
    a row's token and each group's token anchor.
    """
    tok = as_tensor(tokens)
    table = as_tensor(anchors)
    n, dim = tok.data.shape
    t3 = autodiff.reshape(tok, (n, 1, dim))

    def dist(ids):
        d = autodiff.sub(t3, autodiff.gather0(table, ids))
        return autodiff.sqrt(autodiff.add(autodiff.tsum(autodiff.square(d), axis=2),
                                          _NORM_EPS))

    d_pos, d_neg = dist(positives), dist(negatives)
    k_pos, k_neg = d_pos.data.shape[1], d_neg.data.shape[1]
    gap = autodiff.sub(autodiff.reshape(d_pos, (n, k_pos, 1)),
                       autodiff.reshape(d_neg, (n, 1, k_neg)))
    hinge = autodiff.relu(autodiff.add(gap, margin))
    return autodiff.div(autodiff.tsum(hinge, axis=(1, 2)), float(k_pos * k_neg))


def loss_rec(targets, recon: Tensor, variance: Tensor, n_ego: int,
             groups: Sequence[int], scenes: Sequence[int], basis: Tensor,
             sigma_clamp: tuple[float, float] = DEFAULT_SIGMA_CLAMP) -> dict[str, Tensor]:
    """Token reconstruction NLL plus basis orthogonality over a step's rows.

    ``targets`` (N, D) are the fixed tokens and must be constants; ``recon``
    and ``variance`` are the GP reconstructions (N, D) and variances (N,).
    Row i was conditioned on group ``groups[i]`` and belongs to scene
    ``scenes[i]``; ``basis`` is the (n_code, C, D) basis tensor.
    Orthogonality is applied once per distinct basis involved in a scene:
    once for its ego group and once for each other group among its agents.
    """
    task = autodiff.tsum(
        autodiff.square(autodiff.sub(recon, targets)), axis=1)
    recon_ego, recon_agent = role_sums(
        heteroscedastic_nll(task, variance, sigma_clamp), n_ego)
    groups = np.asarray(groups, dtype=np.intp)
    scenes = np.asarray(scenes, dtype=np.intp)
    n_code = basis.data.shape[0]
    ego_of = np.full(scenes.max(initial=-1) + 1, -1)
    ego_of[scenes[:n_ego]] = groups[:n_ego]
    pairs = np.unique(np.stack([scenes[n_ego:], groups[n_ego:]]), axis=1)
    agent_groups = pairs[1][pairs[1] != ego_of[pairs[0]]]
    ortho = orthogonality(basis)

    def weighted(ids: np.ndarray) -> Tensor:
        counts = np.bincount(ids, minlength=n_code).astype(np.float64)
        return autodiff.tsum(autodiff.mul(ortho, counts))

    return {"recon_ego": recon_ego, "recon_agent": recon_agent,
            "ortho_ego": weighted(groups[:n_ego]), "ortho_agent": weighted(agent_groups)}


@dataclass
class SupRows:
    """A step's predictions and their constant targets, one per row: ground
    truth in stage 2, the frozen GP teacher's outputs in base-model stages."""

    traj: Tensor  # (N, 12) predicted trajectories
    target: np.ndarray  # (N, 12)
    variance: Tensor | np.ndarray  # (N,) GP predictive variance
    ls: MaskedLogSoftmax  # of the (N, n_code) classifier logits
    label: np.ndarray  # (N,)
    token: Tensor | np.ndarray  # (N, D)
    positives: np.ndarray  # (N, 3) triplet classes of each label
    negatives: np.ndarray  # (N, 3)
    n_ego: int  # the first n_ego rows are ego rows


def _gp_families(rows: SupRows, anchors, sigma_clamp,
                 margin) -> dict[tuple[str, str], Tensor]:
    """Per-row variance-weighted trajectory NLL, class CE and triplets."""
    return {
        ("plan_nll", "motion_nll"): heteroscedastic_nll(
            traj_mse(rows.traj, rows.target), rows.variance, sigma_clamp),
        ("class_ce_ego", "class_ce_agent"): cross_entropy(rows.ls, rows.label),
        ("triplet_ego", "triplet_agent"): triplet_term(
            rows.token, rows.positives, rows.negatives, anchors, margin),
    }


def loss_sup(rows: SupRows, anchors,
             sigma_clamp: tuple[float, float] = DEFAULT_SIGMA_CLAMP,
             margin: float = DEFAULT_TRIPLET_MARGIN) -> dict[str, Tensor]:
    """Variance-weighted GP supervision: planning/motion NLL, class CE, triplets.

    ``anchors`` is the (n_code, D) token-anchor table.
    """
    return role_terms(_gp_families(rows, anchors, sigma_clamp, margin), rows.n_ego)


def loss_gp_teacher(rows: SupRows, teacher_logits: np.ndarray, anchors,
                    sigma_clamp: tuple[float, float] = DEFAULT_SIGMA_CLAMP,
                    margin: float = DEFAULT_TRIPLET_MARGIN) -> dict[str, Tensor]:
    """Distillation of the base model against the GP module, no ground truth.

    ``rows`` hold the base model's outputs and the teacher's targets;
    ``teacher_logits`` (N, n_code) are the teacher's, -inf outside each
    row's admissible set. Adds the KL to the teacher's class distribution
    to ``loss_sup``'s families. ``anchors`` is the (n_code, D) token-anchor
    table.
    """
    families = _gp_families(rows, anchors, sigma_clamp, margin)
    families["kl_ego", "kl_agent"] = kl_divergence(rows.ls, teacher_logits)
    return role_terms(families, rows.n_ego)
