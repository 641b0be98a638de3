"""Training objectives: reconstruction, GP supervision, and teacher regularization.

All losses are built as autodiff expressions; targets (original tokens,
ground truth, teacher outputs) must be passed as constants so no gradient
flows into them. The variance-weighted form is the standard heteroscedastic
Gaussian NLL, task_loss / sigma^2 + log(sigma), with sigma clamped to the
band ``SIGMA_CLAMP`` so the total stays bounded below.

Every term is computed row-wise over one optimizer step's rows: the ego
rows of the batch's scenes first, then their agent rows, each block in
ascending scene order. A row's admissible groups come as a boolean
(N, n_code) mask. A role's term is the sum of its rows, so a step's terms
are the sum of its scenes' terms.

Each loss family is one tape node per step, whose vjp replays the backward
ops of the chain of primitive nodes it stands for, in that chain's order,
so values and gradients keep the bytes of that chain: the trajectory MSE
(``traj_mse``), the heteroscedastic NLL, the triplet hinge and each role
sum (``role_sums``). A step builds one masked log-softmax forward per
logits matrix (``MaskedLogSoftmax``, passed down, never cached), which its
one-node consumers (``cross_entropy``, ``kl_divergence``) share. The
teacher's log-softmax is a constant of the training call: the trainer
computes it once over the call's rows (``teacher_log_softmax``), and each
step reads its rows.

Each loss returns its terms as a plain dict of scalar tensors named from
``TERM_NAMES``. The trainer makes the step's loss from them with
``step_total``, one node that sums in dict order, so that order is part of
the checkpoint bits. Stage 2 fits the GP-guided families against ground truth
(``loss_sup``); base-model stages distil the same families from the frozen
GP teacher (``loss_gp_teacher``), which adds only the KL term.
"""

from __future__ import annotations

import functools
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

SIGMA_CLAMP = (1e-3, 1e3)  # the band of the NLL's sigma, and of the GP noise scalars
TRIPLET_MARGIN = 1.0
_NORM_EPS = 1e-12


def role_sums(per_row: Tensor, n_ego: int) -> tuple[Tensor, Tensor]:
    """Sum of the ego rows (the first ``n_ego``) and sum of the agent rows,
    one node each, with the bytes of ``tsum(narrow(...))``: a node's vjp puts
    the upstream into its slice's rows and zeros elsewhere."""
    n = per_row.data.shape[0]
    return _slice_sum(per_row, 0, n_ego), _slice_sum(per_row, n_ego, n)


def _slice_sum(a: Tensor, start: int, stop: int) -> Tensor:
    def grad(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return full

    return autodiff._make(a.data[start:stop].sum(), (a,), lambda g: (lambda: grad(g),))


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


def teacher_log_softmax(logits: np.ndarray, admissible: np.ndarray) -> np.ndarray:
    """The masked log-softmax (N, n_code) of constant logits, whatever they
    hold outside each row's (N, n_code) mask: what ``kl_divergence`` compares
    against. Every operation is row-wise, so a row's bytes do not depend on
    the other rows."""
    return _log_softmax(np.where(admissible, logits, 0.0), admissible,
                        admissible.astype(float))[2]


def kl_divergence(ls: MaskedLogSoftmax, teacher_ls: np.ndarray) -> Tensor:
    """Per row, KL(softmax(student) || softmax(teacher)) over the admissible set.

    ``teacher_ls`` is the teacher's constant ``teacher_log_softmax`` of the
    rows; entries outside the set are ignored.
    """
    e = np.exp(ls.out)
    p, diff = e * ls.mask, ls.out - teacher_ls
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


def heteroscedastic_nll(task_loss: Tensor, variance) -> Tensor:
    """Elementwise task_loss / sigma^2 + log sigma, sigma = sqrt(variance)
    clamped to ``SIGMA_CLAMP``, as one node over the task loss and the
    variance (a tape node or a constant). The vjp replays the chain sqrt,
    clamp, square, div, log, add: sigma's gradient is the sum of its two
    consumers', and the clamp passes it only inside the band, bounds
    included."""
    task, variance = as_tensor(task_loss), as_tensor(variance)
    if np.any(variance.data <= 0.0):
        raise ValueError("non-positive variance in heteroscedastic loss")
    lo, hi = SIGMA_CLAMP
    root = np.sqrt(variance.data)
    sigma = np.clip(root, lo, hi)
    inside = (root >= lo) & (root <= hi)
    sq = sigma * sigma
    quotient, log_sigma = task.data / sq, np.log(sigma)

    def vjp(g):
        g_q = autodiff._unbroadcast(g, quotient.shape)

        def g_variance():
            g_sq = autodiff._unbroadcast(-g_q * task.data / (sq * sq), sq.shape)
            g_sigma = 2.0 * g_sq * sigma + autodiff._unbroadcast(g, log_sigma.shape) / sigma
            return g_sigma * inside * 0.5 / root

        return (lambda: autodiff._unbroadcast(g_q / sq, task.data.shape), g_variance)

    return autodiff._make(quotient + log_sigma, (task, variance), vjp)


def traj_mse(pred: Tensor, gt) -> Tensor:
    """Per row, mean over the 6 waypoints of squared error from the constant
    ``gt``, as one node with the bytes of sub, square, tsum and div."""
    d = pred.data - as_tensor(gt).data
    return autodiff._make(np.sum(d * d, axis=-1) / 6.0, (pred,), lambda g: (
        lambda: 2.0 * np.expand_dims(g / 6.0, -1) * d,))


def orthogonality(basis: Tensor) -> Tensor:
    """Squared Frobenius distance of B B^T from the identity, per group of
    the (n_code, C, D) basis; shape (n_code,)."""
    gram = autodiff.matmul(basis, autodiff.transpose(basis))
    eye = np.eye(gram.data.shape[-1])
    return autodiff.tsum(autodiff.square(autodiff.sub(gram, eye)), axis=(1, 2))


def triplet_term(tokens, positives: np.ndarray, negatives: np.ndarray, anchors) -> Tensor:
    """Per row, mean hinge at ``TRIPLET_MARGIN`` over every (positive,
    negative) anchor pair.

    ``tokens`` is (N, D); ``positives``/``negatives`` are (N, k) group ids
    into the (n_code, D) ``anchors`` table. Distances are Euclidean between
    a row's token and each group's token anchor.

    One node, whose parents are the tokens and the table twice: the table's
    gradient gathered through the positives, then through the negatives,
    as two contributions, as the chain's two ``gather0`` nodes give them.
    The vjp replays that chain's backward ops (div, tsum, relu, sub, sqrt,
    tsum, square, sub) in its order; the tokens' gradient is the sum of the
    two distances'.
    """
    tok, table = as_tensor(tokens), as_tensor(anchors)
    n, dim = tok.data.shape
    t3 = tok.data.reshape(n, 1, dim)
    ids = (np.asarray(positives, dtype=np.intp), np.asarray(negatives, dtype=np.intp))
    diffs = [t3 - table.data[i] for i in ids]
    roots = [np.sqrt(np.sum(d * d, axis=2) + _NORM_EPS) for d in diffs]
    k_pos, k_neg = (i.shape[1] for i in ids)
    count = float(k_pos * k_neg)
    hinge_in = (roots[0].reshape(n, k_pos, 1) - roots[1].reshape(n, 1, k_neg)
                + TRIPLET_MARGIN)
    active = hinge_in > 0.0
    out = np.sum(np.where(active, hinge_in, 0.0), axis=(1, 2)) / count

    def vjp(g):
        @functools.cache
        def g_diffs():
            g_hinge = np.expand_dims(g / count, (1, 2)) * active
            g_roots = (autodiff._unbroadcast(g_hinge, (n, k_pos, 1)).reshape(n, k_pos),
                       autodiff._unbroadcast(-g_hinge, (n, 1, k_neg)).reshape(n, k_neg))
            return [2.0 * np.expand_dims(gr * 0.5 / r, 2) * d
                    for gr, r, d in zip(g_roots, roots, diffs)]

        def g_tokens():
            g_pos, g_neg = (autodiff._unbroadcast(gd, (n, 1, dim)) for gd in g_diffs())
            return (g_pos + g_neg).reshape(n, dim)

        return (g_tokens,
                *(lambda j=j: autodiff.scatter0(-g_diffs()[j], ids[j], table.data.shape)
                  for j in range(2)))

    return autodiff._make(out, (tok, table, table), vjp)


def loss_rec(targets, recon: Tensor, variance: Tensor, n_ego: int,
             groups: Sequence[int], scenes: Sequence[int],
             basis: Tensor) -> dict[str, Tensor]:
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
        heteroscedastic_nll(task, variance), n_ego)
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


def _gp_families(rows: SupRows, anchors) -> dict[tuple[str, str], Tensor]:
    """Per-row variance-weighted trajectory NLL, class CE and triplets."""
    return {
        ("plan_nll", "motion_nll"): heteroscedastic_nll(
            traj_mse(rows.traj, rows.target), rows.variance),
        ("class_ce_ego", "class_ce_agent"): cross_entropy(rows.ls, rows.label),
        ("triplet_ego", "triplet_agent"): triplet_term(
            rows.token, rows.positives, rows.negatives, anchors),
    }


def loss_sup(rows: SupRows, anchors) -> dict[str, Tensor]:
    """Variance-weighted GP supervision: planning/motion NLL, class CE, triplets.

    ``anchors`` is the (n_code, D) token-anchor table.
    """
    return role_terms(_gp_families(rows, anchors), rows.n_ego)


def loss_gp_teacher(rows: SupRows, teacher_ls: np.ndarray, anchors) -> dict[str, Tensor]:
    """Distillation of the base model against the GP module, no ground truth.

    ``rows`` hold the base model's outputs and the teacher's targets;
    ``teacher_ls`` (N, n_code) is the ``teacher_log_softmax`` of the
    teacher's logits. Adds the KL to the teacher's class distribution
    to ``loss_sup``'s families. ``anchors`` is the (n_code, D) token-anchor
    table.
    """
    families = _gp_families(rows, anchors)
    families["kl_ego", "kl_agent"] = kl_divergence(rows.ls, teacher_ls)
    return role_terms(families, rows.n_ego)
