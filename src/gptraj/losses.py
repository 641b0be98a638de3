"""Training objectives: reconstruction, GP supervision, and teacher regularization.

All losses are built as autodiff expressions; targets (original tokens,
ground truth, teacher outputs) must be passed as constants so no gradient
flows into them. The variance-weighted form is the standard heteroscedastic
Gaussian NLL, task_loss / sigma^2 + log(sigma), with sigma clamped to a
configurable band so the total stays bounded below.

Every term is computed row-wise over one optimizer step's rows: the ego
rows of the batch's scenes first, then their agent rows, each block in
ascending scene order. A row's admissible groups come as a boolean
(N, n_code) mask. A role's term is the sum of its rows, so a step's
breakdown is the sum of its scenes' breakdowns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import autodiff
from .autodiff import Tensor, as_tensor
from .codebook import Codebook, traj_dists

TERM_NAMES = (
    "recon_ego", "recon_agent", "ortho_ego", "ortho_agent",
    "plan_nll", "motion_nll", "class_ce_ego", "class_ce_agent",
    "triplet_ego", "triplet_agent", "kl_ego", "kl_agent",
)

DEFAULT_SIGMA_CLAMP = (1e-3, 1e3)
DEFAULT_TRIPLET_MARGIN = 1.0
_NORM_EPS = 1e-12


@dataclass
class LossBreakdown:
    """Named loss terms plus the weights that combine them."""

    terms: dict[str, Tensor]
    weights: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> Tensor:
        out = Tensor(0.0)
        for name, t in self.terms.items():
            out = autodiff.add(out, autodiff.mul(t, self.weights.get(name, 1.0)))
        return out

    def value(self, name: str) -> float:
        return self.terms[name].item()

    def values(self) -> dict[str, float]:
        return {k: t.item() for k, t in self.terms.items()}

    def total_value(self) -> float:
        return self.total.item()

    def first_nonfinite(self) -> str | None:
        for name, t in self.terms.items():
            if not np.all(np.isfinite(t.data)):
                return name
        return None

    def merged(self, other: "LossBreakdown") -> "LossBreakdown":
        terms = dict(self.terms)
        for k, t in other.terms.items():
            terms[k] = autodiff.add(terms[k], t) if k in terms else t
        weights = dict(self.weights)
        weights.update(other.weights)
        return LossBreakdown(terms, weights)


def role_sums(per_row: Tensor, n_ego: int) -> tuple[Tensor, Tensor]:
    """Sum of the ego rows (the first ``n_ego``) and sum of the agent rows."""
    n = per_row.data.shape[0]
    return (autodiff.tsum(autodiff.narrow(per_row, 0, n_ego)),
            autodiff.tsum(autodiff.narrow(per_row, n_ego, n)))


def _masked_log_softmax(logits: Tensor, admissible: np.ndarray) -> Tensor:
    """Row-wise log-softmax over each row's admissible entries, 0 elsewhere."""
    mask = admissible.astype(np.float64)
    m = np.max(np.where(admissible, logits.data, -np.inf), axis=-1, keepdims=True)
    shifted = autodiff.mul(autodiff.sub(logits, m), mask)
    lse = autodiff.log(autodiff.tsum(autodiff.mul(autodiff.exp(shifted), mask),
                                     axis=-1, keepdims=True))
    return autodiff.mul(autodiff.sub(shifted, lse), mask)


def cross_entropy(logits: Tensor, admissible: np.ndarray, labels) -> Tensor:
    """Per row, -log softmax probability of the label among the admissible groups."""
    labels = np.asarray(labels, dtype=np.intp)
    rows = np.arange(len(labels))
    if not np.all(admissible[rows, labels]):
        raise ValueError("label outside the admissible set")
    onehot = np.zeros(admissible.shape)
    onehot[rows, labels] = 1.0
    ls = _masked_log_softmax(logits, admissible)
    return autodiff.mul(autodiff.tsum(autodiff.mul(ls, onehot), axis=1), -1.0)


def kl_divergence(student_logits: Tensor, teacher_logits: np.ndarray,
                  admissible: np.ndarray) -> Tensor:
    """Per row, KL(softmax(student) || softmax(teacher)) over the admissible set.

    Teacher logits are constants; entries outside the set are ignored.
    """
    ls_s = _masked_log_softmax(student_logits, admissible)
    teacher = Tensor(np.where(admissible, teacher_logits, 0.0))
    ls_t = _masked_log_softmax(teacher, admissible).data
    p_s = autodiff.mul(autodiff.exp(ls_s), admissible.astype(np.float64))
    return autodiff.tsum(autodiff.mul(p_s, autodiff.sub(ls_s, ls_t)), axis=1)


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
    """Per row, mean over the 6 waypoints of squared point error."""
    d = autodiff.sub(pred, as_tensor(gt).detach())
    return autodiff.div(autodiff.tsum(autodiff.square(d), axis=-1), 6.0)


def sum_sq(x: Tensor) -> Tensor:
    return autodiff.tsum(autodiff.square(x))


def orthogonality(basis: Tensor) -> Tensor:
    """Squared Frobenius distance of B B^T from the identity."""
    gram = autodiff.matmul(basis, autodiff.transpose(basis))
    eye = np.eye(gram.data.shape[0])
    return sum_sq(autodiff.sub(gram, eye))


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


def select_triplet_classes(cb: Codebook, label_group: int) -> tuple[list[int], list[int]]:
    """Positive/negative class ids for the triplet terms.

    Ego: positives are the 3 same-command groups with the nearest trajectory
    anchors (excluding the label); negatives the 3 nearest groups of other
    commands. Agent: 3 nearest / 3 farthest agent groups. Distance ties go
    to the lower group id.
    """
    g = cb.group(label_group)
    anchors = cb.traj_anchors()

    def by_dist(ids):
        ids = np.asarray(ids, dtype=np.intp)
        d = traj_dists(anchors[ids], g.traj_anchor)
        return [int(i) for i in ids[np.lexsort((ids, d))]]

    if g.role.kind == "ego":
        same = [i for i in cb.command_groups[g.role.command] if i != label_group]
        other = [i for cmd, ids in cb.command_groups.items()
                 if cmd != g.role.command for i in ids]
        pos_pool, neg_pool = by_dist(same), by_dist(other)
        if len(pos_pool) < 3 or len(neg_pool) < 3:
            raise ValueError("not enough groups for triplet selection")
        return pos_pool[:3], neg_pool[:3]

    others = [i for i in cb.agent_group_ids if i != label_group]
    ranked = by_dist(others)
    if len(ranked) < 6:
        raise ValueError("not enough agent groups for triplet selection")
    return ranked[:3], ranked[-3:]


def triplet_table(cb: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """``select_triplet_classes`` of every group as two (n_code, 3) id arrays.

    Row g holds label g's positives and negatives. Overlapping sets are
    rejected here, once per table.
    """
    pairs = [select_triplet_classes(cb, g) for g in range(cb.n_code)]
    for label, (pos, neg) in enumerate(pairs):
        overlap = set(pos) & set(neg)
        if overlap:
            raise ValueError(
                f"label {label}: overlapping positive/negative sets: {sorted(overlap)}")
    return (np.array([p for p, _ in pairs], dtype=np.intp),
            np.array([n for _, n in pairs], dtype=np.intp))


def loss_rec(targets, recon: Tensor, variance: Tensor, n_ego: int,
             groups: Sequence[int], scenes: Sequence[int], bases,
             weights: Mapping[str, float] | None = None,
             sigma_clamp: tuple[float, float] = DEFAULT_SIGMA_CLAMP) -> LossBreakdown:
    """Token reconstruction NLL plus basis orthogonality over a step's rows.

    ``targets`` (N, D) are the fixed tokens and must be constants; ``recon``
    and ``variance`` are the GP reconstructions (N, D) and variances (N,).
    Row i was conditioned on group ``groups[i]`` and belongs to scene
    ``scenes[i]``; ``bases[g]`` is group g's basis tensor. Orthogonality is
    applied once per distinct basis involved in a scene: once for its ego
    group and once for each other group among its agents.
    """
    task = autodiff.tsum(
        autodiff.square(autodiff.sub(recon, as_tensor(targets).detach())), axis=1)
    recon_ego, recon_agent = role_sums(
        heteroscedastic_nll(task, variance, sigma_clamp), n_ego)
    groups = [int(g) for g in groups]
    scenes = [int(s) for s in scenes]
    ego_of = dict(zip(scenes[:n_ego], groups[:n_ego]))
    ego_count = Counter(groups[:n_ego])
    agent_count = Counter(g for s, g in set(zip(scenes[n_ego:], groups[n_ego:]))
                          if g != ego_of.get(s))

    def ortho_sum(counts: Counter) -> Tensor:
        out = Tensor(0.0)
        for g in sorted(counts):
            out = autodiff.add(out, autodiff.mul(orthogonality(bases[g]),
                                                  float(counts[g])))
        return out

    return LossBreakdown(
        terms={
            "recon_ego": recon_ego,
            "recon_agent": recon_agent,
            "ortho_ego": ortho_sum(ego_count),
            "ortho_agent": ortho_sum(agent_count),
        },
        weights=dict(weights or {}),
    )


@dataclass
class SupRows:
    """A step's GP outputs plus supervision targets for loss_sup, one per row."""

    n_ego: int  # the first n_ego rows are ego rows
    pred_mean: Tensor  # (N, 12)
    variance: Tensor  # (N,)
    logits: Tensor  # (N, n_code) classifier logits, unmasked
    admissible: np.ndarray  # (N, n_code) bool
    gt: np.ndarray  # (N, 12)
    label: np.ndarray  # (N,)
    token: Tensor | np.ndarray  # (N, D)
    positives: np.ndarray  # (N, 3)
    negatives: np.ndarray  # (N, 3)


def loss_sup(rows: SupRows, anchors, weights: Mapping[str, float] | None = None,
             sigma_clamp: tuple[float, float] = DEFAULT_SIGMA_CLAMP,
             margin: float = DEFAULT_TRIPLET_MARGIN) -> LossBreakdown:
    """Variance-weighted GP supervision: planning/motion NLL, class CE, triplets.

    ``anchors`` is the (n_code, D) token-anchor table.
    """
    nll = heteroscedastic_nll(traj_mse(rows.pred_mean, rows.gt), rows.variance,
                              sigma_clamp)
    ce = cross_entropy(rows.logits, rows.admissible, rows.label)
    trip = triplet_term(rows.token, rows.positives, rows.negatives, anchors, margin)
    plan, motion = role_sums(nll, rows.n_ego)
    ce_ego, ce_agent = role_sums(ce, rows.n_ego)
    trip_ego, trip_agent = role_sums(trip, rows.n_ego)
    terms = {
        "plan_nll": plan, "class_ce_ego": ce_ego, "triplet_ego": trip_ego,
        "motion_nll": motion, "class_ce_agent": ce_agent,
        "triplet_agent": trip_agent,
    }
    return LossBreakdown(terms=terms, weights=dict(weights or {}))


@dataclass
class StudentRows:
    """Base-model outputs entering the teacher-regularized loss, one per row."""

    n_ego: int  # the first n_ego rows are ego rows
    traj: Tensor  # (N, 12)
    logits: Tensor  # (N, n_code), unmasked
    admissible: np.ndarray  # (N, n_code) bool
    token: Tensor  # (N, D)


@dataclass
class TeacherRows:
    """Frozen GP-module outputs acting as targets (constants), one per row."""

    mean: np.ndarray  # (N, 12)
    variance: np.ndarray  # (N,)
    logits: np.ndarray  # (N, n_code), -inf outside the admissible set
    label: np.ndarray  # (N,) argmax of the logits
    positives: np.ndarray  # (N, 3)
    negatives: np.ndarray  # (N, 3)

    @property
    def admissible(self) -> np.ndarray:
        return np.isfinite(self.logits)


def loss_gp_teacher(student: StudentRows, teacher: TeacherRows, anchors,
                    weights: Mapping[str, float] | None = None,
                    sigma_clamp: tuple[float, float] = DEFAULT_SIGMA_CLAMP,
                    margin: float = DEFAULT_TRIPLET_MARGIN) -> LossBreakdown:
    """Distillation of the base model against the GP module, no ground truth.

    ``anchors`` is the (n_code, D) token-anchor table.
    """
    if not np.array_equal(student.admissible, teacher.admissible):
        raise ValueError("admissible-set mismatch between student and teacher")
    nll = heteroscedastic_nll(traj_mse(student.traj, teacher.mean),
                              teacher.variance, sigma_clamp)
    ce = cross_entropy(student.logits, student.admissible, teacher.label)
    trip = triplet_term(student.token, teacher.positives, teacher.negatives,
                        anchors, margin)
    kl = kl_divergence(student.logits, teacher.logits, student.admissible)
    n_ego = student.n_ego
    plan, motion = role_sums(nll, n_ego)
    ce_ego, ce_agent = role_sums(ce, n_ego)
    trip_ego, trip_agent = role_sums(trip, n_ego)
    kl_ego, kl_agent = role_sums(kl, n_ego)
    terms = {
        "plan_nll": plan, "class_ce_ego": ce_ego, "triplet_ego": trip_ego,
        "kl_ego": kl_ego, "motion_nll": motion, "class_ce_agent": ce_agent,
        "triplet_agent": trip_agent, "kl_agent": kl_agent,
    }
    return LossBreakdown(terms=terms, weights=dict(weights or {}))
