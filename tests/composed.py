"""Composed reference chains: the chains of primitive tape nodes that the
library's one-node forms replace (the two-layer network, the encoder, the
planner and the GP classifier, the masked log-softmax consumers, the step
total, the role sums, the trajectory MSE, the heteroscedastic NLL and the
triplet hinge), and the primitives that only these chains use (``linear``,
``div``, ``log``, ``sqrt``, ``clamp``). A one-node form's test runs both
forms under one upstream gradient and compares the bytes of values and
gradients.
"""

from __future__ import annotations

import numpy as np

from gptraj import autodiff, basemodel, losses
from gptraj.autodiff import Tensor, _make, _unbroadcast, as_tensor
from gptraj.basemodel import RESIDUAL_BOUND

# --- primitives only the chains use ------------------------------------------


def linear(x, w, b) -> Tensor:
    """``x @ wᵀ + b``: the rows of ``x`` (N, fan_in) through a weight matrix
    ``w`` (fan_out, fan_in) and a bias ``b`` (fan_out,), as one node. The
    weight's gradient gᵀ x comes out in the weight's own layout."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    out = x.data @ w.data.T
    out += b.data
    return _make(out, (x, w, b), lambda g: (lambda: g @ w.data,
                                            lambda: g.T @ x.data,
                                            lambda: _unbroadcast(g, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return _make(out, (a, b), lambda g: (
        lambda: _unbroadcast(g / b.data, a.data.shape),
        lambda: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (lambda: g / a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (lambda: g * 0.5 / out,))


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return _make(out, (a,), lambda g: (lambda: g * mask,))


# --- the base model ----------------------------------------------------------


def composed_mlp(x, w1, b1, w2, b2) -> Tensor:
    return linear(autodiff.tanh(linear(x, w1, b1)), w2, b2)


def composed_encoder(obs, w: dict):
    """The encoder as its chain of primitive nodes."""
    h = autodiff.tanh(linear(obs, w["base.enc_w1"], w["base.enc_b1"]))
    raw = linear(h, w["base.enc_w2"], w["base.enc_b2"])
    norm = sqrt(autodiff.add(
        autodiff.tsum(autodiff.square(raw), axis=1, keepdims=True), basemodel._NORM_EPS))
    return autodiff.mul(div(raw, norm), basemodel.TOKEN_SCALE)


def composed_planner(tokens, w: dict, n_code: int):
    """The planner as its chain of primitive nodes."""
    h = autodiff.tanh(linear(tokens, w["base.pln_w1"], w["base.pln_b1"]))
    out = linear(h, w["base.pln_w2"], w["base.pln_b2"])
    return (autodiff.narrow(out, 0, n_code, axis=1), autodiff.mul(
        autodiff.tanh(autodiff.narrow(out, n_code, n_code + 12, axis=1)), RESIDUAL_BOUND))


def composed_classifier(graph, features):
    """``GpGraph.classifier_logits`` as its chain of primitive nodes."""
    w = graph.w
    return composed_mlp(features, w["clf.w1"], w["clf.b1"], w["clf.w2"], w["clf.b2"])


# --- the losses --------------------------------------------------------------


def composed_log_softmax(logits, admissible):
    mask = admissible.astype(np.float64)
    m = np.max(np.where(admissible, logits.data, -np.inf), axis=-1, keepdims=True)
    shifted = autodiff.mul(autodiff.sub(logits, m), mask)
    lse = log(autodiff.tsum(autodiff.mul(autodiff.exp(shifted), mask),
                            axis=-1, keepdims=True))
    return autodiff.mul(autodiff.sub(shifted, lse), mask)


def composed_ce(logits, admissible, labels):
    onehot = np.zeros(admissible.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    ls = composed_log_softmax(logits, admissible)
    return autodiff.mul(autodiff.tsum(autodiff.mul(ls, onehot), axis=1), -1.0)


def composed_kl(logits, teacher_logits, admissible):
    ls_s = composed_log_softmax(logits, admissible)
    ls_t = composed_log_softmax(Tensor(np.where(admissible, teacher_logits, 0.0)),
                                admissible).data
    p_s = autodiff.mul(autodiff.exp(ls_s), admissible.astype(np.float64))
    return autodiff.tsum(autodiff.mul(p_s, autodiff.sub(ls_s, ls_t)), axis=1)


def composed_total(terms, weights, n, gp_weight, taught):
    out = Tensor(0.0)
    for name, t in terms.items():
        t = autodiff.mul(t, gp_weight) if name in taught else t
        out = autodiff.add(out, autodiff.mul(t, weights.get(name, 1.0)))
    return autodiff.mul(out, 1.0 / n)


def composed_role_sums(per_row, n_ego: int):
    n = per_row.data.shape[0]
    return (autodiff.tsum(autodiff.narrow(per_row, 0, n_ego)),
            autodiff.tsum(autodiff.narrow(per_row, n_ego, n)))


def composed_traj_mse(pred, gt):
    d = autodiff.sub(pred, gt)
    return div(autodiff.tsum(autodiff.square(d), axis=-1), 6.0)


def composed_nll(task_loss, variance):
    variance = as_tensor(variance)
    if np.any(variance.data <= 0.0):
        raise ValueError("non-positive variance in heteroscedastic loss")
    sigma = clamp(sqrt(variance), *losses.SIGMA_CLAMP)
    return autodiff.add(div(task_loss, autodiff.square(sigma)), log(sigma))


def composed_triplet(tokens, positives, negatives, anchors):
    tok = as_tensor(tokens)
    table = as_tensor(anchors)
    n, dim = tok.data.shape
    t3 = autodiff.reshape(tok, (n, 1, dim))

    def dist(ids):
        d = autodiff.sub(t3, autodiff.gather0(table, ids))
        return sqrt(autodiff.add(autodiff.tsum(autodiff.square(d), axis=2),
                                 losses._NORM_EPS))

    d_pos, d_neg = dist(positives), dist(negatives)
    k_pos, k_neg = d_pos.data.shape[1], d_neg.data.shape[1]
    gap = autodiff.sub(autodiff.reshape(d_pos, (n, k_pos, 1)),
                       autodiff.reshape(d_neg, (n, 1, k_neg)))
    hinge = autodiff.relu(autodiff.add(gap, losses.TRIPLET_MARGIN))
    return div(autodiff.tsum(hinge, axis=(1, 2)), float(k_pos * k_neg))
