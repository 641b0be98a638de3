"""Kernel-distance group classification and GP conditioning over the codebook.

Reconstruction and trajectory prediction share one conditioning computation:
given a token t and its group's basis B with anchor m,

    posterior mean    = anchor + k(t, B) K(B)^-1 (targets - anchor)
    function variance = k(t, t) - k(t, B) K(B)^-1 k(t, B)^T

with targets = B for reconstruction and the group's trajectories for
prediction. A learnable noise variance (one for each of the two heads) is
added on top; the function variance is identical between heads by
construction.

``GpGraph`` is the one implementation. It conditions every group once per
graph as (n_code, C, .) tensors, then evaluates token rows with one
kernel-feature matrix and one classifier pass, gathering each row's group
slice by id. Training builds one graph per optimizer step over the parameter
tensors. ``GpInference`` is the same graph over a frozen model's constants,
run under ``no_grad`` for evaluation, the teacher forward and active
selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff, psdlinalg
from .autodiff import Tensor
from .codebook import Codebook, ego_admissible

# kernel features per GpInference.predict_rows block (2 MiB of float64): the
# size of the classifier's first weight matrix at the default model sizes
FEATURE_BLOCK = 1 << 18
CLASSIFIER_NAMES = ("w1", "b1", "w2", "b2")
GP_SCALAR_NAMES = ("log_lengthscale", "log_outputscale", "log_noise_recon",
                   "log_noise_traj")


@dataclass
class GpParams:
    """Learnable GP hyperparameters, all in log space.

    One isotropic RBF lengthscale/outputscale per codebook; two independent
    noise standard deviations, one for token reconstruction and one for
    trajectory prediction.
    """

    log_lengthscale: float = 0.0
    log_outputscale: float = 0.0
    log_noise_recon: float = float(np.log(1e-2))
    log_noise_traj: float = float(np.log(1e-2))


@dataclass
class GroupClassifier:
    """Two-layer tanh perceptron over the full kernel-feature vector."""

    w1: np.ndarray  # (hidden, n_code * C)
    b1: np.ndarray
    w2: np.ndarray  # (n_code, hidden)
    b2: np.ndarray

    @classmethod
    def init(cls, n_code: int, group_size: int, hidden: int,
             rng: np.random.Generator) -> "GroupClassifier":
        n_in = n_code * group_size
        return cls(
            w1=rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(hidden, n_in)),
            b1=np.zeros(hidden),
            w2=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(n_code, hidden)),
            b2=np.zeros(n_code),
        )


class GpGraph:
    """The GP module over token rows, as tape tensors.

    Holds the parameter tensors and, once computed, the stacked basis and
    every group's conditioning. Training builds one per optimizer step.
    """

    def __init__(self, cb: Codebook, basis_vars: list[Tensor], clf_vars: dict,
                 log_ell: Tensor, log_sf: Tensor, log_noise_recon: Tensor,
                 log_noise_traj: Tensor):
        self.cb = cb
        self.basis_vars = basis_vars
        self.clf = clf_vars  # keys: CLASSIFIER_NAMES
        self.log_ell = log_ell
        self.log_sf = log_sf
        self.sf2 = autodiff.exp(autodiff.mul(log_sf, 2.0))
        self.noise_recon = autodiff.exp(autodiff.mul(log_noise_recon, 2.0))
        self.noise_traj = autodiff.exp(autodiff.mul(log_noise_traj, 2.0))
        self._stacked: Tensor | None = None
        self._cond: dict | None = None

    def stacked_basis(self) -> Tensor:
        """Every group's basis tokens as one (n_code * C, D) matrix."""
        if self._stacked is None:
            self._stacked = autodiff.concat(self.basis_vars, axis=0)
        return self._stacked

    def group_cond(self) -> dict:
        """Every group conditioned on its basis, computed once per graph.

        ``k_inv`` (n_code, C, C) is the inverse Gram matrix of each group's
        basis; ``token_anchors`` (n_code, D) the mean basis tokens and
        ``traj_anchors`` (n_code, 12) the mean trajectories; ``alpha_basis``
        (n_code, C, D) and ``alpha_traj`` (n_code, C, 12) are ``k_inv`` times
        the centred basis and the centred trajectories.
        """
        if self._cond is None:
            cb = self.cb
            basis = autodiff.reshape(self.stacked_basis(),
                                     (cb.n_code, cb.group_size, cb.token_dim))
            anchors = autodiff.tmean(basis, axis=1)
            centered = autodiff.sub(basis, autodiff.reshape(
                anchors, (cb.n_code, 1, cb.token_dim)))
            k_inv = autodiff.psd_inverse(psdlinalg.kernel_matrix_t(
                basis, basis, self.log_ell, self.log_sf))
            self._cond = dict(
                k_inv=k_inv,
                token_anchors=anchors,
                traj_anchors=Tensor(cb.traj_anchors()),
                alpha_basis=autodiff.matmul(k_inv, centered),
                alpha_traj=autodiff.matmul(
                    k_inv, Tensor(np.stack([g.traj_centered for g in cb.groups]))),
            )
        return self._cond

    def kernel_features(self, tokens) -> Tensor:
        """Kernel features (N, n_code * C) of the token rows (N, D)."""
        return psdlinalg.kernel_matrix_t(tokens, self.stacked_basis(), self.log_ell,
                                         self.log_sf)

    def classifier_logits(self, features: Tensor) -> Tensor:
        """Unmasked group logits (N, n_code) of the feature rows."""
        h = autodiff.tanh(autodiff.add(
            autodiff.matmul(features, autodiff.transpose(self.clf["w1"])),
            self.clf["b1"]))
        return autodiff.add(autodiff.matmul(h, autodiff.transpose(self.clf["w2"])),
                            self.clf["b2"])

    def _conditioned(self, features: Tensor, group: np.ndarray, anchors: Tensor,
                     alpha: Tensor) -> tuple[Tensor, Tensor]:
        """Each row's posterior mean anchor + k* alpha and function variance
        sf2 - k*^T K^-1 k* under its group; k* (C,) is the row's slice of
        its kernel features for that group."""
        cb = self.cb
        n = len(group)
        k_star = autodiff.gather0(
            autodiff.reshape(features, (n * cb.n_code, 1, cb.group_size)),
            np.arange(n) * cb.n_code + group)  # (N, 1, C)
        quad = autodiff.tsum(autodiff.mul(
            autodiff.matmul(k_star, autodiff.gather0(self.group_cond()["k_inv"], group)),
            k_star), axis=(1, 2))
        offset = autodiff.matmul(k_star, autodiff.gather0(alpha, group))
        mean = autodiff.add(autodiff.gather0(anchors, group),
                            autodiff.reshape(offset, (n, -1)))
        return mean, autodiff.relu(autodiff.sub(self.sf2, quad))

    def reconstruct(self, features: Tensor, group: np.ndarray) -> tuple[Tensor, Tensor]:
        """Posterior mean (N, D) of each token row under its group (N,), from
        the rows' kernel features, and its scalar variance (N,), noise
        included."""
        cond = self.group_cond()
        mean, fn_var = self._conditioned(features, group, cond["token_anchors"],
                                         cond["alpha_basis"])
        return mean, autodiff.add(fn_var, self.noise_recon)

    def predict_trajectory(self, features: Tensor,
                           group: np.ndarray) -> tuple[Tensor, Tensor]:
        """Posterior trajectory mean (N, 12) of each token row under its group
        (N,), from the rows' kernel features, and its scalar variance (N,),
        noise included."""
        cond = self.group_cond()
        mean, fn_var = self._conditioned(features, group, cond["traj_anchors"],
                                         cond["alpha_traj"])
        return mean, autodiff.add(fn_var, self.noise_traj)


class GpInference(GpGraph):
    """The GP module of a frozen model: a ``GpGraph`` over constant tensors,
    conditioned at construction and run under ``no_grad``."""

    def __init__(self, cb: Codebook, clf: GroupClassifier, p: GpParams):
        with autodiff.no_grad():
            super().__init__(
                cb, [Tensor(g.basis_tokens) for g in cb.groups],
                {n: Tensor(getattr(clf, n)) for n in CLASSIFIER_NAMES},
                *(Tensor(getattr(p, n)) for n in GP_SCALAR_NAMES))
            self.group_cond()

    def predict_rows(self, tokens: np.ndarray, admissible: np.ndarray):
        """Classify every token row and predict within its group.

        ``tokens`` (N, D); ``admissible`` (N, n_code) bool. Returns the mean
        trajectories (N, 12), the scalar variances (N,) with the noise
        included, the logits (N, n_code) with -inf outside each row's mask,
        and the groups (N,): the masked argmax, ties to the lowest id.

        Rows go through in blocks of at most FEATURE_BLOCK kernel features,
        so a large call allocates no larger buffers than a training step.
        """
        rows = max(1, FEATURE_BLOCK // (self.cb.n_code * self.cb.group_size))
        with autodiff.no_grad():
            blocks = [self._predict_block(tokens[i:i + rows], admissible[i:i + rows])
                      for i in range(0, len(tokens), rows)]
        return tuple(np.concatenate(parts) for parts in zip(*blocks))

    def predict_scene(self, ego_tokens: np.ndarray, commands):
        """``predict_rows`` of each scene's ego token row (N, D) under the
        admissibility mask of its driving command."""
        return self.predict_rows(ego_tokens, ego_admissible(self.cb, commands))

    def _predict_block(self, tokens: np.ndarray, admissible: np.ndarray):
        features = self.kernel_features(tokens)
        logits = np.where(admissible, self.classifier_logits(features).data, -np.inf)
        group = np.argmax(logits, axis=1)
        mean, variance = self.predict_trajectory(features, group)
        return mean.data, variance.data, logits, group
