"""Kernel-distance group classification and GP conditioning over the codebook.

Reconstruction and trajectory prediction share one conditioning computation:
given a token t and its group's basis B with anchor m,

    posterior mean   = anchor + k(t, B) K(B)^-1 (targets - anchor)
    function variance = k(t, t) - k(t, B) K(B)^-1 k(t, B)^T

with targets = B for reconstruction and the group's trajectories for
prediction. A learnable noise variance (one for each of the two heads) is
added on top; the function variance is identical between heads by
construction. ``GpInference`` precomputes per-group factors for frozen-model
hot paths (evaluation, teacher forward, active selection) and evaluates
token rows in one batch; the free functions are the per-token reference
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import autodiff, psdlinalg
from .autodiff import Tensor
from .codebook import Codebook, CodebookGroup, Role, admissible_groups, ego_admissible
from .core import GpPrediction, Token, Trajectory
from .psdlinalg import KernelParams

NEG_INF = -np.inf
# kernel features per GpInference.predict_rows block (2 MiB of float64): the
# size of the classifier's first weight matrix at the default model sizes
FEATURE_BLOCK = 1 << 18


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

    def kernel_params(self) -> KernelParams:
        return KernelParams(self.log_lengthscale, self.log_outputscale,
                            self.log_noise_recon)

    @property
    def noise_var_recon(self) -> float:
        return float(np.exp(2.0 * self.log_noise_recon))

    @property
    def noise_var_traj(self) -> float:
        return float(np.exp(2.0 * self.log_noise_traj))


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

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Logits of a feature vector, or of each row of a feature matrix."""
        return np.tanh(features @ self.w1.T + self.b1) @ self.w2.T + self.b2


@dataclass(frozen=True)
class ReconResult:
    recon: Token
    variance: float  # scalar posterior variance (mean of the diagonal)
    group: int


def _mask_logits(raw: np.ndarray, admissible: list[int]) -> np.ndarray:
    masked = np.full_like(raw, NEG_INF)
    masked[admissible] = raw[admissible]
    return masked


def classify(token: Token, role: Role, cb: Codebook, clf: GroupClassifier,
             p: GpParams) -> tuple[int, np.ndarray]:
    """Masked classifier logits and the argmax group (ties: lowest id)."""
    feats = psdlinalg.kernel_matrix(token.values, cb.stacked_basis(),
                                    p.kernel_params())[0]
    logits = _mask_logits(clf.forward(feats), admissible_groups(cb, role))
    return int(np.argmax(logits)), logits


def _condition(token: np.ndarray, group: CodebookGroup, p: GpParams):
    kp = p.kernel_params()
    basis = group.basis_tokens
    anchor = group.token_anchor
    k_bb = psdlinalg.kernel_matrix(basis, basis, kp)
    k_star = psdlinalg.kernel_matrix(token, basis, kp)[0]
    factor = psdlinalg.cholesky_factor(k_bb)
    fn_var = kp.outputscale ** 2 - float(
        k_star @ psdlinalg.solve_with_factor(factor, k_star)
    )
    return anchor, k_star, factor, max(fn_var, 0.0)


def reconstruct(token: Token, group: int, cb: Codebook, p: GpParams) -> ReconResult:
    """GP posterior of the token itself, conditioned on its group's basis."""
    g = cb.group(group)
    anchor, k_star, factor, fn_var = _condition(token.values, g, p)
    centered = g.basis_tokens - anchor[None, :]
    recon = anchor + k_star @ psdlinalg.solve_with_factor(factor, centered)
    return ReconResult(
        recon=Token(recon),
        variance=fn_var + p.noise_var_recon,
        group=group,
    )


def predict_trajectory(token: Token, group: int, cb: Codebook, p: GpParams,
                       class_logits: np.ndarray | None = None) -> GpPrediction:
    """GP posterior trajectory for a token under a fixed group."""
    g = cb.group(group)
    anchor, k_star, factor, fn_var = _condition(token.values, g, p)
    mean = g.traj_anchor + k_star @ psdlinalg.solve_with_factor(factor, g.traj_centered)
    var = fn_var + p.noise_var_traj
    if class_logits is None:
        class_logits = np.full(cb.n_code, NEG_INF)
        class_logits[group] = 0.0
    return GpPrediction(
        mean=Trajectory.from_flat(mean),
        variance=np.full(12, var),
        scalar_variance=var,
        group=group,
        class_logits=class_logits,
    )


def predict_scene(ego_token: Token, agent_tokens: list[Token], command,
                  cb: Codebook, clf: GroupClassifier,
                  p: GpParams) -> tuple[GpPrediction, list[GpPrediction]]:
    """Classify every token, then predict within its group. Deterministic."""
    g, logits = classify(ego_token, Role.ego(command), cb, clf, p)
    ego_pred = predict_trajectory(ego_token, g, cb, p, class_logits=logits)
    agent_preds = []
    for tok in agent_tokens:
        ga, la = classify(tok, Role.agent(), cb, clf, p)
        agent_preds.append(predict_trajectory(tok, ga, cb, p, class_logits=la))
    return ego_pred, agent_preds


class GpInference:
    """Frozen-model inference over token rows.

    ``__init__`` conditions every group once and stacks the results as
    (n_code, C, .) arrays: L^-1 of the group's Gram matrix and the solved
    trajectory targets. A call evaluates all rows with one
    kernel-feature matrix and one classifier pass, then gathers each row's
    group slice by id, with no loop over rows. The predictive variance is
    ``sf2 - ||L^-1 k*||^2``, the cached-solve form of LOVE (Pleiss et al.,
    2018).
    """

    def __init__(self, cb: Codebook, clf: GroupClassifier, p: GpParams):
        self.cb = cb
        self.clf = clf
        self.p = p
        self.kp = p.kernel_params()
        self.sf2 = self.kp.outputscale ** 2
        self.stacked = cb.stacked_basis()
        eye = np.eye(cb.group_size)
        linv, alpha_traj = [], []
        for g in cb.groups:
            factor = psdlinalg.cholesky_factor(
                psdlinalg.kernel_matrix(g.basis_tokens, g.basis_tokens, self.kp))
            linv.append(solve_triangular(factor.lower, eye, lower=True))
            alpha_traj.append(psdlinalg.solve_with_factor(factor, g.traj_centered))
        self.linv = np.stack(linv)  # (n_code, C, C)
        self.alpha_traj = np.stack(alpha_traj)  # (n_code, C, 12)
        self.traj_anchors = cb.traj_anchors()

    def kernel_features(self, tokens: np.ndarray) -> np.ndarray:
        """Kernel features (N, n_code * C) of the token rows (N, D)."""
        return psdlinalg.kernel_matrix(tokens, self.stacked, self.kp)

    def _conditioned(self, features: np.ndarray,
                     group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's k* (N, C), gathered from its kernel features by group,
        and its function variance (N,)."""
        n, c = len(group), self.cb.group_size
        k_star = features.reshape(n, -1, c)[np.arange(n), group]
        v = np.matmul(self.linv[group], k_star[:, :, None])[:, :, 0]
        return k_star, np.maximum(self.sf2 - np.sum(v * v, axis=1), 0.0)

    def predict_rows(self, tokens: np.ndarray, admissible: np.ndarray):
        """Classify every token row and predict within its group.

        ``tokens`` (N, D); ``admissible`` (N, n_code) bool. Returns the mean
        trajectories (N, 12), the scalar variances (N,) with the noise
        included, the logits (N, n_code) with -inf outside each row's mask,
        and the groups (N,): the masked argmax, ties to the lowest id.

        Rows go through in blocks of at most FEATURE_BLOCK kernel features,
        so a large call allocates no larger buffers than a training step.
        """
        rows = max(1, FEATURE_BLOCK // len(self.stacked))
        blocks = [self._predict_block(tokens[i:i + rows], admissible[i:i + rows])
                  for i in range(0, len(tokens), rows)]
        return tuple(np.concatenate(parts) for parts in zip(*blocks))

    def predict_scene(self, ego_tokens: np.ndarray, commands):
        """``predict_rows`` of each scene's ego token row (N, D) under the
        admissibility mask of its driving command."""
        return self.predict_rows(ego_tokens, ego_admissible(self.cb, commands))

    def _predict_block(self, tokens: np.ndarray, admissible: np.ndarray):
        features = self.kernel_features(tokens)
        logits = np.where(admissible, self.clf.forward(features), NEG_INF)
        group = np.argmax(logits, axis=1)
        k_star, fn_var = self._conditioned(features, group)
        mean = self.traj_anchors[group] + np.einsum(
            "nc,nck->nk", k_star, self.alpha_traj[group])
        return mean, fn_var + self.p.noise_var_traj, logits, group


class GpGraph:
    """Differentiable per-step view of the module for training tapes.

    Holds the parameter tensors plus per-step caches: the stacked basis
    concatenation and, lazily, each group's kernel matrix and conditioning
    solves. Build one per optimizer step.
    """

    def __init__(self, cb: Codebook, basis_vars: list[Tensor], clf_vars: dict,
                 log_ell: Tensor, log_sf: Tensor, log_noise_recon: Tensor,
                 log_noise_traj: Tensor):
        self.cb = cb
        self.basis_vars = basis_vars
        self.clf = clf_vars  # keys: w1, b1, w2, b2
        self.log_ell = log_ell
        self.log_sf = log_sf
        self.log_noise_recon = log_noise_recon
        self.log_noise_traj = log_noise_traj
        self.sf2 = autodiff.exp(autodiff.mul(log_sf, 2.0))
        self.inv2l2 = autodiff.mul(autodiff.exp(autodiff.mul(log_ell, -2.0)), 0.5)
        self._stacked: Tensor | None = None
        self._stacked_sq: Tensor | None = None
        self._cond: dict[int, dict] = {}
        self._anchors: Tensor | None = None

    def stacked_basis(self) -> Tensor:
        if self._stacked is None:
            self._stacked = autodiff.concat(self.basis_vars, axis=0)
            self._stacked_sq = autodiff.tsum(autodiff.square(self._stacked), axis=1)
        return self._stacked

    def _rbf_vector(self, token: Tensor, basis: Tensor, basis_sq: Tensor) -> Tensor:
        cross = autodiff.matmul(basis, token)
        t2 = autodiff.tsum(autodiff.square(token))
        d2 = autodiff.relu(autodiff.add(autodiff.sub(basis_sq,
                                                     autodiff.mul(cross, 2.0)), t2))
        return autodiff.mul(self.sf2,
                            autodiff.exp(autodiff.mul(autodiff.mul(d2, self.inv2l2),
                                                      -1.0)))

    def kernel_features(self, token: Tensor) -> Tensor:
        stacked = self.stacked_basis()
        return self._rbf_vector(token, stacked, self._stacked_sq)

    def classifier_logits(self, features: Tensor) -> Tensor:
        h = autodiff.tanh(autodiff.add(autodiff.matmul(self.clf["w1"], features),
                                       self.clf["b1"]))
        return autodiff.add(autodiff.matmul(self.clf["w2"], h), self.clf["b2"])

    def group_cond(self, gid: int) -> dict:
        """Per-group conditioning tensors, cached for the step."""
        if gid not in self._cond:
            g = self.cb.group(gid)
            basis = self.basis_vars[gid]
            anchor = autodiff.tmean(basis, axis=0)
            centered = autodiff.sub(basis, autodiff.reshape(anchor, (1, -1)))
            k_bb = psdlinalg.kernel_matrix_t(basis, basis, self.log_ell, self.log_sf)
            self._cond[gid] = dict(
                basis=basis,
                basis_sq=autodiff.tsum(autodiff.square(basis), axis=1),
                anchor=anchor,
                k_bb=k_bb,
                alpha_basis=autodiff.solve_psd(k_bb, centered),
                alpha_traj=autodiff.solve_psd(k_bb, Tensor(g.traj_centered)),
                traj_anchor=Tensor(g.traj_anchor),
            )
        return self._cond[gid]

    def _fn_var(self, cond: dict, k_star: Tensor) -> Tensor:
        quad = autodiff.matmul(k_star, autodiff.solve_psd(cond["k_bb"], k_star))
        return autodiff.relu(autodiff.sub(self.sf2, quad))

    def k_star(self, token: Tensor, gid: int) -> Tensor:
        cond = self.group_cond(gid)
        return self._rbf_vector(token, cond["basis"], cond["basis_sq"])

    def reconstruct(self, token: Tensor, gid: int) -> tuple[Tensor, Tensor]:
        """Posterior mean of the token and scalar variance (noise included)."""
        cond = self.group_cond(gid)
        k_star = self.k_star(token, gid)
        recon = autodiff.add(cond["anchor"],
                             autodiff.matmul(k_star, cond["alpha_basis"]))
        noise = autodiff.exp(autodiff.mul(self.log_noise_recon, 2.0))
        return recon, autodiff.add(self._fn_var(cond, k_star), noise)

    def predict_trajectory(self, token: Tensor, gid: int) -> tuple[Tensor, Tensor]:
        """Posterior trajectory mean (12,) and scalar variance."""
        cond = self.group_cond(gid)
        k_star = self.k_star(token, gid)
        mean = autodiff.add(cond["traj_anchor"],
                            autodiff.matmul(k_star, cond["alpha_traj"]))
        noise = autodiff.exp(autodiff.mul(self.log_noise_traj, 2.0))
        return mean, autodiff.add(self._fn_var(cond, k_star), noise)

    def token_anchors(self) -> Tensor:
        """Every group's token anchor (mean basis token) as an (n_code, D) tensor."""
        if self._anchors is None:
            cb = self.cb
            per_group = autodiff.reshape(
                self.stacked_basis(), (cb.n_code, cb.group_size, cb.token_dim))
            self._anchors = autodiff.tmean(per_group, axis=1)
        return self._anchors
