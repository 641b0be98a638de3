"""Kernel-distance group classification and GP conditioning over the codebook.

Reconstruction and trajectory prediction share one conditioning computation:
given a token t and its group's basis B with anchor m,

    posterior mean    = anchor + k(t, B) K(B)^-1 (targets - anchor)
    function variance = k(t, t) - k(t, B) K(B)^-1 k(t, B)^T

with targets = B for reconstruction and the group's trajectories for
prediction. A learnable noise variance (one for each of the two heads) is
added on top; the function variance is identical between heads by
construction.

``GpGraph`` is the one implementation. It reads the GP side of a model by
checkpoint name from its tensor dict: the basis ``cb.basis``, the
two-layer tanh classifier ``clf.w1`` ... ``clf.b2`` over the full
kernel-feature vector, and the log-space scalars ``gp.log_lengthscale``,
``gp.log_outputscale``, ``gp.log_noise_recon`` and ``gp.log_noise_traj`` (one
isotropic RBF per codebook, one noise standard deviation per head). It
evaluates token rows with one kernel-feature matrix and one classifier pass,
and conditions only the groups that rows are routed to: each call conditions
its distinct groups, and the graph keeps that conditioning while later calls
route to the same groups. Training builds one graph per optimizer step, over
a dict whose trained entries are parameter tensors, so a step's two heads
share one conditioning. ``GpInference`` is the same graph over a frozen
model's arrays, which every autodiff op wraps as constants, so evaluation,
the teacher forward and active selection build no tape; each of them builds
its own and makes one ``predict_rows`` call.

Inference is blocked matrix products that release the interpreter lock, so
``GpInference.predict_rows`` classifies a call of more than one block on
every CPU the process may use: the calling thread and persistent worker
threads each take whole blocks, and the caller then conditions and predicts
all rows at once. Every block has R // 2 to R rows, R = ``BLOCK_ROWS``
(146) at every model size: a call of fewer than R // 2 rows is zero-padded
to R // 2 rows, whose pad rows are dropped before any conditioning, and a
call of at most R rows is one block, which runs in the caller and starts no
thread. A call of n > R rows is cut into p = 2 * ceil(n / 2R) near-equal
blocks, by n alone: an even count, so two lanes get equal shares. Each block
is the same single-threaded BLAS calls in any thread, so the bytes do not
depend on the CPU count. Whether a row's bytes depend on the block it is in
is up to the BLAS: at the default sizes on the tested OpenBLAS, blocks of 10
rows or fewer rounded differently from the same rows in a larger block and
blocks of 11 rows or more did not, so there a row's bytes do not depend on
the call it is in. Nothing guarantees it for another BLAS or other sizes.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cached_property

import numpy as np

from . import autodiff, psdlinalg
from .autodiff import Tensor
from .codebook import Codebook, admissible

# rows per GpInference.predict_rows block: 2 MiB of float64 kernel features
# at the default model sizes (112 groups of 16 basis tokens)
BLOCK_ROWS = 146


class GpGraph:
    """The GP module over token rows, as tape tensors.

    Holds the model's codebook ``cb``, whose fixed tables it reads, the
    model's tensor dict ``w`` (arrays or tensors, by checkpoint name), the
    basis as (n_code, C, D) and as (n_code * C, D) rows, and, once computed,
    its token anchors and its conditioning. Training builds one per step.
    """

    def __init__(self, cb: Codebook, w: dict):
        self.cb = cb
        self.w = w
        self.basis = autodiff.as_tensor(w["cb.basis"])  # (n_code, C, D)
        self.log_ell = autodiff.as_tensor(w["gp.log_lengthscale"])
        self.log_sf = autodiff.as_tensor(w["gp.log_outputscale"])
        self.flat_basis = autodiff.reshape(self.basis, (cb.n_code * cb.group_size, -1))
        self.sf2 = autodiff.exp(autodiff.mul(self.log_sf, 2.0))
        self.noise_recon = autodiff.exp(autodiff.mul(w["gp.log_noise_recon"], 2.0))
        self.noise_traj = autodiff.exp(autodiff.mul(w["gp.log_noise_traj"], 2.0))
        self._cond: tuple | None = None

    @cached_property
    def token_anchors(self) -> Tensor:
        """Every group's mean basis token (n_code, D), also the token-anchor
        table of the stage-2 and teacher losses."""
        return autodiff.tmean(self.basis, axis=1)

    def group_cond(self, groups: np.ndarray) -> tuple[dict, np.ndarray]:
        """The conditioning of the call's distinct groups and each row's
        index into it; kept until a call routes to another set of groups."""
        ids = np.unique(groups)
        if self._cond is None or not np.array_equal(self._cond[0], ids):
            self._cond = ids, self._condition(ids)
        return self._cond[1], np.searchsorted(ids, groups)

    def _condition(self, ids: np.ndarray) -> dict:
        """Groups ``ids`` (distinct, ascending) conditioned on their basis:
        ``k_inv`` (G, C, C), inverse Gram matrices, and ``alpha_basis`` and
        ``alpha_traj``, ``k_inv`` times the centred basis and trajectories."""
        cb, basis = self.cb, self.basis
        centered = autodiff.sub(basis, autodiff.reshape(self.token_anchors,
                                                        (cb.n_code, 1, -1)))
        try:
            k_inv = psdlinalg.psd_inverse(psdlinalg.group_gram_t(
                basis, ids, self.log_ell, self.log_sf))
        except psdlinalg.NotPSD as e:
            raise psdlinalg.NotPSD(e.pivot, e.jitter, int(ids[e.group])) from e
        return dict(
            k_inv=k_inv,
            alpha_basis=autodiff.matmul(k_inv, autodiff.gather0(centered, ids)),
            alpha_traj=autodiff.matmul(
                k_inv, Tensor(cb.trajectories[ids] - cb.traj_anchors[ids, None, :])),
        )

    def kernel_features(self, tokens) -> Tensor:
        """Kernel features (N, n_code * C) of the token rows (N, D)."""
        return psdlinalg.kernel_matrix_t(tokens, self.flat_basis, self.log_ell,
                                         self.log_sf)

    def classifier_logits(self, features: Tensor) -> Tensor:
        """Unmasked group logits (N, n_code) of the feature rows."""
        w = self.w
        h = autodiff.tanh(autodiff.linear(features, w["clf.w1"], w["clf.b1"]))
        return autodiff.linear(h, w["clf.w2"], w["clf.b2"])

    def k_star(self, features: Tensor, group: np.ndarray) -> Tensor:
        """Each row's k* (N, 1, C): its slice of its kernel features
        (N, n_code * C) for its group, the input of both heads."""
        cb = self.cb
        n = len(group)
        return autodiff.gather0(
            autodiff.reshape(features, (n * cb.n_code, 1, cb.group_size)),
            np.arange(n) * cb.n_code + group)

    def _conditioned(self, k_star: Tensor, group: np.ndarray, anchors: Tensor,
                     alpha: str, noise: Tensor) -> tuple[Tensor, Tensor]:
        """Each row's posterior mean anchor + k* alpha (``alpha`` names it)
        and scalar variance sf2 - k*^T K^-1 k* + noise under its group."""
        cond, pos = self.group_cond(group)
        quad = autodiff.tsum(autodiff.mul(
            autodiff.matmul(k_star, autodiff.gather0(cond["k_inv"], pos)),
            k_star), axis=(1, 2))
        offset = autodiff.matmul(k_star, autodiff.gather0(cond[alpha], pos))
        mean = autodiff.add(autodiff.gather0(anchors, group),
                            autodiff.reshape(offset, (len(group), -1)))
        return mean, autodiff.add(autodiff.relu(autodiff.sub(self.sf2, quad)), noise)

    def reconstruct(self, k_star: Tensor, group: np.ndarray) -> tuple[Tensor, Tensor]:
        """Posterior mean (N, D) of each token row under its group (N,), from
        the rows' k* (N, 1, C), and its scalar variance (N,), noise included."""
        return self._conditioned(k_star, group, self.token_anchors, "alpha_basis",
                                 self.noise_recon)

    def predict_trajectory(self, k_star: Tensor,
                           group: np.ndarray) -> tuple[Tensor, Tensor]:
        """Posterior trajectory mean (N, 12) of each token row under its group
        (N,), from the rows' k* (N, 1, C), and its scalar variance (N,),
        noise included."""
        return self._conditioned(k_star, group, Tensor(self.cb.traj_anchors),
                                 "alpha_traj", self.noise_traj)


class GpInference(GpGraph):
    """The GP module of a frozen model: a ``GpGraph`` over its arrays, whose
    constants build no tape, that predicts rows in blocks over lanes."""

    def __init__(self, cb: Codebook, w: dict):
        """A graph over the frozen arrays ``w``: its own method, so that
        ``perfbench`` times inference set-up apart from training graphs'."""
        super().__init__(cb, w)

    def predict_rows(self, tokens: np.ndarray, admissible: np.ndarray):
        """Classify every token row and predict within its group.

        ``tokens`` (N, D); ``admissible`` (N, n_code) bool. Returns the mean
        trajectories (N, 12), the scalar variances (N,) with the noise
        included, the logits (N, n_code) with -inf outside each row's mask,
        and the groups (N,): the masked argmax, ties to the lowest id.

        Rows are classified in blocks of R // 2 to R rows, R being
        ``BLOCK_ROWS``. A call of fewer than R // 2 rows is zero-padded to
        R // 2 rows, and the pad rows are dropped after the classifier, so
        they are never conditioned on and never name a group in an error. A
        call of at most R rows is then one block; a call of n > R rows is
        cut into p = 2 * ceil(n / 2R) blocks, block k being rows n * k // p
        to n * (k + 1) // p. A block of a few rows can round differently
        from the same rows in a larger block (the classifier's products), so
        no block is that short.

        The blocks go round-robin over ``lanes`` lanes: this thread and, for
        a call of more than one block on a host with more than one CPU, the
        process's worker threads. A lane keeps each row's logits and k* and
        drops the block's features, so at most ``lanes`` blocks of features
        are in flight. Then this thread conditions the routed groups, in one
        stack, and predicts every row from its k*.
        The cuts depend on n alone, and each block is the same numpy calls
        on the same rows in any lane, so the bytes do not depend on the
        lanes.
        """
        n = len(tokens)
        if n < BLOCK_ROWS // 2:  # zero rows up to R // 2, dropped before any conditioning
            pad = ((0, BLOCK_ROWS // 2 - n), (0, 0))
            tokens, admissible = np.pad(tokens, pad), np.pad(admissible, pad)
        m = len(tokens)
        parts = 1 if m <= BLOCK_ROWS else 2 * -(-m // (2 * BLOCK_ROWS))
        cuts = [m * k // parts for k in range(parts + 1)]
        blocks = list(zip(cuts, cuts[1:]))
        lanes = min(len(os.sched_getaffinity(0)), parts)

        def block(start: int, stop: int) -> tuple:
            """The masked logits, groups and k* of rows start to stop; their
            features are freed on return."""
            features = self.kernel_features(tokens[start:stop])
            logits = np.where(admissible[start:stop],
                              self.classifier_logits(features).data, -np.inf)
            group = np.argmax(logits, axis=1)
            return logits, group, self.k_star(features, group).data

        def lane(j: int) -> list:
            return [block(*b) for b in blocks[j::lanes]]

        futures = [_workers().submit(lane, j) for j in range(1, lanes)]
        try:
            by_lane = [lane(0)]
        finally:
            wait(futures)
        by_lane += [f.result() for f in futures]
        logits, group, k_star = (np.concatenate(col)[:n] for col in zip(
            *(by_lane[b % lanes][b // lanes] for b in range(parts))))
        mean, variance = self.predict_trajectory(Tensor(k_star), group)
        return mean.data, variance.data, logits, group

    def predict_scene(self, ego_tokens: np.ndarray, commands):
        """``predict_rows`` of each scene's ego token row (N, D) under the
        admissibility mask of its driving command."""
        return self.predict_rows(ego_tokens, admissible(self.cb, commands))


# The worker threads of GpInference.predict_rows, one fewer than the CPUs
# the process may run on, started by the first call that needs one and
# kept for the process's life (a GpInference lives for one eval, select or
# teacher pass).
# On a 2-core host a pool started per call gave the same bytes but made
# 200-row calls 0.3-0.8 ms (5-17 %) slower; at 800 rows it ran from 18 %
# faster to 15 % slower from run to run. A forked child has none of the
# parent's threads, so it drops the pool.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _workers() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(len(os.sched_getaffinity(0)) - 1,
                                       thread_name_prefix="gpmodule-lane")
        return _pool


def _forget_workers() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_workers)
