"""Gradient machinery, Adam optimizer, and the three-stage source training.

Stage 1 pretrains the base encoder/planner on ground truth; stage 2 freezes
the base model and fits the GP side (basis tokens, classifier, kernel and
noise parameters) on the reconstruction and supervision losses; stage 3
freezes the GP side and finetunes the base model on ground truth plus the
teacher regularization.

A model is its ``ModelSpec``, which holds sizes only, and one dict of named
arrays, ``Model.tensors``: every checkpoint tensor under its checkpoint
name, in the order of ``ModelSpec.tensor_shapes()``, where each name and
shape is stated once. The encoder, planner and GP module read their weights
from that dict by name. A checkpoint writes the dict's arrays in that
order after a header holding the spec, so the spec alone gives each
tensor's name, shape and offset. A stage's parameters are the entries with
its prefixes (``BASE_PARAMS``, ``GP_PARAMS``) wrapped as parameter tensors
over the dict's own arrays, which ``Adam`` updates in place; its flat
buffers hold only the gradients and moments, and a step runs over them in
cache-sized blocks (``ADAM_BLOCK``). The frozen side of a stage is plain
arrays, which every autodiff op wraps as constants, so it builds no tape.

Every optimizer step builds one tape over the batch's rows: the ego rows of
its scenes, then their agent rows, each block in ascending scene order (see
``SceneTable``). Base-model stages encode and plan all rows in one pass.
Stage 2 conditions the step's routed groups once per step and evaluates the
GP and its losses over all rows at once. Labels are computed once per
training call, and so is the frozen teacher of stage 3 and both
adaptations: one ``predict_rows`` pass over the tokens of the model the
call starts from predicts every row of the call's table before the first
step (``SceneTable.teach``), which also takes the masked log-softmax of its
logits once, and each step reads its batch's rows of that prediction as
constants, so the teacher's targets do not move with the student. The
codebook is built once per model (``Model.cb``), its triplet classes on
first use.

A step loss returns its terms as a plain dict (see ``losses``); ``_run_epochs``
weights them in one node (``losses.step_total``), checks that it and the values
it scaled by ``cfg.gp_weight`` are finite, and logs them as the step ends.

Determinism contract: identical (config, seed, dataset) produce
bit-identical checkpoints at one BLAS thread, the count ``gptraj.cli``
pins (a multithreaded BLAS sums in a thread-dependent order). The bytes do
not depend on the CPU count: the teacher pass is one ``predict_rows`` call,
cut into blocks of ``gpmodule.BLOCK_ROWS`` // 2 to ``BLOCK_ROWS`` rows by its
row count alone, and the ``gpmodule`` docstring states how and what that
guarantees; a row's teacher bytes do not depend on the batches it is later
drawn into. Shuffles derive from the seed by purpose keys, and every
reduction over a step's rows runs in the fixed row order above.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import autodiff, losses
from .autodiff import Tensor
from .basemodel import encode, encode_t, planner_t
from .codebook import (MIN_AGENT_GROUPS, MIN_EGO_PER_COMMAND, BuildError, Codebook,
                       admissible, nearest_group, sample_and_cluster)
from .core import (COMMANDS, DEFAULT_OBS_DIM, TRAJ_DIM, SceneRecord, SceneRows, rng_for,
                   scene_rows)
from .gpmodule import GpGraph, GpInference
from .losses import (MaskedLogSoftmax, SupRows, cross_entropy, loss_gp_teacher, loss_rec,
                     loss_sup, role_terms, teacher_log_softmax, traj_mse)
from .psdlinalg import NotPSD

CHECKPOINT_MAGIC = b"GPTRAJCK"
CHECKPOINT_SCHEMA = 3
# the tensors each training stage fits, as checkpoint-name prefixes
BASE_PARAMS = ("base.",)
GP_PARAMS = ("clf.", "gp.", "cb.basis")
# elements per Adam.step block: 256 KiB of float64
ADAM_BLOCK = 1 << 15
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the GP noise scalars start at this standard deviation, and stage 2 clips
# them to ``losses.SIGMA_CLAMP`` after every step
NOISE_SCALARS = ("gp.log_noise_recon", "gp.log_noise_traj")
INIT_NOISE_STD = 1e-2
# the seeded stream of each family's random draws at initialization
_INIT_STREAMS = {"base": "base-init", "clf": "clf-init", "cb": "basis-init"}

grad = autodiff.grad  # reverse-mode gradient map; the package's grad contract


class TrainingError(Exception):
    pass


def _finite(v) -> bool:
    """Whether ``v`` is a finite real number; a bool is not one."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v) -> bool:
    """Whether ``v`` is an int; a bool is not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_fields(obj, positive=(), non_negative=()) -> None:
    """Check the numeric fields of the dataclass ``obj``: an ``int`` field
    holds an int and a ``float`` field a finite real number (a bool is
    neither); the fields named in ``positive`` are above 0 and those in
    ``non_negative`` at least 0. Messages open with the field's name."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if f.type == "int" and not _is_int(v):
            raise ValueError(f"{f.name} must be an integer, got {v!r}")
        if f.type == "float" and not _finite(v):
            raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if f.name in positive and v <= 0:
            raise ValueError(f"{f.name} must be positive")
        if f.name in non_negative and v < 0:
            raise ValueError(f"{f.name} must be non-negative")


@dataclass
class ModelSpec:
    """Architecture sizes captured in every checkpoint."""

    obs_dim: int = DEFAULT_OBS_DIM
    token_dim: int = 32
    n_ego: int = 48
    n_agent: int = 64
    group_size: int = 16
    encoder_hidden: int = 64
    planner_hidden: int = 64
    classifier_hidden: int = 128

    def __post_init__(self):
        _check_fields(self, positive=[f.name for f in dataclasses.fields(self)])
        # the group layout needs equal thirds, and triplet_table enough
        # groups in each bucket
        n_cmd = len(COMMANDS)
        if self.n_ego % n_cmd:
            raise ValueError(f"n_ego {self.n_ego} is not a multiple of {n_cmd}")
        if self.n_ego < MIN_EGO_PER_COMMAND * n_cmd:
            raise ValueError(f"n_ego {self.n_ego} gives {self.n_ego // n_cmd} ego "
                             f"groups per command; triplet selection needs "
                             f"{MIN_EGO_PER_COMMAND}")
        if self.n_agent < MIN_AGENT_GROUPS:
            raise ValueError(f"n_agent {self.n_agent} is below the {MIN_AGENT_GROUPS} "
                             f"agent groups triplet selection needs")

    @property
    def n_code(self) -> int:
        return self.n_ego + self.n_agent

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name and shape of every checkpoint tensor at these sizes, in the
        order of ``Model.tensors``. A weight matrix is (fan_out, fan_in)."""
        n_code, c, d = self.n_code, self.group_size, self.token_dim
        he, hp, hc = self.encoder_hidden, self.planner_hidden, self.classifier_hidden
        return {
            "base.enc_w1": (he, self.obs_dim), "base.enc_b1": (he,),
            "base.enc_w2": (d, he), "base.enc_b2": (d,),
            "base.pln_w1": (hp, d), "base.pln_b1": (hp,),
            "base.pln_w2": (n_code + TRAJ_DIM, hp), "base.pln_b2": (n_code + TRAJ_DIM,),
            "clf.w1": (hc, n_code * c), "clf.b1": (hc,),
            "clf.w2": (n_code, hc), "clf.b2": (n_code,),
            "gp.log_lengthscale": (), "gp.log_outputscale": (),
            "gp.log_noise_recon": (), "gp.log_noise_traj": (),
            "cb.basis": (n_code, c, d), "cb.trajs": (n_code, c, TRAJ_DIM),
        }


@dataclass
class TrainConfig:
    seed: int
    epochs_stage1: int = 30
    epochs_stage2: int = 10
    epochs_stage3: int = 15
    adapt_epochs: int = 8
    batch_size: int = 32
    lr_stage12: float = 1e-3
    lr_stage3: float = 3e-4
    loss_weights: dict[str, float] = field(default_factory=dict)
    gp_weight: float = 1.0  # weight of the teacher-regularization total

    def __post_init__(self):
        _check_fields(
            self, positive=("batch_size", "lr_stage12", "lr_stage3"),
            non_negative=("epochs_stage1", "epochs_stage2", "epochs_stage3",
                          "adapt_epochs"))
        if not isinstance(self.loss_weights, dict):
            raise ValueError("loss_weights must map term names to numbers")
        bad = set(self.loss_weights) - set(losses.TERM_NAMES)
        if bad:
            raise ValueError(f"unknown loss weight names: {sorted(bad)}")
        for name, w in self.loss_weights.items():
            if not _finite(w):
                raise ValueError(f"loss weight {name} must be a finite number, got {w!r}")


@dataclass
class Model:
    """Architecture sizes and every checkpoint tensor, as float64 arrays
    under their checkpoint names in ``spec.tensor_shapes()`` order; the GP
    scalars are 0-d arrays.

    Every array is updated in place, never replaced: ``cb.trajs`` never
    changes after ``build_model``, so the one codebook ``cb`` built over it
    stays valid for the model's life. The learnable basis ``cb.basis`` is
    read from the dict alone, by the GP module."""

    spec: ModelSpec
    tensors: dict[str, np.ndarray]

    @cached_property
    def cb(self) -> Codebook:
        """The model's codebook, built on first use over the dict's
        ``cb.trajs`` array itself, not a copy."""
        return Codebook(self.tensors["cb.trajs"], self.spec.n_ego)

    def clone(self) -> "Model":
        """A model over copies of every array, with its own codebook."""
        return Model(self.spec, {n: a.copy() for n, a in self.tensors.items()})

    def params(self, prefixes: tuple[str, ...]) -> dict[str, Tensor]:
        """The entries whose names start with one of ``prefixes``, as
        parameter tensors over the dict's own arrays, which optimizer steps
        update in place."""
        return {n: Tensor(a, requires_grad=True) for n, a in self.tensors.items()
                if n.startswith(prefixes)}


def _views(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Consecutive views of the 1-D ``flat``, one per named shape, in order."""
    ends = np.cumsum([np.prod(s, dtype=np.int64) for s in shapes.values()])
    return {name: part.reshape(shape) for (name, shape), part
            in zip(shapes.items(), np.split(flat, ends[:-1]))}


class Adam:
    """Adam with bias correction, at ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    The parameters stay in their own arrays. Gradients and the moments m and
    v each live in one flat float64 buffer; ``grads`` maps each name to its
    view of the gradients. ``step`` is one fused pass over the flat
    buffers in blocks of ``ADAM_BLOCK`` elements, with a scratch buffer of
    one block, so each block stays in cache through its dozen operations; it
    computes the step in the gradient buffer once m and v are updated, so a
    step spends its gradients, and then subtracts each parameter's slice of
    it from that parameter in place.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.lr = lr
        self.t = 0
        self.params = params
        size = sum(p.data.size for p in params.values())
        self._g, self._m, self._v = (np.zeros(size) for _ in range(3))
        self._scratch = np.empty(min(size, ADAM_BLOCK))
        self.grads = _views(self._g, {k: p.data.shape for k, p in params.items()})

    def step(self) -> None:
        """One update from the gradients in ``grads``, which
        ``grad(..., out=opt.grads)`` fills."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1, bias2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        # in place, with the out-of-place update's operations in the same order,
        # so the bits do not change
        for lo in range(0, len(self._g), ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            g, m, v = self._g[lo:hi], self._m[lo:hi], self._v[lo:hi]
            s = self._scratch[:len(g)]
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.multiply(1 - b2, g, out=s)
            s *= g
            v += s
            step = np.divide(m, bias1, out=g)
            step *= self.lr
            np.divide(v, bias2, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            step /= s
        for name, p in self.params.items():
            p.data -= self.grads[name]  # this parameter's slice of the step


def frozen_gp_predict(model: Model, tokens: np.ndarray, commands, what: str):
    """``GpInference.predict_scene`` of the model's frozen GP; a routed group
    that is not positive definite raises a TrainingError opening ``what``."""
    try:
        return GpInference(model.cb, model.tensors).predict_scene(tokens, commands)
    except NotPSD as e:
        raise TrainingError(f"{what}: {e}") from e


def _project_noise(params: dict[str, Tensor]) -> None:
    lo, hi = np.log(losses.SIGMA_CLAMP[0]), np.log(losses.SIGMA_CLAMP[1])
    for n in NOISE_SCALARS:
        params[n].data[...] = np.clip(params[n].data, lo, hi)


# --- row layout ----------------------------------------------------------------


class SceneTable:
    """Scenes in ``core.scene_rows`` layout, with each row's scene, its
    admissible-group mask and, when the layout holds ground truth, its flat
    (12,) ground truth and label; once ``teach`` has run, also the frozen
    teacher's prediction of each row and its token anchors.

    A training call builds one table of its scenes; each optimizer step
    works on the table of its batch, from ``batch``. ``rows`` index the
    training call's table and ``scene_of_row`` gives each row's scene
    position within this table.
    """

    # the per-row arrays, which ``batch`` slices by row
    ROW_ARRAYS = ("obs", "admissible", "gt", "labels",
                  "t_mean", "t_variance", "t_log_softmax", "t_group")

    def __init__(self, rows: SceneRows, cb: Codebook):
        self.n_ego = len(rows.commands)
        self.rows = np.arange(len(rows.obs))
        self.scene_of_row = rows.scene_of_row
        self.obs = rows.obs
        self.admissible = admissible(
            cb, rows.commands + [None] * (len(rows.obs) - self.n_ego))
        self.gt = self.labels = None
        if rows.gt is not None:
            self.gt = rows.gt.reshape(len(rows.gt), -1)
            self.labels = scene_labels(self, cb)
        self.t_mean = self.t_variance = self.t_log_softmax = self.t_group = None
        self.t_anchors = None

    def __len__(self) -> int:
        return self.n_ego

    def teach(self, model: Model) -> None:
        """Keep the frozen teacher's prediction of every row, from one
        ``predict_rows`` pass over the tokens of ``model`` as it is now:
        mean (N, 12), variance (N,), the masked log-softmax of its logits
        (N, n_code), computed once for every row (``teacher_log_softmax``,
        row-wise, so a batch's rows have the bytes of the batch's own), and
        group (N,); and its token anchors (n_code, D)."""
        teacher = GpInference(model.cb, model.tensors)
        tokens = encode(self.obs, model.tensors)
        self.t_mean, self.t_variance, logits, self.t_group = (
            teacher.predict_rows(tokens, self.admissible))
        self.t_log_softmax = teacher_log_softmax(logits, self.admissible)
        self.t_anchors = teacher.token_anchors.data

    def batch(self, scenes: np.ndarray) -> "SceneTable":
        """The table of ``scenes`` (scene positions, ascending): their ego
        rows, then their agent rows, each block in scene order."""
        chosen = np.zeros(self.n_ego, dtype=bool)
        chosen[scenes] = True
        rows = np.flatnonzero(chosen[self.scene_of_row])
        sub = copy.copy(self)
        sub.n_ego = len(scenes)
        sub.rows = self.rows[rows]
        sub.scene_of_row = np.searchsorted(scenes, self.scene_of_row[rows])
        for name in self.ROW_ARRAYS:
            a = getattr(self, name)
            setattr(sub, name, None if a is None else a[rows])
        return sub


def scene_labels(table: SceneTable, cb: Codebook) -> np.ndarray:
    """Ground-truth classes of every table row, in one vectorized pass: the
    nearest admissible trajectory anchor."""
    return nearest_group(cb, table.gt, table.admissible)


# --- step losses -----------------------------------------------------------------


def base_supervised_loss(batch: SceneTable, traj: Tensor, ls: MaskedLogSoftmax) -> dict:
    """Ground-truth terms of a base-model step: anchored-waypoint MSE plus class CE.

    The planning trajectory is assembled from the label group's anchor
    (winner-takes-all convention); logits learn the label through CE.
    """
    return role_terms({
        ("base_plan", "base_motion"): traj_mse(traj, batch.gt),
        ("base_class_ce_ego", "base_class_ce_agent"): cross_entropy(ls, batch.labels),
    }, batch.n_ego)


def finetune_scene_loss(batch: SceneTable, bvars: dict[str, Tensor],
                        model: Model) -> dict[str, Tensor]:
    """Terms of one base-model step, over the batch's rows.

    Ground-truth terms when the batch carries labels, then, when it carries
    the teacher's predictions (``SceneTable.teach``), the teacher
    regularization, which ``_run_epochs`` scales by ``TrainConfig.gp_weight``.
    The teacher's mean, variance, log-softmax and group are constants of the
    training call, made from the model it started from, so its targets do
    not move with the student. The trajectory anchor is the label's group
    when supervised, else the teacher's group. The triplet term measures
    the student's tokens against the teacher's token anchors.
    """
    tokens = encode_t(batch.obs, bvars)
    logits, residual = planner_t(tokens, bvars, model.spec.n_code)
    ls = MaskedLogSoftmax(logits, batch.admissible)
    t_group = batch.t_group
    anchor_gid = batch.labels if batch.labels is not None else t_group
    traj = autodiff.add(Tensor(model.cb.traj_anchors[anchor_gid]), residual)
    terms = {} if batch.labels is None else base_supervised_loss(batch, traj, ls)
    if t_group is None:
        return terms
    positives, negatives = model.cb.triplets
    taught = loss_gp_teacher(
        SupRows(traj=traj, target=batch.t_mean, variance=batch.t_variance, ls=ls,
                label=t_group, token=tokens, positives=positives[t_group],
                negatives=negatives[t_group], n_ego=batch.n_ego),
        batch.t_log_softmax, batch.t_anchors)
    return terms | taught


def gp_stage_loss(batch: SceneTable, graph: GpGraph, tokens: np.ndarray) -> dict[str, Tensor]:
    """Stage-2 terms of one step: reconstruction plus GP supervision.

    ``tokens`` are the frozen base model's token rows (constants). All rows
    are classified in one pass and conditioned once, for both heads, on
    their argmax groups; supervision labels come from the ground truth.
    """
    features, logits, groups = graph.route(tokens, batch.admissible)
    cond = graph.group_cond(groups)
    # a k* gather per head: a shared one sums the gradient in another order
    recon, var_rec = graph.reconstruct(graph.k_star(features, groups), groups, cond)
    mean, var_traj = graph.predict_trajectory(graph.k_star(features, groups), groups, cond)
    rec = loss_rec(tokens, recon, var_rec, batch.n_ego, groups, batch.scene_of_row,
                   graph.basis)
    positives, negatives = graph.cb.triplets
    sup = loss_sup(
        SupRows(traj=mean, target=batch.gt, variance=var_traj, label=batch.labels,
                ls=MaskedLogSoftmax(logits, batch.admissible), token=tokens,
                positives=positives[batch.labels], negatives=negatives[batch.labels],
                n_ego=batch.n_ego),
        anchors=graph.token_anchors)
    return rec | sup


# --- training loops ------------------------------------------------------------


def _open_log(log_path):
    """The loss CSV opened for appending, with its header written if new."""
    path = Path(log_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    exists = path.exists()
    f = open(path, "a", newline="", encoding="utf-8")
    if not exists:
        csv.writer(f).writerow(["step", "stage", "term", "value"])
    return f


def _run_epochs(table: SceneTable, cfg: TrainConfig, params, step_loss_fn, *,
                epochs, lr, stage: str, log_path=None, post_step=None, taught=()) -> None:
    """Shared loop: shuffle, one step loss per batch, Adam step, CSV log.

    ``step_loss_fn`` returns a batch's terms as a dict; once per step, those
    named in ``taught`` are scaled by ``cfg.gp_weight`` and all weighted by
    ``cfg.loss_weights`` in dict order.

    The log is opened at the first step and each step's rows are flushed as
    the step ends, so a failed run keeps the steps before the failure. A
    finished step's batch and tape are released before the next step's loss
    is built, so only one tape is alive at a time. A
    step's GP conditioning (stage 2's) that is not positive definite, and a
    ValueError of a step loss (a non-positive variance, a label outside the
    admissible set), stop training with a TrainingError that opens
    ``<stage> step <n>: `` and chains the error.
    """
    opt = Adam(params, lr=lr)
    log = None
    step = 0
    try:
        for epoch in range(epochs):
            perm = rng_for(cfg.seed, "shuffle", stage, epoch).permutation(len(table))
            for start in range(0, len(table), cfg.batch_size):
                batch = table.batch(np.sort(perm[start:start + cfg.batch_size]))
                try:
                    terms = step_loss_fn(batch)
                except (NotPSD, ValueError) as e:
                    raise TrainingError(f"{stage} step {step}: {e}") from e
                total, values = losses.step_total(terms, cfg.loss_weights, batch.n_ego,
                                                  cfg.gp_weight, taught)
                finite = np.isfinite(values)
                if not finite.all():
                    raise TrainingError(f"non-finite loss term {list(terms)[finite.argmin()]!r}"
                                        f" at {stage} step {step}")
                if not np.isfinite(total.item()):  # the weighted sum can overflow
                    raise TrainingError(f"non-finite loss total at {stage} step {step}")
                grad(total, params, out=opt.grads)
                opt.step()
                if post_step is not None:
                    post_step()
                if log_path is not None:
                    log = log or _open_log(log_path)
                    csv.writer(log).writerows(
                        [[step, stage, term, f"{v / batch.n_ego:.10g}"]
                         for term, v in zip(terms, values.tolist())]
                        + [[step, stage, "total", f"{total.item():.10g}"]])
                    log.flush()
                del batch, terms, total, values
                step += 1
    finally:
        if log is not None:
            log.close()


def build_model(rows: SceneRows, cfg: TrainConfig, spec: ModelSpec) -> Model:
    """The codebook trajectories clustered from the ground truth of the
    labeled scene rows ``rows``, then every other tensor in
    ``tensor_shapes()`` order: weight matrices and basis tokens from
    N(0, 1/fan_in), from one seeded stream per family; biases zero; the GP
    scalars at unit lengthscale and outputscale and ``INIT_NOISE_STD``
    noise."""
    n_ego = len(rows.commands)
    try:
        trajs = sample_and_cluster(rows.gt[:n_ego], rows.commands, rows.gt[n_ego:],
                                   spec.n_ego, spec.n_agent, spec.group_size,
                                   seed=cfg.seed)
    except BuildError as e:
        raise TrainingError(f"stage1 codebook build: {e}") from e
    tensors, rngs = {}, {}
    for name, shape in spec.tensor_shapes().items():
        family = name.split(".")[0]
        if name == "cb.trajs":
            tensors[name] = trajs
        elif family == "gp":
            tensors[name] = np.array(np.log(INIT_NOISE_STD) if name in NOISE_SCALARS
                                     else 0.0)
        elif len(shape) == 1:
            tensors[name] = np.zeros(shape)
        else:
            if family not in rngs:
                rngs[family] = rng_for(cfg.seed, _INIT_STREAMS[family])
            tensors[name] = rngs[family].normal(0.0, 1.0 / np.sqrt(shape[-1]), size=shape)
    return Model(spec, tensors)


def _labeled(records, stage: str) -> list[SceneRecord]:
    """The labeled records, which stages 1-3 train on."""
    labeled = [r for r in records if r.labeled]
    if not labeled:
        raise TrainingError(f"{stage}: no labeled scenes")
    return labeled


def stage1_pretrain(records, cfg: TrainConfig, spec: ModelSpec,
                    log_path=None) -> "Checkpoint":
    """Pretrain encoder and planner on labeled source data; the codebook
    and the training table share one row layout."""
    rows = scene_rows(_labeled(records, "stage1"), labeled=True)
    return finetune_base(rows, build_model(rows, cfg, spec), cfg,
                         use_teacher=False, epochs=cfg.epochs_stage1,
                         lr=cfg.lr_stage12, stage="stage1", log_path=log_path)


def stage2_fit_gp(records, ckpt: "Checkpoint", cfg: TrainConfig,
                  log_path=None) -> "Checkpoint":
    """Fit basis tokens, classifier, and kernel/noise params; base frozen."""
    labeled = _labeled(records, "stage2")
    model = ckpt.model.clone()
    params = model.params(GP_PARAMS)
    weights = model.tensors | params
    cb = model.cb
    table = SceneTable(scene_rows(labeled, labeled=True), cb)
    # frozen encoder: tokens are fixed targets, computed once, in row layout
    tokens = encode(table.obs, model.tensors)

    def loss_fn(batch: SceneTable) -> dict[str, Tensor]:
        return gp_stage_loss(batch, GpGraph(cb, weights), tokens[batch.rows])

    _run_epochs(table, cfg, params, loss_fn, epochs=cfg.epochs_stage2,
                lr=cfg.lr_stage12, stage="stage2", log_path=log_path,
                post_step=lambda: _project_noise(params))
    return Checkpoint(stage="stage2", model=model, train_config=cfg)


def finetune_base(rows: SceneRows, model: Model, cfg: TrainConfig, *, use_teacher: bool,
                  epochs: int, lr: float, stage: str, log_path=None) -> "Checkpoint":
    """Train the base side of ``model`` in place on the scene rows ``rows``,
    the GP side frozen, and return it as the ``stage`` checkpoint.

    Ground truth is used when the rows hold it. With a teacher, one pass of
    the frozen GP over the tokens of ``model`` as given sets the teacher's
    targets for every step of the call.
    """
    if not rows.commands:
        raise TrainingError(f"{stage}: no scenes")
    bvars = model.params(BASE_PARAMS)
    taught = use_teacher and cfg.gp_weight != 0.0
    if not (taught or rows.gt is not None):
        raise TrainingError(f"{stage}: no ground truth and no teacher leaves no loss")
    table = SceneTable(rows, model.cb)
    if taught:
        try:
            table.teach(model)
        except NotPSD as e:
            raise TrainingError(f"{stage} teacher: {e}") from e
    _run_epochs(table, cfg, bvars,
                lambda batch: finetune_scene_loss(batch, bvars, model),
                epochs=epochs, lr=lr, stage=stage, log_path=log_path,
                taught=losses.TEACHER_TERMS)
    return Checkpoint(stage=stage, model=model, train_config=cfg)


def stage3_finetune(records, ckpt: "Checkpoint", cfg: TrainConfig,
                    log_path=None) -> "Checkpoint":
    """Finetune the base model on GT plus teacher regularization; GP frozen."""
    return finetune_base(scene_rows(_labeled(records, "stage3"), labeled=True),
                         ckpt.model.clone(), cfg, use_teacher=True,
                         epochs=cfg.epochs_stage3, lr=cfg.lr_stage3, stage="stage3",
                         log_path=log_path)


# --- checkpoint container ------------------------------------------------------


@dataclass
class Checkpoint:
    """Versioned container of a model's spec and tensors, and the config.

    The file is ``CHECKPOINT_MAGIC``, the header's length as a little-endian
    uint64, the JSON header (``schema``, ``stage``, ``train_config`` and
    ``model_spec``), then every tensor as little-endian float64 in
    ``model_spec``'s ``tensor_shapes()`` order, which alone gives each
    tensor's name, shape and offset."""

    stage: str
    model: Model
    train_config: TrainConfig

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "stage": self.stage,
            "train_config": dataclasses.asdict(self.train_config),
            "model_spec": dataclasses.asdict(self.model.spec),
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for arr in self.model.tensors.values():
                f.write(arr.tobytes())

    @classmethod
    def load(cls, path) -> "Checkpoint":
        path = Path(path)
        raw = path.read_bytes()
        if raw[:8] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a gptraj checkpoint")
        if len(raw) < 16:
            raise ValueError(f"{path}: truncated checkpoint header")
        hlen = struct.unpack("<Q", raw[8:16])[0]
        try:
            header = json.loads(raw[16:16 + hlen].decode("utf-8"))
        except ValueError as e:  # also UnicodeDecodeError and JSONDecodeError
            raise ValueError(f"{path}: corrupt checkpoint header: {e}") from e
        if not isinstance(header, dict):
            raise ValueError(f"{path}: bad checkpoint header: the root is a "
                             f"{type(header).__name__}, not an object")
        if header.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"{path}: checkpoint schema {header.get('schema')!r} unsupported "
                f"(expected {CHECKPOINT_SCHEMA})")
        try:
            stage = header["stage"]
            if not isinstance(stage, str):
                raise TypeError(f"stage must be a string, got {stage!r}")
            spec = ModelSpec(**header["model_spec"])
            cfg = TrainConfig(**header["train_config"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: bad checkpoint header: {e!r}") from e
        shapes = spec.tensor_shapes()
        payload = raw[16 + hlen:]
        expected = 8 * sum(math.prod(shape) for shape in shapes.values())
        if len(payload) != expected:
            raise ValueError(
                f"{path}: truncated or corrupt checkpoint: payload holds "
                f"{len(payload)} bytes, its model_spec implies {expected}")
        # one array per tensor: views of one buffer made the benchmark's
        # evaluate(mode="base") about 4 % slower
        tensors = {name: view.copy() for name, view
                   in _views(np.frombuffer(payload, dtype="<f8"), shapes).items()}
        for name, arr in tensors.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: checkpoint tensor {name} holds non-finite values")
        return cls(stage=stage, model=Model(spec, tensors), train_config=cfg)
