"""Gradient machinery, Adam optimizer, and the three-stage source training.

Stage 1 pretrains the base encoder/planner on ground truth; stage 2 freezes
the base model and fits the GP side (basis tokens, classifier, kernel and
noise parameters) on the reconstruction and supervision losses; stage 3
freezes the GP side and finetunes the base model on ground truth plus the
teacher regularization.

Every optimizer step builds one tape over the batch's rows: the ego rows of
its scenes, then their agent rows, each block in ascending scene order (see
``SceneTable``). Base-model stages encode and plan all rows in one pass and
take the frozen teacher's prediction of all rows in one call. Stage 2
conditions every codebook group once per step and evaluates the GP and its
losses over all rows at once. Labels, anchor tables and triplet classes are
computed once per training call. Each step's loss terms are appended to the
loss CSV as the step ends.

Determinism contract: identical (config, seed, dataset) produce
bit-identical checkpoints. Shuffles derive from the seed by purpose keys,
and every reduction over a step's rows runs in the fixed row order above.
The row-batched reduction sums in a different order than the per-scene
tapes it replaced, so checkpoints match those only to rounding, not bit
for bit.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff, basemodel, losses
from .autodiff import Tensor
from .basemodel import PARAM_NAMES, BaseModelParams, encode, encode_t, planner_t
from .codebook import (BuildError, Codebook, Role, admissible_mask, ego_admissible,
                       init_basis_tokens, nearest_group, sample_and_cluster)
from .core import SceneRecord, rng_for
from .gpmodule import (CLASSIFIER_NAMES, GP_SCALAR_NAMES, GpGraph, GpInference,
                       GpParams, GroupClassifier)
from .losses import (LossBreakdown, StudentRows, SupRows, TeacherRows,
                     cross_entropy, loss_gp_teacher, loss_rec, loss_sup,
                     role_sums, traj_mse, triplet_table)
from .psdlinalg import NotPSD

CHECKPOINT_MAGIC = b"GPTRAJCK"
CHECKPOINT_SCHEMA = 1

grad = autodiff.grad  # reverse-mode gradient map; the package's grad contract


class TrainingError(Exception):
    pass


@dataclass
class ModelSpec:
    """Architecture sizes captured in every checkpoint."""

    obs_dim: int = 24
    token_dim: int = 32
    n_ego: int = 48
    n_agent: int = 64
    group_size: int = 16
    encoder_hidden: int = 64
    planner_hidden: int = 64
    classifier_hidden: int = 128
    token_scale: float = basemodel.TOKEN_SCALE

    @property
    def n_code(self) -> int:
        return self.n_ego + self.n_agent


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    loss_weights: dict[str, float] = field(default_factory=dict)
    sigma_clamp: tuple[float, float] = losses.DEFAULT_SIGMA_CLAMP
    triplet_margin: float = losses.DEFAULT_TRIPLET_MARGIN
    gp_weight: float = 1.0  # weight of the teacher-regularization total

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("seed is mandatory")
        for name in ("epochs_stage1", "epochs_stage2", "epochs_stage3",
                     "adapt_epochs", "batch_size"):
            if getattr(self, name) < 0 or (name == "batch_size" and self.batch_size < 1):
                raise ValueError(f"{name} must be positive")
        for name in ("lr_stage12", "lr_stage3", "beta1", "beta2", "eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        lo, hi = self.sigma_clamp
        if not (0 < lo < hi):
            raise ValueError("sigma_clamp must satisfy 0 < lo < hi")


@dataclass
class Model:
    cb: Codebook
    base: BaseModelParams
    clf: GroupClassifier
    gp: GpParams

    def clone(self) -> "Model":
        return copy.deepcopy(self)


class Adam:
    """Adam with bias correction; updates parameter arrays in place."""

    def __init__(self, params: dict[str, Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data[...] = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# --- parameter registries ----------------------------------------------------


def base_param_tensors(model: Model) -> dict[str, Tensor]:
    b = model.base
    out = {}
    for n in PARAM_NAMES:
        arr = np.ascontiguousarray(getattr(b, n), dtype=np.float64)
        setattr(b, n, arr)  # tensors alias the model arrays
        t = Tensor(arr)
        t.requires_grad = True
        out[f"base.{n}"] = t
    return out


def gp_param_tensors(model: Model) -> dict[str, Tensor]:
    g = model.gp
    out = {}
    for n in GP_SCALAR_NAMES:
        out[f"gp.{n}"] = autodiff.parameter(np.array(getattr(g, n), dtype=np.float64))
    for n in CLASSIFIER_NAMES:
        arr = np.ascontiguousarray(getattr(model.clf, n), dtype=np.float64)
        setattr(model.clf, n, arr)
        t = Tensor(arr)
        t.requires_grad = True
        out[f"clf.{n}"] = t
    for grp in model.cb.groups:
        grp.basis_tokens = np.ascontiguousarray(grp.basis_tokens, dtype=np.float64)
        t = Tensor(grp.basis_tokens)
        t.requires_grad = True
        out[f"cb.group{grp.group_id:03d}.basis"] = t
    return out


def gp_graph(cb: Codebook, params: dict[str, Tensor]) -> GpGraph:
    """One step's differentiable GP module over the ``gp_param_tensors``."""
    return GpGraph(
        cb, [params[f"cb.group{g.group_id:03d}.basis"] for g in cb.groups],
        {n: params[f"clf.{n}"] for n in CLASSIFIER_NAMES},
        *(params[f"gp.{n}"] for n in GP_SCALAR_NAMES))


def _sync_gp_scalars(model: Model, params: dict[str, Tensor]) -> None:
    for n in GP_SCALAR_NAMES:
        setattr(model.gp, n, float(params[f"gp.{n}"].data))


def _project_noise(params: dict[str, Tensor], sigma_clamp) -> None:
    lo, hi = np.log(sigma_clamp[0]), np.log(sigma_clamp[1])
    for n in ("gp.log_noise_recon", "gp.log_noise_traj"):
        if n in params:
            params[n].data[...] = np.clip(params[n].data, lo, hi)


# --- row layout ----------------------------------------------------------------


@dataclass
class Batch:
    """One optimizer step's rows: the scenes' ego rows, then their agent rows.

    ``rows`` index the ``SceneTable`` row arrays. The j-th scene's ego row
    is batch row j and its agents are batch rows
    ``agent_bounds[j]:agent_bounds[j + 1]``.
    """

    rows: np.ndarray
    n_ego: int
    agent_bounds: np.ndarray
    obs: np.ndarray  # (N, obs_dim)
    admissible: np.ndarray  # (N, n_code) bool
    gt: np.ndarray | None  # (N, 12)
    labels: np.ndarray | None  # (N,)

    @property
    def scene_of_row(self) -> np.ndarray:
        """Position of each row's scene within the batch."""
        scenes = np.arange(self.n_ego)
        return np.concatenate([scenes, np.repeat(scenes, np.diff(self.agent_bounds))])


class SceneTable:
    """One training call's scenes in row layout, built once per call.

    Rows are every ego observation in record order, then every agent
    observation in record order, with each row's admissible-group mask and,
    when ``labeled``, its ground truth and label.
    """

    def __init__(self, records: list[SceneRecord], cb: Codebook, labeled: bool):
        if not records:
            raise TrainingError("dataset is empty")
        self.records = records
        counts = [r.n_agents for r in records]
        self.agent_start = len(records) + np.concatenate([[0], np.cumsum(counts)])
        self.obs = np.stack([r.ego_obs for r in records]
                            + [a for r in records for a in r.agent_obs])
        self.admissible = np.concatenate([
            ego_admissible(cb, [r.command for r in records]),
            np.tile(admissible_mask(cb, Role.agent()), (sum(counts), 1))])
        self.gt = self.labels = None
        if labeled:
            for r in records:
                if len(r.agent_gt or []) != r.n_agents:
                    raise TrainingError(
                        f"scene {r.scene_id}: {r.n_agents} agent observations but "
                        f"{len(r.agent_gt or [])} agent trajectories")
            self.gt = np.stack([r.ego_gt.flat for r in records]
                               + [t.flat for r in records for t in r.agent_gt])
            self.labels = scene_labels(self, cb)

    def __len__(self) -> int:
        return len(self.records)

    def batch(self, scenes: np.ndarray) -> Batch:
        """The rows of ``scenes`` (record indices, ascending)."""
        agents = [np.arange(self.agent_start[i], self.agent_start[i + 1])
                  for i in scenes]
        rows = np.concatenate([scenes] + agents).astype(np.intp)
        bounds = len(scenes) + np.concatenate([[0], np.cumsum([len(a) for a in agents])])
        return Batch(
            rows=rows, n_ego=len(scenes), agent_bounds=bounds,
            obs=self.obs[rows], admissible=self.admissible[rows],
            gt=None if self.gt is None else self.gt[rows],
            labels=None if self.labels is None else self.labels[rows])


def scene_labels(table: SceneTable, cb: Codebook) -> np.ndarray:
    """Ground-truth classes of every table row, in one vectorized pass: the
    nearest admissible trajectory anchor."""
    return nearest_group(cb, table.gt, table.admissible)


@dataclass(frozen=True)
class StageTables:
    """Codebook constants of one training call."""

    traj_anchors: np.ndarray  # (n_code, 12)
    token_anchors: np.ndarray  # (n_code, D), constant while the GP side is frozen
    positives: np.ndarray  # (n_code, 3) triplet classes of each label
    negatives: np.ndarray  # (n_code, 3)

    @classmethod
    def of(cls, cb: Codebook) -> "StageTables":
        positives, negatives = triplet_table(cb)
        return cls(cb.traj_anchors(), cb.token_anchors(), positives, negatives)


# --- step losses -----------------------------------------------------------------


def base_supervised_loss(batch: Batch, student: StudentRows) -> dict[str, Tensor]:
    """Ground-truth terms of a base-model step: anchored-waypoint MSE plus class CE.

    The planning trajectory is assembled from the label group's anchor
    (winner-takes-all convention); logits learn the label through CE.
    """
    plan, motion = role_sums(traj_mse(student.traj, batch.gt), batch.n_ego)
    ce_ego, ce_agent = role_sums(
        cross_entropy(student.logits, batch.admissible, batch.labels), batch.n_ego)
    return {"base_plan": plan, "base_class_ce_ego": ce_ego,
            "base_motion": motion, "base_class_ce_agent": ce_agent}


def _teacher_rows(teacher: GpInference, batch: Batch, tokens: np.ndarray,
                 tables: StageTables) -> TeacherRows:
    """The frozen GP module's prediction for every row, in one call."""
    mean, variance, logits, label = teacher.predict_rows(tokens, batch.admissible)
    return TeacherRows(mean=mean, variance=variance, logits=logits, label=label,
                       positives=tables.positives[label],
                       negatives=tables.negatives[label])


def finetune_scene_loss(batch: Batch, bvars: dict[str, Tensor], model: Model,
                        teacher: GpInference | None, cfg: TrainConfig,
                        tables: StageTables) -> LossBreakdown:
    """Loss of one base-model step, over the batch's rows.

    Ground-truth terms when the batch carries labels, plus the teacher
    regularization scaled by ``cfg.gp_weight`` when a teacher is given. The
    trajectory anchor is the label's group when supervised, else the
    teacher's class.
    """
    v = {k.split(".", 1)[1]: t for k, t in bvars.items()}
    tokens = encode_t(batch.obs, v, model.base.token_scale)
    logits, residual = planner_t(tokens, v, model.base.n_code)
    taught = None if teacher is None else _teacher_rows(teacher, batch,
                                                        tokens.data, tables)
    anchor_gid = batch.labels if batch.labels is not None else taught.label
    traj = autodiff.add(Tensor(tables.traj_anchors[anchor_gid]), residual)
    student = StudentRows(n_ego=batch.n_ego, traj=traj, logits=logits,
                          admissible=batch.admissible, token=tokens)
    terms = {} if batch.labels is None else base_supervised_loss(batch, student)
    breakdown = LossBreakdown(terms=terms, weights=dict(cfg.loss_weights))
    if taught is not None:
        teacher_bd = loss_gp_teacher(
            student, taught, tables.token_anchors, weights=cfg.loss_weights,
            sigma_clamp=cfg.sigma_clamp, margin=cfg.triplet_margin)
        scaled = {k: autodiff.mul(t, cfg.gp_weight)
                  for k, t in teacher_bd.terms.items()}
        breakdown = breakdown.merged(LossBreakdown(scaled, dict(cfg.loss_weights)))
    return breakdown


def gp_stage_loss(batch: Batch, graph: GpGraph, tokens: np.ndarray,
                  tables: StageTables, cfg: TrainConfig) -> LossBreakdown:
    """Stage-2 loss of one step: reconstruction plus GP supervision.

    ``tokens`` are the frozen base model's token rows (constants). All rows
    are classified in one pass and conditioned on their classifier-argmax
    groups; supervision labels come from the ground truth.
    """
    features = graph.kernel_features(tokens)
    logits = graph.classifier_logits(features)
    groups = np.argmax(np.where(batch.admissible, logits.data, -np.inf), axis=1)
    recon, var_rec = graph.reconstruct(features, groups)
    mean, var_traj = graph.predict_trajectory(features, groups)
    rec = loss_rec(tokens, recon, var_rec, batch.n_ego, groups, batch.scene_of_row,
                   graph.basis_vars, weights=cfg.loss_weights,
                   sigma_clamp=cfg.sigma_clamp)
    sup = loss_sup(
        SupRows(n_ego=batch.n_ego, pred_mean=mean, variance=var_traj, logits=logits,
                admissible=batch.admissible, gt=batch.gt, label=batch.labels,
                token=tokens, positives=tables.positives[batch.labels],
                negatives=tables.negatives[batch.labels]),
        anchors=graph.group_cond()["token_anchors"], weights=cfg.loss_weights,
        sigma_clamp=cfg.sigma_clamp, margin=cfg.triplet_margin)
    return rec.merged(sup)


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
                epochs, lr, stage: str, log_path=None, post_step=None) -> None:
    """Shared loop: shuffle, one step loss per batch, Adam step, CSV log.

    The log is opened at the first step and each step's rows are flushed as
    the step ends, so a failed run keeps the steps before the failure. A GP
    conditioning that is not positive definite stops training with a
    TrainingError naming the stage, step and group.
    """
    opt = Adam(params, lr=lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    log = None
    step = 0
    try:
        for epoch in range(epochs):
            perm = rng_for(cfg.seed, "shuffle", stage, epoch).permutation(len(table))
            for start in range(0, len(table), cfg.batch_size):
                batch = table.batch(np.sort(perm[start:start + cfg.batch_size]))
                try:
                    total_bd = step_loss_fn(batch)
                except NotPSD as e:
                    raise TrainingError(f"{stage} step {step}: {e}") from e
                bad = total_bd.first_nonfinite()
                if bad is not None:
                    raise TrainingError(
                        f"non-finite loss term {bad!r} at {stage} step {step}")
                total = autodiff.mul(total_bd.total, 1.0 / batch.n_ego)
                grads = grad(total, params)
                opt.step(grads)
                if post_step is not None:
                    post_step()
                if log_path is not None:
                    log = log or _open_log(log_path)
                    csv.writer(log).writerows(
                        [[step, stage, term, f"{t.item() / batch.n_ego:.10g}"]
                         for term, t in total_bd.terms.items()]
                        + [[step, stage, "total", f"{total.item():.10g}"]])
                    log.flush()
                step += 1
    finally:
        if log is not None:
            log.close()


def build_model(records, cfg: TrainConfig, spec: ModelSpec) -> Model:
    """Codebook skeleton from clustered GT plus seeded parameter init."""
    trajs = []
    for r in records:
        if r.ego_gt is not None:
            trajs.append((r.ego_gt, r.command, True))
        for t in r.agent_gt or []:
            trajs.append((t, r.command, False))
    try:
        cb = sample_and_cluster(trajs, spec.n_ego, spec.n_agent, spec.group_size,
                                spec.token_dim, seed=cfg.seed)
    except BuildError as e:
        raise TrainingError(f"stage1 codebook build: {e}") from e
    init_basis_tokens(cb, cfg.seed)
    base = BaseModelParams.init(
        spec.obs_dim, spec.token_dim, spec.n_code, spec.encoder_hidden,
        spec.planner_hidden, rng_for(cfg.seed, "base-init"),
        token_scale=spec.token_scale)
    clf = GroupClassifier.init(spec.n_code, spec.group_size,
                               spec.classifier_hidden, rng_for(cfg.seed, "clf-init"))
    return Model(cb=cb, base=base, clf=clf, gp=GpParams())


def stage1_pretrain(records, cfg: TrainConfig, spec: ModelSpec,
                    log_path=None) -> "Checkpoint":
    """Pretrain encoder and planner on labeled source data."""
    labeled = [r for r in records if r.labeled]
    if not labeled:
        raise TrainingError("stage 1 requires a labeled dataset")
    init = Checkpoint(stage="init", model=build_model(labeled, cfg, spec),
                      train_config=cfg, model_spec=spec)
    return _finetune_base(labeled, init, cfg, use_gt=True, use_teacher=False,
                          epochs=cfg.epochs_stage1, lr=cfg.lr_stage12,
                          stage="stage1", log_path=log_path)


def stage2_fit_gp(records, ckpt: "Checkpoint", cfg: TrainConfig,
                  log_path=None) -> "Checkpoint":
    """Fit basis tokens, classifier, and kernel/noise params; base frozen."""
    labeled = [r for r in records if r.labeled]
    if not labeled:
        raise TrainingError("stage 2 requires a labeled dataset")
    model = ckpt.model.clone()
    params = gp_param_tensors(model)
    table = SceneTable(labeled, model.cb, labeled=True)
    tables = StageTables.of(model.cb)
    # frozen encoder: tokens are fixed targets, computed once, in row layout
    tokens = encode(table.obs, model.base)

    def loss_fn(batch: Batch) -> LossBreakdown:
        return gp_stage_loss(batch, gp_graph(model.cb, params), tokens[batch.rows],
                             tables, cfg)

    _run_epochs(table, cfg, params, loss_fn, epochs=cfg.epochs_stage2,
                lr=cfg.lr_stage12, stage="stage2", log_path=log_path,
                post_step=lambda: (_project_noise(params, cfg.sigma_clamp),
                                   _sync_gp_scalars(model, params)))
    _sync_gp_scalars(model, params)
    return Checkpoint(stage="stage2", model=model, train_config=cfg,
                      model_spec=ckpt.model_spec)


def _finetune_base(records, ckpt: "Checkpoint", cfg: TrainConfig, *, use_gt: bool,
                   use_teacher: bool, epochs: int, lr: float, stage: str,
                   log_path=None) -> "Checkpoint":
    """Train a copy of the checkpoint's base model; the GP side stays frozen."""
    model = ckpt.model.clone()
    bvars = base_param_tensors(model)
    teacher = None
    if use_teacher and cfg.gp_weight != 0.0:
        try:
            teacher = GpInference(model.cb, model.clf, model.gp)
        except NotPSD as e:
            raise TrainingError(f"{stage} teacher set-up: {e}") from e
    elif not use_gt:
        raise TrainingError(f"{stage}: no ground truth and no teacher leaves no loss")
    table = SceneTable(records, model.cb, labeled=use_gt)
    tables = StageTables.of(model.cb)
    _run_epochs(table, cfg, bvars,
                lambda batch: finetune_scene_loss(batch, bvars, model, teacher, cfg,
                                                  tables),
                epochs=epochs, lr=lr, stage=stage, log_path=log_path)
    return Checkpoint(stage=stage, model=model, train_config=cfg,
                      model_spec=ckpt.model_spec)


def stage3_finetune(records, ckpt: "Checkpoint", cfg: TrainConfig,
                    log_path=None) -> "Checkpoint":
    """Finetune the base model on GT plus teacher regularization; GP frozen."""
    labeled = [r for r in records if r.labeled]
    if not labeled:
        raise TrainingError("stage 3 requires a labeled dataset")
    return _finetune_base(labeled, ckpt, cfg, use_gt=True, use_teacher=True,
                          epochs=cfg.epochs_stage3, lr=cfg.lr_stage3,
                          stage="stage3", log_path=log_path)


# --- checkpoint container ------------------------------------------------------


@dataclass
class Checkpoint:
    """Versioned container of named tensors, codebook data, and config."""

    stage: str
    model: Model
    train_config: TrainConfig
    model_spec: ModelSpec

    def named_tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for n in PARAM_NAMES:
            out[f"base.{n}"] = getattr(self.model.base, n)
        for n in CLASSIFIER_NAMES:
            out[f"clf.{n}"] = getattr(self.model.clf, n)
        for n in GP_SCALAR_NAMES:
            out[f"gp.{n}"] = np.array(getattr(self.model.gp, n))
        for g in self.model.cb.groups:
            out[f"cb.group{g.group_id:03d}.basis"] = g.basis_tokens
            out[f"cb.group{g.group_id:03d}.trajs"] = g.trajectories
        return out

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tensors = self.named_tensors()
        index = []
        offset = 0
        blobs = []
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype=np.float64)  # keeps 0-d scalars 0-d
            index.append({"name": name, "shape": list(arr.shape), "offset": offset})
            blobs.append(arr.tobytes())
            offset += arr.size
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "stage": self.stage,
            "train_config": _config_dict(self.train_config),
            "model_spec": dataclasses.asdict(self.model_spec),
            "groups": [
                {"group_id": g.group_id, "kind": g.role.kind,
                 "command": g.role.command.value if g.role.command else None}
                for g in self.model.cb.groups
            ],
            "tensors": index,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for b in blobs:
                f.write(b)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        from .codebook import CodebookGroup  # local: avoids wide import surface
        from .core import Command

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
        if header.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"{path}: checkpoint schema {header.get('schema')!r} unsupported "
                f"(expected {CHECKPOINT_SCHEMA})")
        payload = raw[16 + hlen:]
        sizes = [int(np.prod(e["shape"], dtype=np.int64)) for e in header["tensors"]]
        offsets = [e["offset"] for e in header["tensors"]]
        expected = int(sum(sizes))
        if (len(payload) != 8 * expected
                or offsets != [int(o) for o in np.cumsum([0] + sizes)[:-1]]):
            raise ValueError(
                f"{path}: truncated or corrupt checkpoint: payload holds "
                f"{len(payload)} bytes, header describes {8 * expected}")
        data = np.frombuffer(payload, dtype="<f8")
        tensors = {}
        for e, size in zip(header["tensors"], sizes):
            arr = data[e["offset"]: e["offset"] + size].reshape(e["shape"]).copy()
            tensors[e["name"]] = arr

        spec = ModelSpec(**header["model_spec"])
        cfg_d = dict(header["train_config"])
        cfg_d["sigma_clamp"] = tuple(cfg_d["sigma_clamp"])
        cfg = TrainConfig(**cfg_d)

        groups = []
        command_groups: dict[Command, list[int]] = {}
        for g in header["groups"]:
            cmd = Command.from_str(g["command"]) if g["command"] else None
            role = Role(g["kind"], cmd)
            trajs = tensors[f"cb.group{g['group_id']:03d}.trajs"]
            grp = CodebookGroup(
                group_id=g["group_id"], role=role, trajectories=trajs,
                traj_anchor=trajs.mean(axis=0),
                basis_tokens=tensors[f"cb.group{g['group_id']:03d}.basis"])
            groups.append(grp)
            if cmd is not None:
                command_groups.setdefault(cmd, []).append(g["group_id"])
        cb = Codebook(groups=groups, n_ego=spec.n_ego, n_agent=spec.n_agent,
                      group_size=spec.group_size, token_dim=spec.token_dim,
                      command_groups=command_groups)
        base = BaseModelParams(
            enc_w1=tensors["base.enc_w1"], enc_b1=tensors["base.enc_b1"],
            enc_w2=tensors["base.enc_w2"], enc_b2=tensors["base.enc_b2"],
            pln_w1=tensors["base.pln_w1"], pln_b1=tensors["base.pln_b1"],
            pln_w2=tensors["base.pln_w2"], pln_b2=tensors["base.pln_b2"],
            n_code=spec.n_code, token_scale=spec.token_scale)
        clf = GroupClassifier(**{n: tensors[f"clf.{n}"] for n in CLASSIFIER_NAMES})
        gp = GpParams(**{n: float(tensors[f"gp.{n}"]) for n in GP_SCALAR_NAMES})
        return cls(stage=header["stage"], model=Model(cb, base, clf, gp),
                   train_config=cfg, model_spec=spec)


def _config_dict(cfg: TrainConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["sigma_clamp"] = list(cfg.sigma_clamp)
    return d
