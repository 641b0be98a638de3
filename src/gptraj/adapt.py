"""Target-domain adaptation and uncertainty-driven active selection.

Adaptation never touches the GP side: both modes finetune the base model
with the frozen GP module as teacher, using ground truth additionally when
available. Active selection ranks scenes by the ego prediction's scalar GP
variance (descending) and keeps the top budget fraction; the random strategy
is the seeded baseline.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .basemodel import encode
from .core import SceneRecord, rng_for, scene_rows
from .trainer import (Checkpoint, TrainConfig, TrainingError, finetune_base,
                      frozen_gp_predict)


@dataclass
class SelectionReport:
    """Variance ranking plus the selected subset for one strategy run."""

    rows: list[tuple[str, float]]  # (scene_id, scalar_variance), ranked
    selected: list[str]
    strategy: str

    def write_csv(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        chosen = set(self.selected)
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["scene_id", "variance", "selected", "strategy"])
            for sid, var in self.rows:
                w.writerow([sid, f"{var:.10g}", int(sid in chosen), self.strategy])


def adapt_unsupervised(records: list[SceneRecord], ckpt: Checkpoint,
                       cfg: TrainConfig, log_path=None) -> Checkpoint:
    """Finetune the base model with the teacher loss only; labels are ignored."""
    labeled = sum(r.labeled for r in records)
    if labeled:
        warnings.warn(f"adapt_unsup: ground truth present on {labeled} scenes, ignoring it")
    return finetune_base(scene_rows(records, labeled=False), ckpt.model.clone(), cfg,
                         use_teacher=True, epochs=cfg.adapt_epochs, lr=cfg.lr_stage3,
                         stage="adapt_unsup", log_path=log_path)


def adapt_supervised(records: list[SceneRecord], ckpt: Checkpoint,
                     cfg: TrainConfig, log_path=None) -> Checkpoint:
    """Finetune with ground-truth losses plus the teacher regularization."""
    missing = [r.scene_id for r in records if not r.labeled]
    if missing:
        raise TrainingError(f"adapt_sup: ground truth missing on {len(missing)} "
                            f"scenes (first: {missing[0]})")
    return finetune_base(scene_rows(records, labeled=True), ckpt.model.clone(), cfg,
                         use_teacher=True, epochs=cfg.adapt_epochs, lr=cfg.lr_stage3,
                         stage="adapt_sup", log_path=log_path)


def active_select(records: list[SceneRecord], ckpt: Checkpoint, budget: float,
                  strategy: str = "variance", *, seed: int) -> SelectionReport:
    """Rank scenes by ego predictive variance and keep the top budget fraction.

    It keeps ceil(budget * n) of the n scenes, with the budget taken as the
    decimal it is written as. Ties break by ascending scene_id, so the
    ranking is invariant to dataset order, and selections nest across
    budgets. The random strategy draws a uniform sample without replacement
    from the stream of ``seed``.
    """
    if not records:
        raise TrainingError("active selection on an empty dataset")
    if not (0.0 < budget <= 1.0):
        raise ValueError(f"budget must be in (0, 1], got {budget}")
    if strategy not in ("variance", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")

    model = ckpt.model
    tokens = encode(np.array([r.ego_obs for r in records]), model.tensors)
    _, variance, _, _ = frozen_gp_predict(model, tokens, [r.command for r in records],
                                          "active-select GP")
    scored = [(r.scene_id, v) for r, v in zip(records, variance.tolist())]
    scored.sort(key=lambda t: (-t[1], t[0]))

    # the budget as written, so that 0.07 of 100 scenes is 7, not the 8 of
    # ceil(7.000000000000001)
    k = math.ceil(Fraction(str(float(budget))) * len(records))
    if strategy == "variance":
        selected = [sid for sid, _ in scored[:k]]
    else:
        ids = sorted(r.scene_id for r in records)
        rng = rng_for(seed, "active-random")
        perm = rng.permutation(len(ids))
        selected = [ids[i] for i in perm[:k]]
    return SelectionReport(rows=scored, selected=selected, strategy=strategy)
