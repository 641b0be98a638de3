"""Training stages end to end at toy size: determinism, checkpoints, errors,
row-batched step losses and their gradients."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from gptraj import autodiff, psdlinalg, trainer
from gptraj.adapt import active_select, adapt_supervised, adapt_unsupervised
from gptraj.basemodel import encode
from gptraj.codebook import BuildError, Role, admissible_groups
from gptraj.core import Trajectory, traj_distance
from gptraj.evalmetrics import evaluate
from gptraj.gpmodule import GpInference
from gptraj.psdlinalg import NotPSD
from gptraj.synthdomain import gen_dataset, strip_labels
from gptraj.trainer import (Checkpoint, SceneTable, StageTables, TrainingError,
                            base_param_tensors, finetune_scene_loss, scene_labels,
                            stage1_pretrain, stage2_fit_gp, stage3_finetune)

from conftest import TINY_OBS_DIM, tiny_config, tiny_domain, tiny_spec
from oracles import encode_ref, finite_difference, predict_ref

CFG = tiny_config(epochs_stage1=2, epochs_stage2=1, epochs_stage3=1, adapt_epochs=1)


@pytest.fixture(scope="module")
def target_dataset():
    domain = tiny_domain("target", noise=0.06, mirror=True, speed=(2.0, 9.0))
    return gen_dataset(domain, 24, seed=11, obs_dim=TINY_OBS_DIM)


def run_pipeline(source, target, tmp_path, tag: str) -> dict[str, bytes]:
    """Stages 1-3 then both adaptations; returns each checkpoint's bytes."""
    ckpts = {}
    ckpt = stage1_pretrain(source, CFG, tiny_spec())
    ckpts["stage1"] = ckpt
    ckpt = ckpts["stage2"] = stage2_fit_gp(source[:24], ckpt, CFG)
    ckpt = ckpts["stage3"] = stage3_finetune(source[:24], ckpt, CFG)
    ckpts["adapt_unsup"] = adapt_unsupervised(strip_labels(target), ckpt, CFG)
    ckpts["adapt_sup"] = adapt_supervised(target[:12], ckpts["adapt_unsup"], CFG)
    out = {}
    for stage, c in ckpts.items():
        path = tmp_path / f"{tag}_{stage}.bin"
        c.save(path)
        out[stage] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def pipeline_bytes(tiny_dataset, target_dataset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    return tmp, run_pipeline(tiny_dataset, target_dataset, tmp, "a")


def test_same_seed_runs_write_identical_checkpoints(pipeline_bytes, tiny_dataset,
                                                    target_dataset):
    tmp, first = pipeline_bytes
    second = run_pipeline(tiny_dataset, target_dataset, tmp, "b")
    assert list(first) == ["stage1", "stage2", "stage3", "adapt_unsup", "adapt_sup"]
    for stage in first:
        assert first[stage] == second[stage], stage


def test_checkpoint_roundtrip_is_byte_identical(pipeline_bytes, tiny_dataset):
    tmp, saved = pipeline_bytes
    for stage, blob in saved.items():
        path = tmp / f"a_{stage}.bin"
        loaded = Checkpoint.load(path)
        assert loaded.stage == stage
        resaved = tmp / f"resaved_{stage}.bin"
        loaded.save(resaved)
        assert resaved.read_bytes() == blob, stage


def test_loaded_model_evaluates_identically(pipeline_bytes, tiny_dataset):
    tmp, _ = pipeline_bytes
    ckpt = stage3_finetune(tiny_dataset[:24],
                           stage2_fit_gp(tiny_dataset[:24],
                                         stage1_pretrain(tiny_dataset, CFG, tiny_spec()),
                                         CFG), CFG)
    path = tmp / "eval.bin"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    for mode in ("base", "roca"):
        want = evaluate(tiny_dataset[24:48], ckpt.model, mode=mode)
        got = evaluate(tiny_dataset[24:48], loaded.model, mode=mode)
        assert (got.avg_l2_m, got.collision_rate_pct) == (
            want.avg_l2_m, want.collision_rate_pct)


def test_truncated_or_foreign_checkpoint_rejected_with_path(pipeline_bytes):
    tmp, saved = pipeline_bytes
    blob = saved["stage2"]
    truncated = tmp / "truncated.bin"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated or corrupt") as exc:
        Checkpoint.load(truncated)
    assert str(truncated) in str(exc.value)
    foreign = tmp / "foreign.bin"
    foreign.write_bytes(b"NOTACKPT" + blob[8:])
    with pytest.raises(ValueError, match="not a gptraj checkpoint") as exc:
        Checkpoint.load(foreign)
    assert str(foreign) in str(exc.value)


def failing_factor(fail_at: int):
    """A ``cholesky_factor`` whose ``fail_at``-th call (from 0) raises NotPSD.

    Each GP conditioning factors the groups once each, in group order, so
    call ``s * n_code + g`` is group g's factorization at step s.
    """
    calls = itertools.count()
    real = psdlinalg.cholesky_factor

    def factor(a):
        if next(calls) == fail_at:
            raise NotPSD(pivot=0, jitter=psdlinalg.JITTER_LADDER[-1])
        return real(a)

    return factor


def test_not_psd_names_stage_and_step(tiny_dataset, monkeypatch):
    ckpt = stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    ckpt2 = stage2_fit_gp(tiny_dataset[:48], ckpt, CFG)
    n_code = tiny_spec().n_code
    monkeypatch.setattr(psdlinalg, "cholesky_factor", failing_factor(n_code + 5))
    with pytest.raises(TrainingError, match="^stage2 step 1: group 5: matrix not "
                                            "positive definite") as exc:
        stage2_fit_gp(tiny_dataset[:48], ckpt, CFG)
    assert isinstance(exc.value.__cause__, NotPSD)
    assert exc.value.__cause__.group == 5
    monkeypatch.setattr(psdlinalg, "cholesky_factor", failing_factor(17))
    with pytest.raises(TrainingError, match="^stage3 teacher set-up: group 17: "
                                            "matrix not positive definite") as exc:
        stage3_finetune(tiny_dataset[:16], ckpt2, CFG)
    assert isinstance(exc.value.__cause__, NotPSD)


def test_loss_log_keeps_the_steps_before_a_failure(tiny_dataset, fitted, tmp_path,
                                                   monkeypatch):
    real = trainer.gp_stage_loss
    steps = itertools.count()

    def failing_at_step_2(*args):
        if next(steps) == 2:
            raise RuntimeError("step 2 failed")
        return real(*args)

    monkeypatch.setattr(trainer, "gp_stage_loss", failing_at_step_2)
    log = tmp_path / "loss.csv"
    with pytest.raises(RuntimeError, match="step 2 failed"):
        stage2_fit_gp(tiny_dataset[:48], fitted, CFG, log_path=log)
    rows = log.read_text().splitlines()
    assert rows[0] == "step,stage,term,value"
    assert {row.split(",")[0] for row in rows[1:]} == {"0", "1"}
    assert [row.split(",")[2] for row in rows[1:]].count("total") == 2


def test_codebook_build_error_names_stage(tiny_dataset):
    with pytest.raises(TrainingError, match="stage1 codebook build") as exc:
        stage1_pretrain(tiny_dataset[:5], CFG, tiny_spec())
    assert isinstance(exc.value.__cause__, BuildError)


def test_nonfinite_loss_raises_training_error(tiny_dataset):
    ckpt = stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    ckpt.model.base.pln_b2[:] = np.nan
    with pytest.raises(TrainingError, match="non-finite loss term .* at stage3 step 0"):
        stage3_finetune(tiny_dataset[:16], ckpt, CFG)


def test_scene_labels_match_per_scene_loop(tiny_dataset, tiny_model):
    cb = tiny_model.cb
    table = SceneTable(tiny_dataset, cb, labeled=True)
    labels = scene_labels(table, cb)

    def nearest(traj, role):
        ids = admissible_groups(cb, role)
        d = [traj_distance(traj, Trajectory.from_flat(cb.group(i).traj_anchor))
             for i in ids]
        return ids[int(np.argmin(d))]

    want = [nearest(r.ego_gt, Role.ego(r.command)) for r in tiny_dataset]
    want += [nearest(t, Role.agent()) for r in tiny_dataset for t in r.agent_gt]
    assert labels.tolist() == want


# --- the batched step loss -----------------------------------------------------


class ReplayTeacher:
    """Teacher whose row predictions are recorded once and then replayed, so that
    finite differences see the teacher as the constant the gradient treats it as."""

    def __init__(self, teacher: GpInference):
        self.teacher = teacher
        self.recorded = None

    def predict_rows(self, tokens, admissible):
        if self.recorded is None:
            self.recorded = self.teacher.predict_rows(tokens, admissible)
        return self.recorded


@pytest.fixture(scope="module")
def fitted(tiny_dataset):
    ckpt = stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    return stage2_fit_gp(tiny_dataset[:24], ckpt, CFG)


def step_loss_setup(fitted, records, use_gt: bool, use_teacher: bool):
    model = fitted.model.clone()
    bvars = base_param_tensors(model)
    teacher = ReplayTeacher(GpInference(model.cb, model.clf, model.gp)) if (
        use_teacher) else None
    table = SceneTable(records, model.cb, labeled=use_gt)
    batch = table.batch(np.arange(len(records)))
    tables = StageTables.of(model.cb)

    def loss():
        return finetune_scene_loss(batch, bvars, model, teacher, CFG, tables)

    return bvars, loss


@pytest.mark.parametrize("use_gt,use_teacher", [(True, False), (True, True),
                                                (False, True)],
                         ids=["gt", "gt+teacher", "teacher"])
def test_step_loss_gradients_match_finite_differences(fitted, tiny_dataset,
                                                      use_gt, use_teacher):
    records = tiny_dataset[:4]
    if not use_gt:
        records = strip_labels(records)
    bvars, loss = step_loss_setup(fitted, records, use_gt, use_teacher)
    grads = autodiff.grad(loss().total, bvars)
    rng = np.random.default_rng(0)
    entries = {name: rng.choice(p.data.size, size=min(6, p.data.size), replace=False)
               for name, p in bvars.items()}
    fd = finite_difference(lambda: loss().total.item(),
                           {name: p.data for name, p in bvars.items()},
                           h=1e-6, entries=entries)
    assert len(bvars) == 8  # every base parameter family
    for name, idx in entries.items():
        got, want = grads[name].reshape(-1)[idx], fd[name].reshape(-1)[idx]
        assert np.allclose(got, want, rtol=1e-5, atol=1e-7), name


def test_step_loss_is_sum_of_scene_losses(fitted, tiny_dataset):
    records = tiny_dataset[:5]
    _, loss = step_loss_setup(fitted, records, True, True)
    whole = loss().values()
    parts = [step_loss_setup(fitted, [r], True, True)[1]().values() for r in records]
    for term, value in whole.items():
        assert value == pytest.approx(sum(p[term] for p in parts), rel=1e-12,
                                      abs=1e-12), term


def test_unsupervised_without_teacher_rejected(fitted, tiny_dataset):
    cfg = dataclasses.replace(CFG, gp_weight=0.0)
    with pytest.raises(TrainingError, match="no loss"):
        adapt_unsupervised(strip_labels(tiny_dataset[:8]), fitted, cfg)


def test_gp_stage_loss_gradients_match_finite_differences(fitted, tiny_dataset):
    model = fitted.model.clone()
    params = trainer.gp_param_tensors(model)
    table = SceneTable(tiny_dataset[:4], model.cb, labeled=True)
    batch = table.batch(np.arange(4))
    tokens = encode(table.obs, model.base)
    tables = StageTables.of(model.cb)

    def loss():
        return trainer.gp_stage_loss(batch, trainer.gp_graph(model.cb, params),
                                     tokens, tables, CFG).total

    grads = autodiff.grad(loss(), params)
    rng = np.random.default_rng(1)
    entries = {name: rng.choice(p.data.size, size=min(3, p.data.size), replace=False)
               for name, p in params.items()}
    # the summed step loss is O(1e3): at h = 1e-5 central differences carry
    # about 1e-7 of rounding and truncation error, and move no row's group
    fd = finite_difference(lambda: loss().item(),
                           {name: p.data for name, p in params.items()},
                           h=1e-5, entries=entries)
    families = {name.split(".")[0] if name.startswith("cb.") else name for name in params}
    assert families == {"cb", "clf.w1", "clf.b1", "clf.w2", "clf.b2", "gp.log_lengthscale",
                        "gp.log_outputscale", "gp.log_noise_recon", "gp.log_noise_traj"}
    for name, idx in entries.items():
        got, want = grads[name].reshape(-1)[idx], fd[name].reshape(-1)[idx]
        assert np.allclose(got, want, rtol=1e-5, atol=1e-6), name


def test_active_select_ranking_matches_per_scene_reference(fitted, target_dataset):
    records = strip_labels(target_dataset)
    rep = active_select(records, fitted, budget=0.5)
    model = fitted.model
    want = []
    for r in records:
        ego, _ = encode_ref(r, model.base)
        want.append((r.scene_id, predict_ref(ego.values, Role.ego(r.command), model)[1]))
    want.sort(key=lambda t: (-t[1], t[0]))
    assert [sid for sid, _ in rep.rows] == [sid for sid, _ in want]
    assert np.allclose([v for _, v in rep.rows], [v for _, v in want], rtol=0, atol=1e-12)
    assert rep.selected == [sid for sid, _ in want[:len(records) // 2]]
