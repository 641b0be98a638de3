"""Training stages end to end at toy size: determinism, checkpoints, errors,
row-batched step losses and their gradients."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import struct
import warnings
import weakref

import numpy as np
import pytest

from gptraj import autodiff, codebook, losses, psdlinalg, trainer
from gptraj.adapt import active_select, adapt_supervised, adapt_unsupervised
from gptraj.basemodel import TOKEN_SCALE, encode
from gptraj.codebook import BuildError
from gptraj.core import scene_rows
from gptraj.evalmetrics import evaluate
from gptraj.gpmodule import GpGraph, GpInference
from gptraj.losses import step_total, teacher_log_softmax
from gptraj.psdlinalg import NotPSD
from gptraj.synthdomain import gen_dataset, strip_labels
from gptraj.trainer import (BASE_PARAMS, GP_PARAMS, Checkpoint, SceneTable,
                            TrainingError, finetune_scene_loss, scene_labels,
                            stage1_pretrain, stage2_fit_gp, stage3_finetune)

from composed import (composed_classifier, composed_nll, composed_role_sums,
                      composed_traj_mse, composed_triplet)
from conftest import (TINY_OBS_DIM, GramSpy, grad_map, parameter, tiny_config,
                      tiny_domain, tiny_spec)
from oracles import (adam_ref, encode_ref, finite_difference, group_ids_ref,
                     init_tensors_ref, predict_ref, traj_distance)

CFG = tiny_config(epochs_stage1=2, epochs_stage2=1, epochs_stage3=1, adapt_epochs=1)


def total(terms):
    """A step's terms weighted as the training loop weights them, unscaled."""
    return step_total(terms, CFG.loss_weights, 1)[0]


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


def test_each_stage_changes_exactly_its_own_tensors(tiny_dataset, target_dataset):
    stages = [
        ("stage2", lambda c: stage2_fit_gp(tiny_dataset[:24], c, CFG),
         ("gp.", "clf.", "cb.basis")),
        ("stage3", lambda c: stage3_finetune(tiny_dataset[:24], c, CFG), ("base.",)),
        ("adapt_unsup", lambda c: adapt_unsupervised(strip_labels(target_dataset), c, CFG),
         ("base.",)),
        ("adapt_sup", lambda c: adapt_supervised(target_dataset[:12], c, CFG), ("base.",)),
    ]
    ckpt = stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    for stage, train, own in stages:
        before = {k: v.tobytes() for k, v in ckpt.model.tensors.items()}
        out = train(ckpt)
        assert {k: v.tobytes() for k, v in ckpt.model.tensors.items()} == before, stage
        changed = {k for k, v in out.model.tensors.items() if v.tobytes() != before[k]}
        assert changed == {k for k in before if k.startswith(own)}, stage
        ckpt = out


@pytest.mark.parametrize("spec", [
    tiny_spec(),
    # unequal widths everywhere, so a transposed shape or a swapped stream shows
    dataclasses.replace(tiny_spec(), obs_dim=20, token_dim=6, encoder_hidden=10,
                        planner_hidden=14, classifier_hidden=18),
], ids=["tiny", "unequal"])
def test_build_model_draws_match_init_oracle(tiny_dataset, spec):
    model = trainer.build_model(scene_rows(tiny_dataset, labeled=True), CFG, spec)
    want = init_tensors_ref(spec, CFG.seed, model.tensors["cb.trajs"])
    assert list(model.tensors) == list(spec.tensor_shapes()) == list(want)
    assert ([(k, v.dtype, v.shape, v.tobytes()) for k, v in model.tensors.items()]
            == [(k, v.dtype, v.shape, v.tobytes()) for k, v in want.items()])
    assert model.cb.trajectories is model.tensors["cb.trajs"]


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
    # one float short, then one float long
    for name, changed in (("truncated.bin", blob[:-8]), ("long.bin", blob + bytes(8))):
        path = tmp / name
        path.write_bytes(changed)
        with pytest.raises(ValueError, match="truncated or corrupt") as exc:
            Checkpoint.load(path)
        assert str(path) in str(exc.value)
    foreign = tmp / "foreign.bin"
    foreign.write_bytes(b"NOTACKPT" + blob[8:])
    with pytest.raises(ValueError, match="not a gptraj checkpoint") as exc:
        Checkpoint.load(foreign)
    assert str(foreign) in str(exc.value)


def split(blob: bytes) -> tuple[dict, np.ndarray]:
    """The parsed header and the float64 payload of the checkpoint ``blob``."""
    hlen = struct.unpack("<Q", blob[8:16])[0]
    return json.loads(blob[16:16 + hlen]), np.frombuffer(blob[16 + hlen:], dtype="<f8")


def spec_offsets(spec) -> dict[str, int]:
    """Each tensor's offset, in floats, into a payload that holds the tensors
    back to back in ``tensor_shapes()`` order."""
    shapes = spec.tensor_shapes()
    sizes = [math.prod(shape) for shape in shapes.values()]
    return dict(zip(shapes, np.cumsum([0] + sizes[:-1]).tolist()))


def test_checkpoint_is_header_then_tensors_in_spec_order(tmp_path):
    spec = tiny_spec()
    rng = np.random.default_rng(3)
    tensors = {name: rng.normal(size=shape) for name, shape in spec.tensor_shapes().items()}
    # a big-endian, column-major tensor is written as little-endian rows too
    tensors["base.enc_w1"] = np.asfortranarray(tensors["base.enc_w1"]).astype(">f8")
    path = tmp_path / "layout.bin"
    Checkpoint(stage="stage2", model=trainer.Model(spec, tensors), train_config=CFG).save(path)
    blob = path.read_bytes()
    header, payload = split(blob)
    assert blob[:8] == trainer.CHECKPOINT_MAGIC
    assert header == {"schema": 3, "stage": "stage2", "train_config": dataclasses.asdict(CFG),
                      "model_spec": dataclasses.asdict(spec)}
    assert payload.size == sum(a.size for a in tensors.values())
    for name, offset in spec_offsets(spec).items():
        a = tensors[name]
        assert np.array_equal(payload[offset:offset + a.size], a.ravel()), name
    assert payload.tobytes() == b"".join(tensors[name].astype("<f8").tobytes(order="C")
                                         for name in spec.tensor_shapes())


def edited_header(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with ``edit`` applied to its parsed header:
    ``edit`` changes the header in place or returns the one to write."""
    hlen = struct.unpack("<Q", blob[8:16])[0]
    header = json.loads(blob[16:16 + hlen])
    replaced = edit(header)
    text = json.dumps(header if replaced is None else replaced,
                      sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen:]


def rejected(tmp, blob: bytes, name: str, match: str) -> None:
    """Loading ``blob`` raises a one-line ValueError naming the file."""
    path = tmp / name
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=match) as exc:
        Checkpoint.load(path)
    assert str(path) in str(exc.value) and "\n" not in str(exc.value)


@pytest.mark.parametrize("change, match", [
    ({"n_wheels": 4}, "n_wheels"),
    # same n_code, but no layout of 13 ego groups into equal thirds
    ({"n_ego": 13, "n_agent": 6}, "n_ego 13 is not a multiple of 3"),
    ({"encoder_hidden": 0}, "encoder_hidden must be positive"),
], ids=["change0-n_wheels", "change1-n_ego 13 is not a multiple of 3",
        "change2-encoder_hidden must be positive"])
def test_checkpoint_bad_model_spec_rejected_with_path(pipeline_bytes, change, match):
    tmp, saved = pipeline_bytes
    rejected(tmp, edited_header(saved["stage2"], lambda h: h["model_spec"].update(change)),
             "spec.bin", f"bad checkpoint header: .*{match}")


def drop_stage(header):
    del header["stage"]


@pytest.mark.parametrize("edit, match", [
    (drop_stage, r"KeyError\('stage'\)"),
    (lambda h: h.update(stage=3), "stage must be a string, got 3"),
    (lambda h: [h], "the root is a list, not an object"),
], ids=["no-stage", "int-stage", "list-root"])
def test_checkpoint_malformed_header_rejected_with_path(pipeline_bytes, edit, match):
    tmp, saved = pipeline_bytes
    rejected(tmp, edited_header(saved["stage2"], edit), "header.bin",
             f"bad checkpoint header: .*{match}")


@pytest.mark.parametrize("change, match", [
    ({"loss_weights": {"recon_egoo": 1.0}}, r"unknown loss weight names: \['recon_egoo'\]"),
    ({"loss_weights": {"plan_nll": "x"}}, "loss weight plan_nll must be a finite number"),
    ({"loss_weights": {"plan_nll": float("nan")}}, "must be a finite number, got nan"),
    # Adam's betas and the sigma band are constants: a header naming one is rejected
    ({"beta1": 1.0}, "unexpected keyword argument 'beta1'"),
    ({"batch_size": 2.5}, "batch_size must be an integer, got 2.5"),
    ({"lr_stage3": float("nan")}, "lr_stage3 must be a finite number, got nan"),
    ({"sigma_clamp": [1e-3, float("inf")]}, "unexpected keyword argument 'sigma_clamp'"),
], ids=["weight-name", "string-weight", "nan-weight", "beta1", "float-batch",
        "nan-lr", "inf-sigma-clamp"])
def test_checkpoint_bad_train_config_rejected_with_path(pipeline_bytes, change, match):
    tmp, saved = pipeline_bytes
    rejected(tmp, edited_header(saved["stage2"], lambda h: h["train_config"].update(change)),
             "train.bin", f"bad checkpoint header: .*{match}")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_checkpoint_non_finite_tensor_rejected_with_path(pipeline_bytes, value):
    tmp, saved = pipeline_bytes
    blob = saved["stage2"]
    offset = spec_offsets(tiny_spec())
    payload = split(blob)[1].copy()
    head = blob[:len(blob) - payload.nbytes]
    # the first such tensor in tensor_shapes() order is named: gp.* comes
    # before cb.basis there, though not by name
    for name in ("cb.basis", "gp.log_noise_traj"):
        payload[offset[name]] = value
        rejected(tmp, head + payload.tobytes(), "nonfinite.bin",
                 f"checkpoint tensor {name} holds non-finite values")
    finite = tmp / "finite.bin"
    finite.write_bytes(blob)
    assert Checkpoint.load(finite).model.tensors.keys() == offset.keys()


def schema_2(blob: bytes) -> bytes:
    """The checkpoint ``blob`` as schema 2 wrote it: the header also held
    ``beta1``, ``beta2``, ``eps``, ``sigma_clamp``, ``triplet_margin`` and
    ``token_scale``, and each tensor's name, shape and offset, and the
    tensors followed in name order."""
    header, payload = split(blob)
    spec = trainer.ModelSpec(**header["model_spec"])
    shapes, offset = spec.tensor_shapes(), spec_offsets(spec)
    names = sorted(shapes)
    sizes = [math.prod(shapes[name]) for name in names]
    header["train_config"].update(beta1=0.9, beta2=0.999, eps=1e-8,
                                  sigma_clamp=[1e-3, 1e3], triplet_margin=1.0)
    header["model_spec"]["token_scale"] = 3.0
    header.update(schema=2, tensors=[
        {"name": name, "shape": list(shapes[name]), "offset": start}
        for name, start in zip(names, np.cumsum([0] + sizes[:-1]).tolist())])
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(text)) + text + b"".join(
        payload[offset[name]:offset[name] + size].tobytes()
        for name, size in zip(names, sizes))


def test_schema_1_checkpoint_rejected(pipeline_bytes):
    tmp, saved = pipeline_bytes
    rejected(tmp, edited_header(saved["stage2"], lambda h: h.update(schema=1)),
             "schema1.bin", "checkpoint schema 1 unsupported \\(expected 3\\)")
    rejected(tmp, schema_2(saved["stage2"]), "schema2.bin",
             "checkpoint schema 2 unsupported \\(expected 3\\)")


def test_adam_step_is_bit_identical_to_out_of_place_update():
    block = trainer.ADAM_BLOCK
    for shapes in [
        {"s": (), "v": (7,), "t": (3, 4, 5)},
        {"v": (block - 2,), "s": ()},  # below one block
        {"t": (block // 8, 8)},  # exactly one block
        {"v": (block - 3,), "t": (2, 5), "s": ()},  # "t" straddles the boundary
        {"s": (), "v": (5,), "t": (3, block - 1), "u": (block + 7,)},  # several
    ]:
        rng = np.random.default_rng(41)
        params = {k: parameter(rng.normal(size=sh)) for k, sh in shapes.items()}
        opt = trainer.Adam(params, lr=0.01)
        ref = {k: (p.data.copy(), np.zeros(sh), np.zeros(sh))
               for (k, p), sh in zip(params.items(), shapes.values())}
        for t in range(1, 6):
            grads = {k: rng.normal(size=sh) for k, sh in shapes.items()}
            for k, g in grads.items():
                opt.grads[k][...] = g
            opt.step()
            for k, p in params.items():
                p_ref, m_ref, v_ref = ref[k]
                # the shipped betas and eps, as literals
                ref[k] = adam_ref(p_ref, grads[k], m_ref, v_ref, t, 0.01, 0.9, 0.999,
                                  1e-8)
                # m and v feed every later step, so a wrong moment shows here
                assert p.data.tobytes() == ref[k][0].tobytes()


def test_gradients_live_only_in_the_callers_buffers():
    # no tensor keeps a gradient after grad and a step, so a later grad into
    # the same spent buffers gives a fresh call's bytes
    rng = np.random.default_rng(6)
    params = {"w": parameter(rng.normal(size=(3, 2))), "b": parameter(rng.normal(size=2))}
    x, c = rng.normal(size=(5, 3)), autodiff.Tensor(rng.normal(size=(5, 2)))
    h = autodiff.add(autodiff.matmul(x, params["w"]), params["b"])
    first = autodiff.tsum(autodiff.mul(autodiff.square(h), c))
    opt = trainer.Adam(params, lr=0.1)
    autodiff.grad(first, params, out=opt.grads)
    opt.step()
    tape, stack = [], [first]
    while stack:
        tape.append(stack.pop())
        stack.extend(tape[-1]._parents)
    assert {id(t) for t in tape} >= {id(c), *map(id, params.values())}
    assert not any(hasattr(t, "grad") for t in tape)
    second = autodiff.tsum(autodiff.tanh(autodiff.matmul(x, params["w"])))
    want = grad_map(second, params)
    got = autodiff.grad(second, params, out=opt.grads)
    assert {n: g.tobytes() for n, g in got.items()} == {
        n: g.tobytes() for n, g in want.items()}
    assert not got["b"].any()  # the second loss does not reach b


def test_not_psd_names_stage_and_step(tiny_dataset, monkeypatch):
    # a routed group whose Gram matrix is not positive definite stops the run
    # at the step that conditions it, and is named by its codebook id
    ckpt = stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    spy = GramSpy()
    monkeypatch.setattr(psdlinalg, "group_gram_t", spy)
    ckpt2 = stage2_fit_gp(tiny_dataset[:48], ckpt, CFG)
    group = spy.renumbered(1)
    monkeypatch.setattr(psdlinalg, "group_gram_t", GramSpy(corrupt=group, at=1))
    with pytest.raises(TrainingError, match=f"^stage2 step 1: group {group}: matrix "
                                            "not positive definite") as exc:
        stage2_fit_gp(tiny_dataset[:48], ckpt, CFG)
    assert isinstance(exc.value.__cause__, NotPSD)
    assert exc.value.__cause__.group == group
    # the teacher conditions the groups of all its rows in one pass before
    # the first step, so its failure names the stage's teacher, not a step
    spy = GramSpy()
    monkeypatch.setattr(psdlinalg, "group_gram_t", spy)
    stage3_finetune(tiny_dataset[:16], ckpt2, CFG)
    assert len(spy.ids) == 1
    group = spy.renumbered(0)
    monkeypatch.setattr(psdlinalg, "group_gram_t", GramSpy(corrupt=group, at=0))
    with pytest.raises(TrainingError, match=f"^stage3 teacher: group {group}: matrix "
                                            "not positive definite") as exc:
        stage3_finetune(tiny_dataset[:16], ckpt2, CFG)
    assert "\n" not in str(exc.value)
    assert isinstance(exc.value.__cause__, NotPSD)
    assert exc.value.__cause__.group == group


def test_a_step_loss_value_error_names_stage_and_step(fitted, tiny_dataset, monkeypatch):
    # a step loss's ValueError (here the NLL's, from a taught table whose
    # variances are zeroed) stops the run as a TrainingError, chained
    real = SceneTable.teach

    def teach(self, model):
        real(self, model)
        self.t_variance[:] = 0.0

    monkeypatch.setattr(SceneTable, "teach", teach)
    with pytest.raises(TrainingError,
                       match="^stage3 step 0: non-positive variance") as exc:
        stage3_finetune(tiny_dataset[:24], fitted, CFG)
    assert type(exc.value.__cause__) is ValueError


@pytest.mark.parametrize("what", ["eval", "active-select"])
def test_frozen_gp_not_psd_names_the_pass_and_group(fitted, tiny_dataset, monkeypatch,
                                                    what):
    # roca-mode eval and active selection condition the groups of all their
    # rows in one predict_rows pass; a failure names the pass and the group
    # by its codebook id
    records = tiny_dataset[:32]
    run = {"eval": lambda: evaluate(records, fitted.model, mode="roca"),
           "active-select": lambda: active_select(records, fitted, budget=0.5, seed=0),
           }[what]
    spy = GramSpy()
    monkeypatch.setattr(psdlinalg, "group_gram_t", spy)
    run()
    assert len(spy.ids) == 1
    group = spy.renumbered(0)
    monkeypatch.setattr(psdlinalg, "group_gram_t", GramSpy(corrupt=group, at=0))
    with pytest.raises(TrainingError, match=f"^{what} GP: group {group}: matrix "
                                            "not positive definite") as exc:
        run()
    assert isinstance(exc.value.__cause__, NotPSD)
    assert exc.value.__cause__.group == group


def test_stage2_step_factors_only_its_routed_groups(fitted, tiny_dataset, monkeypatch,
                                                   factored):
    # each step inverts one stack, of its routed groups, which both heads read
    calls, routed, inverted = [], [], []
    real_loss, real_route = trainer.gp_stage_loss, GpGraph.route
    real_inverse = psdlinalg.psd_inverse

    def gp_stage_loss(*args):
        calls.append(len(inverted))
        return real_loss(*args)

    def route(graph, tokens, admissible):
        out = real_route(graph, tokens, admissible)
        routed.append(len(np.unique(out[2])))
        return out

    def psd_inverse(a):
        inverted.append(a.shape[0])
        return real_inverse(a)

    monkeypatch.setattr(trainer, "gp_stage_loss", gp_stage_loss)
    monkeypatch.setattr(GpGraph, "route", route)
    monkeypatch.setattr(psdlinalg, "psd_inverse", psd_inverse)
    stage2_fit_gp(tiny_dataset[:48], fitted, CFG)
    assert calls == [0, 1, 2] and len(inverted) == 3  # one inverse per step
    assert inverted == factored == routed
    assert max(routed) < fitted.model.cb.n_code


def failing_on(matrix: np.ndarray):
    """The real ``cholesky_factor``, except that every matrix of a stack
    equal to ``matrix`` is replaced by -I."""
    real = psdlinalg.cholesky_factor

    def factor(a):
        hit = np.all(a == matrix, axis=(-2, -1))
        return real(np.where(hit[..., None, None], -np.eye(a.shape[-1]), a))

    return factor


def test_only_routed_groups_are_factored(fitted, tiny_dataset, monkeypatch):
    # a group no row is routed to is never factored, so a Gram matrix of it
    # that is not positive definite changes nothing, while a routed group's
    # fails the step that routes to it
    model = fitted.model
    basis = model.tensors["cb.basis"]
    grams = psdlinalg.kernel_matrix(basis, basis,
                                    model.tensors["gp.log_lengthscale"],
                                    model.tensors["gp.log_outputscale"])
    spy = GramSpy()
    monkeypatch.setattr(psdlinalg, "group_gram_t", spy)
    want = stage3_finetune(tiny_dataset[:32], fitted, CFG).model.tensors
    routed = np.unique(np.concatenate(spy.ids))
    assert sum(map(len, spy.ids)) == len(routed)  # each routed group once
    unrouted = np.setdiff1d(np.arange(model.cb.n_code), routed)
    assert len(unrouted) > 0
    group = int(spy.ids[0][-1])  # routed by the teacher pass
    monkeypatch.setattr(psdlinalg, "cholesky_factor", failing_on(grams[unrouted[0]]))
    got = stage3_finetune(tiny_dataset[:32], fitted, CFG).model.tensors
    assert all(got[name].tobytes() == want[name].tobytes() for name in want)
    monkeypatch.setattr(psdlinalg, "cholesky_factor", failing_on(grams[group]))
    with pytest.raises(TrainingError, match=f"^stage3 teacher: group {group}: matrix "
                                            "not positive definite"):
        stage3_finetune(tiny_dataset[:32], fitted, CFG)


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


def test_training_rejects_scene_without_agent_gt(tiny_dataset, fitted):
    rec = next(r for r in tiny_dataset if r.n_agents)
    records = [dataclasses.replace(r, agent_gt=None) if r is rec else r
               for r in tiny_dataset]
    message = (f"^scene {rec.scene_id}: {rec.n_agents} agent observations but 0 "
               f"agent trajectories$")
    # stage 1 through the codebook build, stage 2 through its scene table
    with pytest.raises(ValueError, match=message):
        stage1_pretrain(records, CFG, tiny_spec())
    with pytest.raises(ValueError, match=message):
        stage2_fit_gp(records, fitted, CFG)


def test_nonfinite_loss_raises_training_error(tiny_dataset):
    ckpt = stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    ckpt.model.tensors["base.pln_b2"][:] = np.nan
    with pytest.raises(TrainingError, match="^non-finite loss term 'base_plan' at stage3 "
                                            "step 0$"):
        stage3_finetune(tiny_dataset[:16], ckpt, CFG)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_nonfinite_check_reads_the_gp_weighted_terms(tiny_dataset, fitted):
    # every term is finite, but the first teacher term overflows once scaled
    cfg = dataclasses.replace(CFG, gp_weight=1e308)
    with pytest.raises(TrainingError, match="^non-finite loss term 'plan_nll' at stage3 "
                                            "step 0$"):
        stage3_finetune(tiny_dataset[:16], fitted, cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_check_reads_the_weighted_total(tiny_dataset):
    # every term is finite, but the loss_weights-weighted total overflows
    cfg = dataclasses.replace(CFG, loss_weights={"base_plan": 1e308, "base_motion": 1e308})
    with pytest.raises(TrainingError, match="^non-finite loss total at stage1 step 0$"):
        stage1_pretrain(tiny_dataset, cfg, tiny_spec())


def test_scene_labels_match_per_scene_loop(tiny_dataset, tiny_model):
    cb = tiny_model.cb
    table = SceneTable(scene_rows(tiny_dataset, labeled=True), cb)
    labels = scene_labels(table, cb)

    anchors = cb.traj_anchors.reshape(-1, 6, 2)

    def nearest(traj, command):
        ids = group_ids_ref(cb, command)
        d = [traj_distance(traj, anchors[i]) for i in ids]
        return ids[int(np.argmin(d))]

    want = [nearest(r.ego_gt, r.command) for r in tiny_dataset]
    want += [nearest(t, None) for r in tiny_dataset for t in r.agent_gt]
    assert labels.tolist() == want


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
def test_batch_is_the_table_of_its_scenes(tiny_dataset, tiny_model, labeled):
    cb = tiny_model.cb
    records = tiny_dataset[:40] if labeled else strip_labels(tiny_dataset[:40])
    table = SceneTable(scene_rows(records, labeled), cb)
    agentless = [i for i, r in enumerate(records) if r.n_agents == 0]
    rng = np.random.default_rng(7)
    subsets = [np.sort(rng.choice(len(records), size=n, replace=False))
               for n in (1, 2, 5, 13, 32, 40) for _ in range(3)]
    subsets += [np.array(agentless[:1]), np.array(agentless), np.array([0, agentless[-1]])]
    perm = rng.permutation(len(records))  # an epoch at batch 32: 32 scenes, then 8
    subsets += [np.sort(perm[i:i + 32]) for i in range(0, len(records), 32)]
    assert sum(bool(set(s) & set(agentless)) for s in subsets) > len(subsets) // 2

    def check(t: SceneTable, scenes: np.ndarray, position: np.ndarray) -> SceneTable:
        # the table of the scenes' records, whose rows are the same rows of
        # the whole table; position maps t's scene positions to the table's
        got = t.batch(scenes)
        want = SceneTable(scene_rows([records[i] for i in position[scenes]], labeled), cb)
        assert len(got) == got.n_ego == want.n_ego == len(scenes)
        for name in ("obs", "admissible", "gt", "labels", "scene_of_row"):
            g, w = getattr(got, name), getattr(want, name)
            if w is None:
                assert g is None and not labeled, name
                continue
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name
            if name != "scene_of_row":
                assert g.tobytes() == getattr(table, name)[got.rows].tobytes(), name
        assert np.array_equal(table.scene_of_row[got.rows],
                              position[scenes][got.scene_of_row])
        return got

    for scenes in subsets:
        got = check(table, scenes, np.arange(len(records)))
        check(got, np.arange(0, len(scenes), 2), scenes)


# --- one codebook per model -----------------------------------------------------


def test_triplet_table_built_only_by_stages_that_read_it(tiny_dataset, monkeypatch):
    calls = []
    real = codebook.triplet_table

    def counting(cb):
        calls.append(cb)
        return real(cb)

    monkeypatch.setattr(codebook, "triplet_table", counting)
    records = tiny_dataset[:24]
    stage1 = stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    assert len(calls) == 0
    stage3_finetune(records, stage1, dataclasses.replace(CFG, gp_weight=0.0))
    assert len(calls) == 0  # no teacher
    stage2 = stage2_fit_gp(records, stage1, CFG)
    assert len(calls) == 1
    stage3_finetune(records, stage2, CFG)
    assert len(calls) == 2


def test_model_codebook_is_built_once_over_the_model_arrays(fitted):
    model = fitted.model.clone()
    cb = model.cb
    assert model.cb is cb
    assert cb.trajectories is model.tensors["cb.trajs"]
    assert "basis" not in vars(cb)  # the GP reads the basis from the tensor dict
    assert GpInference(cb, model.tensors).basis.data is model.tensors["cb.basis"]
    clone = model.clone()
    assert clone.cb is not cb
    assert clone.cb.trajectories is clone.tensors["cb.trajs"]
    assert clone.cb.trajectories.tobytes() == cb.trajectories.tobytes()
    basis, clone_basis = model.tensors["cb.basis"], clone.tensors["cb.basis"]
    params = model.params(GP_PARAMS)
    params["cb.basis"].data[0, 0] += 1.0  # an optimizer step updates in place
    assert basis[0, 0].tobytes() == params["cb.basis"].data[0, 0].tobytes()
    assert clone_basis[0, 0].tobytes() != basis[0, 0].tobytes()


@pytest.mark.parametrize("group_size, token_dim", [(4, 8), (16, 32)])
def test_teacher_token_anchors_are_the_basis_means(group_size, token_dim):
    # the teacher's triplet anchors are a sum times 1/C: byte-equal to
    # basis.mean while 1/C is exact
    spec = dataclasses.replace(tiny_spec(), group_size=group_size, token_dim=token_dim)
    trajs = np.random.default_rng(3).normal(size=(spec.n_code, group_size, 12))
    model = trainer.Model(spec, init_tensors_ref(spec, 4, trajs))
    anchors = GpInference(model.cb, model.tensors).token_anchors.data
    assert anchors.tobytes() == model.tensors["cb.basis"].mean(axis=1).tobytes()


# --- the batched step loss -----------------------------------------------------


@pytest.fixture(scope="module")
def fitted(tiny_dataset):
    ckpt = stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    return stage2_fit_gp(tiny_dataset[:24], ckpt, CFG)


def tape_nodes(root) -> int:
    """The distinct tape nodes (tensors with a vjp) reachable from ``root``."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node._vjp is not None and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("stage,nodes", [("stage1", 14), ("stage2", 71), ("stage3", 27),
                                         ("adapt_unsup", 21)])
def test_tape_nodes_per_step(fitted, tiny_dataset, monkeypatch, stage, nodes):
    # the encoder and the planner's network are one node each, and so is
    # each loss family and each role sum
    counts = []
    real = losses.step_total

    def step_total(terms, *args):
        total, values = real(terms, *args)
        counts.append(tape_nodes(total))
        return total, values

    monkeypatch.setattr(losses, "step_total", step_total)
    {"stage1": lambda: stage1_pretrain(tiny_dataset, CFG, tiny_spec()),
     "stage2": lambda: stage2_fit_gp(tiny_dataset[:24], fitted, CFG),
     "stage3": lambda: stage3_finetune(tiny_dataset[:24], fitted, CFG),
     "adapt_unsup": lambda: adapt_unsupervised(strip_labels(tiny_dataset[:24]), fitted, CFG),
     }[stage]()
    assert counts and set(counts) == {nodes}


def test_a_finished_step_is_released_before_the_next_loss(tiny_dataset, monkeypatch):
    # only one tape is alive at a time: step k's batch and total are gone
    # when step k + 1's loss is entered (a Tensor takes no weak reference,
    # and its array dies with it)
    refs, alive = [], []
    real_loss, real_total = trainer.finetune_scene_loss, losses.step_total

    def finetune_scene_loss(batch, *args):
        alive.append([r for r in refs if r() is not None])
        refs.append(weakref.ref(batch))
        return real_loss(batch, *args)

    def step_total(terms, *args):
        total, values = real_total(terms, *args)
        refs.append(weakref.ref(total.data))
        return total, values

    monkeypatch.setattr(trainer, "finetune_scene_loss", finetune_scene_loss)
    monkeypatch.setattr(losses, "step_total", step_total)
    stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    assert len(alive) == CFG.epochs_stage1 * -(-len(tiny_dataset) // CFG.batch_size)
    assert not any(alive)


def test_stage1_lays_out_its_rows_once(tiny_dataset, monkeypatch):
    # the codebook build and the training table share one layout
    calls = []
    real = trainer.scene_rows

    def scene_rows(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "scene_rows", scene_rows)
    stage1_pretrain(tiny_dataset, CFG, tiny_spec())
    assert len(calls) == 1


@pytest.mark.parametrize("stage", ["stage3", "adapt_unsup", "adapt_sup"])
def test_teacher_runs_once_per_training_call_on_the_start_model(fitted, tiny_dataset,
                                                                 target_dataset,
                                                                 monkeypatch, stage):
    # one predict_rows pass over the tokens of the model the call starts
    # from, whose rows every step's batch of both epochs reads
    cfg = dataclasses.replace(CFG, epochs_stage3=2, adapt_epochs=2)
    records, train = {
        "stage3": (tiny_dataset[:40], lambda r: stage3_finetune(r, fitted, cfg)),
        "adapt_unsup": (strip_labels(target_dataset),
                        lambda r: adapt_unsupervised(r, fitted, cfg)),
        "adapt_sup": (target_dataset[:20], lambda r: adapt_supervised(r, fitted, cfg)),
    }[stage]
    model = fitted.model
    obs = scene_rows(records, labeled=False).obs
    start_tokens = encode(obs, model.tensors)
    calls, batches = [], []
    real_predict, real_loss = GpInference.predict_rows, trainer.finetune_scene_loss

    def predict_rows(self, tokens, admissible):
        calls.append((tokens.copy(), admissible, real_predict(self, tokens, admissible)))
        return calls[-1][2]

    def finetune_scene_loss(batch, *args):
        batches.append(batch)
        return real_loss(batch, *args)

    monkeypatch.setattr(GpInference, "predict_rows", predict_rows)
    monkeypatch.setattr(trainer, "finetune_scene_loss", finetune_scene_loss)
    train(records)
    [(tokens, mask, (mean, variance, logits, group))] = calls
    assert tokens.tobytes() == start_tokens.tobytes()
    assert len(batches) == 2 * -(-len(records) // cfg.batch_size)
    anchors = GpInference(model.cb, model.tensors).token_anchors.data
    for batch in batches:
        for name, whole in zip(("t_mean", "t_variance", "t_log_softmax", "t_group"),
                               (mean, variance, teacher_log_softmax(logits, mask), group)):
            got = getattr(batch, name)
            assert (got.shape, got.tobytes()) == (whole[batch.rows].shape,
                                                  whole[batch.rows].tobytes()), name
        assert batch.t_anchors.tobytes() == anchors.tobytes()


@pytest.mark.parametrize("scenes", [1, 7, 32, None], ids=["1", "7", "32", "table"])
def test_the_tables_teacher_log_softmax_has_each_batchs_own_bytes(fitted, tiny_dataset,
                                                                 scenes):
    model = fitted.model
    table = SceneTable(scene_rows(tiny_dataset, labeled=True), model.cb)
    table.teach(model)
    tokens = encode(table.obs, model.tensors)
    logits = GpInference(model.cb, model.tensors).predict_rows(tokens, table.admissible)[2]
    chosen = (np.arange(len(table)) if scenes is None else np.sort(
        np.random.default_rng(scenes).choice(len(table), scenes, replace=False)))
    batch = table.batch(chosen)
    own = teacher_log_softmax(logits[batch.rows], batch.admissible)
    assert batch.t_log_softmax.tobytes() == own.tobytes()


@pytest.mark.parametrize("stage", ["stage2", "stage3", "adapt_unsup"])
def test_loss_family_nodes_train_the_bytes_of_the_composed_chains(fitted, tiny_dataset,
                                                                  monkeypatch, stage):
    # every one-node loss family swapped for its chain of primitive nodes:
    # the trained tensors keep their bytes, whatever else reads the tables
    # and tokens those nodes take gradients into
    train = {
        "stage2": lambda: stage2_fit_gp(tiny_dataset[:40], fitted, CFG),
        "stage3": lambda: stage3_finetune(tiny_dataset[:40], fitted, CFG),
        "adapt_unsup": lambda: adapt_unsupervised(strip_labels(tiny_dataset[:40]), fitted,
                                                  CFG),
    }[stage]
    fused = train().model.tensors
    for module in (losses, trainer):
        monkeypatch.setattr(module, "traj_mse", composed_traj_mse)
    monkeypatch.setattr(losses, "role_sums", composed_role_sums)
    monkeypatch.setattr(losses, "heteroscedastic_nll", composed_nll)
    monkeypatch.setattr(losses, "triplet_term", composed_triplet)
    chained = train().model.tensors
    assert {n: a.tobytes() for n, a in fused.items()} == {
        n: a.tobytes() for n, a in chained.items()}


def test_classifier_node_trains_the_bytes_of_the_composed_chain(fitted, tiny_dataset,
                                                               monkeypatch):
    # a stage-2 step's kernel features take gradient from the classifier and
    # both heads' k*, in walk order; the one-node classifier keeps the order
    # of its chain's contributions
    fused = stage2_fit_gp(tiny_dataset[:40], fitted, CFG).model.tensors
    calls = []

    def classifier_logits(graph, features):
        calls.append(len(features.data))
        return composed_classifier(graph, features)

    monkeypatch.setattr(GpGraph, "classifier_logits", classifier_logits)
    chained = stage2_fit_gp(tiny_dataset[:40], fitted, CFG).model.tensors
    assert calls
    assert {n: a.tobytes() for n, a in fused.items()} == {
        n: a.tobytes() for n, a in chained.items()}


def step_loss_setup(fitted, records, use_gt: bool, use_teacher: bool):
    model = fitted.model.clone()
    bvars = model.params(BASE_PARAMS)
    table = SceneTable(scene_rows(records, labeled=use_gt), model.cb)
    if use_teacher:
        table.teach(model)  # constants, as the gradient treats them
    batch = table.batch(np.arange(len(records)))

    def loss():
        return finetune_scene_loss(batch, bvars, model)

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
    grads = grad_map(total(loss()), bvars)
    rng = np.random.default_rng(0)
    entries = {name: rng.choice(p.data.size, size=min(6, p.data.size), replace=False)
               for name, p in bvars.items()}
    fd = finite_difference(lambda: total(loss()).item(),
                           {name: p.data for name, p in bvars.items()},
                           h=1e-6, entries=entries)
    assert len(bvars) == 8  # every base parameter family
    for name, idx in entries.items():
        got, want = grads[name].reshape(-1)[idx], fd[name].reshape(-1)[idx]
        assert np.allclose(got, want, rtol=1e-5, atol=1e-7), name


def test_step_loss_is_sum_of_scene_losses(fitted, tiny_dataset):
    records = tiny_dataset[:5]
    _, loss = step_loss_setup(fitted, records, True, True)
    def values(terms):
        return {k: t.item() for k, t in terms.items()}

    whole = values(loss())
    parts = [values(step_loss_setup(fitted, [r], True, True)[1]()) for r in records]
    for term, value in whole.items():
        assert value == pytest.approx(sum(p[term] for p in parts), rel=1e-12,
                                      abs=1e-12), term


TEACHER_TERMS = ["plan_nll", "class_ce_ego", "triplet_ego", "kl_ego",
                 "motion_nll", "class_ce_agent", "triplet_agent", "kl_agent"]
BASE_TERMS = ["base_plan", "base_class_ce_ego", "base_motion", "base_class_ce_agent"]


@pytest.mark.parametrize("use_gt,use_teacher,order", [
    (True, False, BASE_TERMS), (True, True, BASE_TERMS + TEACHER_TERMS),
    (False, True, TEACHER_TERMS)], ids=["gt", "gt+teacher", "teacher"])
def test_step_loss_term_order(fitted, tiny_dataset, use_gt, use_teacher, order):
    # the step total sums the terms in this order, so it sets checkpoint bits
    records = tiny_dataset[:3] if use_gt else strip_labels(tiny_dataset[:3])
    _, loss = step_loss_setup(fitted, records, use_gt, use_teacher)
    assert list(loss()) == order


def test_gp_stage_loss_term_order(fitted, tiny_dataset):
    model = fitted.model.clone()
    table = SceneTable(scene_rows(tiny_dataset[:3], labeled=True), model.cb)
    terms = trainer.gp_stage_loss(
        table.batch(np.arange(3)), GpGraph(model.cb, model.tensors | model.params(GP_PARAMS)),
        encode(table.obs, model.tensors))
    assert list(terms) == ["recon_ego", "recon_agent", "ortho_ego", "ortho_agent",
                           "plan_nll", "class_ce_ego", "triplet_ego",
                           "motion_nll", "class_ce_agent", "triplet_agent"]


def test_unsupervised_without_teacher_rejected(fitted, tiny_dataset):
    cfg = dataclasses.replace(CFG, gp_weight=0.0)
    with pytest.raises(TrainingError, match="no loss"):
        adapt_unsupervised(strip_labels(tiny_dataset[:8]), fitted, cfg)


# the five training entry points by stage id, each as train(records, ckpt)
ENTRY_POINTS = {
    "stage1": lambda records, ckpt: stage1_pretrain(records, CFG, tiny_spec()),
    "stage2": lambda records, ckpt: stage2_fit_gp(records, ckpt, CFG),
    "stage3": lambda records, ckpt: stage3_finetune(records, ckpt, CFG),
    "adapt_unsup": lambda records, ckpt: adapt_unsupervised(records, ckpt, CFG),
    "adapt_sup": lambda records, ckpt: adapt_supervised(records, ckpt, CFG),
}


@pytest.mark.parametrize("stage", ENTRY_POINTS)
def test_no_scenes_rejected_naming_the_stage(fitted, stage):
    gate = "no scenes" if stage.startswith("adapt") else "no labeled scenes"
    with pytest.raises(TrainingError, match=f"^{stage}: {gate}$"):
        ENTRY_POINTS[stage]([], fitted)


@pytest.mark.parametrize("stage", ENTRY_POINTS)
def test_unlabeled_scenes_train_only_unsupervised_adaptation(fitted, tiny_dataset,
                                                             stage):
    records = strip_labels(tiny_dataset[:8])
    if stage == "adapt_unsup":
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing to strip, so no warning
            assert ENTRY_POINTS[stage](records, fitted).stage == stage
        return
    gate = (f"ground truth missing on 8 scenes \\(first: {records[0].scene_id}\\)"
            if stage == "adapt_sup" else "no labeled scenes")
    with pytest.raises(TrainingError, match=f"^{stage}: {gate}$"):
        ENTRY_POINTS[stage](records, fitted)


@pytest.mark.parametrize("stage", ENTRY_POINTS)
def test_mixed_scenes_by_stage(fitted, tiny_dataset, stage):
    # stages 1-3 train on the labeled scenes alone, unsupervised adaptation
    # strips the labels with a warning, supervised adaptation rejects them
    unlabeled = strip_labels(gen_dataset(tiny_domain(), 9, seed=6, obs_dim=TINY_OBS_DIM))
    mixed = tiny_dataset[:45] + unlabeled + tiny_dataset[45:]
    train = ENTRY_POINTS[stage]
    if stage == "adapt_sup":
        with pytest.raises(TrainingError, match=f"^adapt_sup: ground truth missing on "
                           f"9 scenes \\(first: {unlabeled[0].scene_id}\\)$"):
            train(mixed, fitted)
        return
    if stage == "adapt_unsup":
        with pytest.warns(UserWarning, match="^adapt_unsup: ground truth present on "
                          f"{len(mixed) - 9} scenes, ignoring it$"):
            got = train(mixed, fitted)
        want = train(strip_labels(mixed), fitted)
    else:
        got = train(mixed, fitted)
        want = train([r for r in mixed if r.labeled], fitted)
    assert ({k: v.tobytes() for k, v in got.model.tensors.items()}
            == {k: v.tobytes() for k, v in want.model.tensors.items()})


def test_gp_stage_loss_gradients_match_finite_differences(fitted, tiny_dataset):
    model = fitted.model.clone()
    params = model.params(GP_PARAMS)
    table = SceneTable(scene_rows(tiny_dataset[:4], labeled=True), model.cb)
    batch = table.batch(np.arange(4))
    tokens = encode(table.obs, model.tensors)

    def loss():
        return total(trainer.gp_stage_loss(batch, GpGraph(model.cb, model.tensors | params),
                                           tokens))

    grads = grad_map(loss(), params)
    rng = np.random.default_rng(1)
    entries = {name: rng.choice(p.data.size, size=min(3, p.data.size), replace=False)
               for name, p in params.items()}
    per_group = params["cb.basis"].data[0].size  # three entries of every group
    entries["cb.basis"] = np.concatenate([
        g * per_group + rng.choice(per_group, size=3, replace=False)
        for g in range(model.cb.n_code)])
    # the summed step loss is O(1e3): at h = 1e-5 central differences carry
    # about 1e-7 of rounding and truncation error, and move no row's group
    fd = finite_difference(lambda: loss().item(),
                           {name: p.data for name, p in params.items()},
                           h=1e-5, entries=entries)
    assert set(params) == {"cb.basis", "clf.w1", "clf.b1", "clf.w2", "clf.b2",
                           "gp.log_lengthscale", "gp.log_outputscale",
                           "gp.log_noise_recon", "gp.log_noise_traj"}
    for name, idx in entries.items():
        got, want = grads[name].reshape(-1)[idx], fd[name].reshape(-1)[idx]
        assert np.allclose(got, want, rtol=1e-5, atol=1e-6), name


def read_only(g) -> np.ndarray:
    view = np.asarray(g).view()
    view.flags.writeable = False
    return view


def read_only_upstream(loss):
    """Hand every vjp on ``loss``'s tape a read-only view of its upstream
    gradient, so that a vjp writing into it raises."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            node._vjp = lambda g, vjp=node._vjp: vjp(read_only(g))
        stack.extend(node._parents)
    return loss


def test_no_vjp_writes_into_its_upstream_gradient(fitted, tiny_dataset):
    model = fitted.model.clone()
    params = model.params(GP_PARAMS)
    table = SceneTable(scene_rows(tiny_dataset[:6], labeled=True), model.cb)
    batch = table.batch(np.arange(6))
    tokens = encode(table.obs, model.tensors)
    bvars, finetune_loss = step_loss_setup(fitted, tiny_dataset[:6], True, True)
    # unsupervised: the teacher CE and the KL share one log-softmax forward
    uvars, unsup_loss = step_loss_setup(fitted, strip_labels(tiny_dataset[:6]), False, True)
    for loss, variables in [
            (lambda: total(trainer.gp_stage_loss(
                batch, GpGraph(model.cb, model.tensors | params), tokens)),
             params),
            (lambda: total(finetune_loss()), bvars),
            (lambda: total(unsup_loss()), uvars)]:
        want = grad_map(loss(), variables)
        got = grad_map(read_only_upstream(loss()), variables)
        for name in variables:
            assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("use_gt", [True, False], ids=["gt+teacher", "teacher"])
def test_backward_keeps_the_shared_log_softmax_forward(fitted, tiny_dataset, monkeypatch,
                                                       use_gt):
    # grad keeps a thunk's array as a tape node's gradient and may add into it
    # later, so no thunk may return an array of the shared forward
    made = []

    class Recorded(losses.MaskedLogSoftmax):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(trainer, "MaskedLogSoftmax", Recorded)
    records = tiny_dataset[:6] if use_gt else strip_labels(tiny_dataset[:6])
    bvars, loss = step_loss_setup(fitted, records, use_gt, True)
    root = total(loss())
    [ls] = made
    shared = [a for a in vars(ls).values() if isinstance(a, np.ndarray)]
    assert len(shared) == 5  # admissible, mask, exp, sums, out
    before = [a.tobytes() for a in shared]
    returned = []
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._vjp is not None:
            seen.add(id(node))
            node._vjp = lambda g, vjp=node._vjp: tuple(
                lambda t=t: returned.append(t()) or returned[-1] for t in vjp(g))
            stack.extend(node._parents)
    grad_map(root, bvars)
    assert [a.tobytes() for a in shared] == before
    assert returned and not any(np.may_share_memory(r, a) for r in returned for a in shared)


def test_active_select_ranking_matches_per_scene_reference(fitted, target_dataset):
    records = strip_labels(target_dataset)
    rep = active_select(records, fitted, budget=0.5, seed=0)
    model = fitted.model
    want = []
    for r in records:
        ego, _ = encode_ref(r, model.tensors, TOKEN_SCALE)
        want.append((r.scene_id, predict_ref(ego, r.command, model)[1]))
    want.sort(key=lambda t: (-t[1], t[0]))
    assert [sid for sid, _ in rep.rows] == [sid for sid, _ in want]
    assert np.allclose([v for _, v in rep.rows], [v for _, v in want], rtol=0, atol=1e-12)
    assert rep.selected == [sid for sid, _ in want[:len(records) // 2]]


@pytest.mark.parametrize("budget,n,k", [(0.07, 100, 7), (0.14, 50, 7), (1.0, 100, 100),
                                        (1e-9, 100, 1), (0.5, 24, 12), (0.3, 20, 6)])
def test_active_select_keeps_the_budget_as_written(fitted, budget, n, k):
    # 0.07 * 100 is 7.000000000000001 in floating point and 0.14 * 50 too
    records = strip_labels(gen_dataset(tiny_domain(), n, seed=13, obs_dim=TINY_OBS_DIM))
    for strategy in ("variance", "random"):
        rep = active_select(records, fitted, budget=budget, strategy=strategy, seed=0)
        assert len(rep.selected) == len(set(rep.selected)) == k
