"""The CLI pipeline end to end at toy sizes."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gptraj import cli, config as config_mod, gpmodule, psdlinalg, trainer
from gptraj.core import load_dataset, save_dataset
from gptraj.synthdomain import gen_dataset

from conftest import GramSpy

TOY_CONFIG = {
    "seed": 0,
    "model": {"token_dim": 8, "encoder_hidden": 16, "planner_hidden": 16,
              "classifier_hidden": 16, "n_ego": 12, "n_agent": 7, "group_size": 4},
    "train": {"epochs_stage1": 1, "epochs_stage2": 1, "epochs_stage3": 1,
              "adapt_epochs": 1, "batch_size": 16},
    "data": {"n_source": 90, "n_source_val": 16, "n_target": 24,
             "n_target_val": 16},
}


@pytest.mark.filterwarnings("ignore:adapt_unsup")
def test_cli_pipeline_at_toy_size(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    out = tmp_path / "run"

    def run(*args):
        monkeypatch.setattr(sys, "argv", ["gptraj", "--config", str(config),
                                          "--out-dir", str(out), *args])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        return exc.value.code

    steps = [
        (("gen-data",), ["data/source_train.jsonl", "data/target_train.jsonl"]),
        (("pretrain",), ["ckpt_stage1.bin"]),
        (("fit-gp",), ["ckpt_stage2.bin"]),
        (("finetune",), ["ckpt_stage3.bin"]),
        (("active-select", "--budget", "0.5"), ["selection_variance.csv"]),
        (("adapt", "--mode", "unsup"), ["ckpt_adapt_unsup.bin"]),
        (("adapt", "--mode", "sup", "--subset-from",
          str(out / "selection_variance.csv")), ["ckpt_adapt_sup.bin"]),
        (("eval", "--mode", "roca", "--ckpt", str(out / "ckpt_adapt_sup.bin")),
         ["eval_roca_full.csv"]),
    ]
    for args, artifacts in steps:
        assert run(*args) == 0, args
        for name in artifacts:
            assert (out / name).is_file(), name
    assert (out / "train_log.csv").is_file()

    capsys.readouterr()
    assert run("inspect-ckpt", "--ckpt", str(out / "ckpt_stage2.bin")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"schema: {trainer.CHECKPOINT_SCHEMA}  stage: stage2"
    assert trainer.CHECKPOINT_SCHEMA == 3
    assert "  cb.basis  [19, 4, 8]" in lines


def test_gp_set_up_failure_names_the_command(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    argv = ["--config", str(config), "--out-dir", str(tmp_path / "run")]
    assert cli.cli_run(argv + ["gen-data"]) == 0
    assert cli.cli_run(argv + ["pretrain"]) == 0
    ckpt = ["--ckpt", str(tmp_path / "run" / "ckpt_stage1.bin")]
    for command, args in (("eval", ["--mode", "roca"]),
                          ("active-select", ["--budget", "0.5"])):
        # a group is conditioned when the prediction routes a row to it
        spy = GramSpy()
        monkeypatch.setattr(psdlinalg, "group_gram_t", spy)
        assert cli.cli_run(argv + [command] + args + ckpt) == 0
        group = spy.renumbered(0)
        monkeypatch.setattr(psdlinalg, "group_gram_t", GramSpy(corrupt=group))
        capsys.readouterr()
        assert cli.cli_run(argv + [command] + args + ckpt) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            f"error: {command} GP: group {group}: matrix not positive definite")


def test_unsupervised_adaptation_warns_in_one_line(tmp_path, capsys):
    # the default target split is labeled, and its labels are dropped
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    argv = ["--config", str(config), "--out-dir", str(tmp_path / "run")]
    for command in ("gen-data", "pretrain", "fit-gp"):
        assert cli.cli_run(argv + [command]) == 0
    capsys.readouterr()
    assert cli.cli_run(argv + ["adapt", "--mode", "unsup", "--ckpt",
                               str(tmp_path / "run" / "ckpt_stage2.bin")]) == 0
    n = TOY_CONFIG["data"]["n_target"]
    assert capsys.readouterr().err == (
        f"warning: adapt_unsup: ground truth present on {n} scenes, ignoring it\n")


def test_gen_data_unlabeled_requires_domain(tmp_path, capsys):
    assert cli.cli_run(["--out-dir", str(tmp_path), "gen-data", "--unlabeled"]) == 1
    assert "error: --unlabeled requires --domain" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["gen-data", "--labeled"])


@pytest.mark.parametrize("count", ["-3", "0"])
def test_gen_data_rejects_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "scenes.jsonl"
    assert cli.cli_run(["--out-dir", str(tmp_path / "run"), "gen-data", "--domain",
                        "source_city", "--count", count, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: gen-data --count must be a positive integer, got {count}")
    assert not out.exists()
    assert not (tmp_path / "run").exists()  # no resolved_config.json either


@pytest.mark.parametrize("args", [["--count", "5", "--out", "x.jsonl"], ["--count", "5"],
                                  ["--out", "x.jsonl"]])
def test_gen_data_count_and_out_require_domain(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert cli.cli_run(["--out-dir", "run", "gen-data", *args]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: --count and --out require --domain")
    assert list(tmp_path.iterdir()) == []


def test_active_select_checks_budget_before_any_file(tmp_path, capsys):
    # no data or checkpoint exists: the budget is reported, not a missing file
    assert cli.cli_run(["--out-dir", str(tmp_path / "run"), "active-select",
                        "--budget", "2"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: active-select --budget must be in (0, 1], got 2.0")
    assert not (tmp_path / "run").exists()  # no resolved_config.json


def test_gen_data_checks_domain_before_any_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.cli_run(["--out-dir", "run", "gen-data", "--domain", "nope", "--count",
                        "3", "--out", "x.jsonl"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: unknown domain 'nope'"
    assert list(tmp_path.iterdir()) == []  # no resolved_config.json, no x.jsonl


def test_eval_checks_subset_before_any_file(tmp_path, capsys):
    # no data or checkpoint exists: the subset is reported, not a missing file
    assert cli.cli_run(["--out-dir", str(tmp_path / "run"), "eval", "--subset",
                        "bogus"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: unknown eval subset 'bogus'")
    assert not (tmp_path / "run").exists()  # no resolved_config.json
    # a configured rarity bin passes the check and fails only on the data
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"eval": {"rarity_bins": {"fast": {"min_speed": 9.0}}}}))
    assert cli.cli_run(["--config", str(config), "--out-dir", str(tmp_path / "run"),
                        "eval", "--subset", "fast"]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: dataset not found")


@pytest.mark.parametrize("header,missing", [("scene_id,variance,strategy", "selected"),
                                            ("variance,selected,strategy", "scene_id")])
def test_adapt_subset_file_names_its_missing_column(tmp_path, capsys, header, missing):
    selection = tmp_path / "selection.csv"
    selection.write_text(f"{header}\n")
    assert cli.cli_run(["--out-dir", str(tmp_path / "run"), "adapt", "--mode", "sup",
                        "--subset-from", str(selection)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {selection}: selection file lacks column {missing!r}")
    assert not (tmp_path / "run").exists()  # checked before resolved_config.json


def test_adapt_rejects_selected_scenes_not_in_the_dataset(tmp_path, capsys):
    data = tmp_path / "target.jsonl"
    assert cli.cli_run(["--out-dir", str(tmp_path / "gen"), "gen-data", "--domain",
                        "target_city", "--count", "3", "--out", str(data)]) == 0
    ids = [r.scene_id for r in load_dataset(data)]
    selection = tmp_path / "selection.csv"
    selection.write_text("scene_id,variance,selected,strategy\n"
                         f"{ids[0]},0.5,1,variance\nother-7,0.4,1,variance\n"
                         f"{ids[1]},0.3,0,variance\nother-9,0.2,1,variance\n")
    # no checkpoint exists: the selection is checked before one is loaded
    assert cli.cli_run(["--out-dir", str(tmp_path / "run"), "adapt", "--mode", "sup",
                        "--data", str(data), "--subset-from", str(selection)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {selection}: 2 selected scenes are not in the dataset (first: other-7)")


@pytest.mark.parametrize("args, missing", [
    (["pretrain"], "dataset"),
    (["fit-gp"], "dataset"),
    (["eval", "--ckpt", "{tmp}/none.bin", "--data", "{tmp}/none.jsonl"], "dataset"),
    (["finetune", "--data", "{data}"], "checkpoint"),
    (["adapt", "--mode", "unsup", "--data", "{data}"], "checkpoint"),
    (["active-select", "--budget", "0.5", "--data", "{data}"], "checkpoint"),
    (["eval", "--data", "{data}", "--ckpt", "{tmp}/none.bin"], "checkpoint"),
], ids=["pretrain", "fit-gp", "eval-data", "finetune", "adapt", "active-select",
        "eval-ckpt"])
def test_missing_input_file_writes_no_resolved_config(tmp_path, capsys, args, missing):
    data = tmp_path / "target.jsonl"
    assert cli.cli_run(["--out-dir", str(tmp_path / "gen"), "gen-data", "--domain",
                        "target_city", "--count", "3", "--out", str(data)]) == 0
    args = [a.format(tmp=tmp_path, data=data) for a in args]
    capsys.readouterr()
    assert cli.cli_run(["--out-dir", str(tmp_path / "run"), *args]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {missing} not found")
    assert not (tmp_path / "run").exists()  # no resolved_config.json


@pytest.fixture(scope="module")
def toy_stage1(tmp_path_factory):
    """The TOY_CONFIG file and the stage-1 checkpoint it trains, whose
    encoder takes 24-dim observations."""
    tmp = tmp_path_factory.mktemp("toy")
    config = tmp / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    argv = ["--config", str(config), "--out-dir", str(tmp / "run")]
    assert cli.cli_run(argv + ["gen-data"]) == 0
    assert cli.cli_run(argv + ["pretrain"]) == 0
    return config, tmp / "run" / "ckpt_stage1.bin"


@pytest.mark.parametrize("args", [
    ["pretrain"], ["fit-gp"], ["finetune"], ["adapt", "--mode", "sup"],
    ["active-select", "--budget", "0.5"], ["eval"],
], ids=lambda args: args[0])
def test_a_dataset_that_does_not_fit_the_model_fails_before_any_file(
        tmp_path, capsys, toy_stage1, args):
    # pretrain checks the dataset against the configured model, the others
    # against the checkpoint, before clustering or writing anything
    config, stage1 = toy_stage1
    data = tmp_path / "obs16.jsonl"
    domain = dataclasses.replace(config_mod.resolve().domain("source_city"),
                                 obs_transform=np.eye(16), obs_bias=np.zeros(16))
    save_dataset(gen_dataset(domain, 90, 0, obs_dim=16), data)
    ckpt = [] if args == ["pretrain"] else ["--ckpt", str(stage1)]
    capsys.readouterr()
    assert cli.cli_run(["--config", str(config), "--out-dir", str(tmp_path / "run"),
                        *args, "--data", str(data), *ckpt]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {data}: observation length 16, the model takes 24")
    assert not (tmp_path / "run").exists()  # no resolved_config.json


def test_supervised_adapt_on_unlabeled_data_is_one_error_line(tmp_path, capsys,
                                                               toy_stage1):
    config, stage1 = toy_stage1
    data = tmp_path / "unlabeled.jsonl"
    argv = ["--config", str(config), "--out-dir", str(tmp_path / "run")]
    assert cli.cli_run(argv + ["gen-data", "--domain", "target_city", "--count", "5",
                               "--unlabeled", "--out", str(data)]) == 0
    capsys.readouterr()
    assert cli.cli_run(argv + ["adapt", "--mode", "sup", "--data", str(data),
                               "--ckpt", str(stage1)]) == 1
    first = load_dataset(data)[0].scene_id
    assert capsys.readouterr().err.splitlines() == [
        f"error: adapt_sup: ground truth missing on 5 scenes (first: {first})"]


def test_seed_and_out_dir_flags_override_the_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "out_dir": str(tmp_path / "configured")}))
    out = tmp_path / "flagged"
    assert cli.cli_run(["--config", str(config), "--seed", "3", "--out-dir", str(out),
                        "gen-data", "--domain", "source_city", "--count", "1",
                        "--out", str(tmp_path / "one.jsonl")]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert (resolved["seed"], resolved["out_dir"]) == (3, str(out))
    assert not (tmp_path / "configured").exists()


def run_python(*args: str, cwd: Path, **env: str) -> str:
    """Stdout of ``python *args`` in a fresh interpreter that imports this
    gptraj, with ``env`` over the inherited environment."""
    env = {**os.environ, **env, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_cli_leaves_numpy_unloaded(tmp_path):
    # OpenBLAS reads its thread count when numpy loads, so the CLI's pin to
    # one thread only holds if nothing imports numpy before gptraj.cli
    code = "import sys, gptraj.cli; print('numpy' in sys.modules)"
    assert run_python("-c", code, cwd=tmp_path) == "False"


def test_commands_without_a_transform_leave_scipy_linalg_unloaded(tmp_path, toy_stage1):
    # only a rotation or low-rank observation transform and a Cholesky that
    # needs jitter load scipy.linalg, and resolving a config builds no
    # transform
    config, stage1 = toy_stage1
    report = "print('scipy.linalg' in sys.modules)"
    run_cli = ("import sys; from gptraj import cli; code = cli.cli_run(sys.argv[1:]); "
               f"{report}; sys.exit(code)")
    for args in (["-c", f"import sys; from gptraj import config; config.resolve({{}}); {report}"],
                 ["-c", run_cli, "inspect-ckpt", "--ckpt", str(stage1)],
                 ["-c", run_cli, "--config", str(config), "--out-dir", str(tmp_path / "run"),
                  "eval", "--data", str(stage1.parent / "data" / "source_val.jsonl"),
                  "--ckpt", str(stage1)]):
        assert run_python(*args, cwd=tmp_path).splitlines()[-1] == "False", args[2:]


# large enough that OpenBLAS splits the training matmuls over two threads
# (at TOY_CONFIG's sizes one- and two-thread bytes agree anyway)
THREADED_CONFIG = {
    "seed": 0,
    "model": {"group_size": 4},
    "train": {"epochs_stage1": 1, "epochs_stage2": 1, "epochs_stage3": 1},
    "data": {"n_source": 300, "n_source_val": 16, "n_target": 16,
             "n_target_val": 16},
}


def test_checkpoints_ignore_inherited_blas_threads(tmp_path):
    """The CLI runs BLAS on one thread whatever the environment says: a
    pipeline run from a shell exporting two BLAS threads writes the same
    checkpoint bytes as one exporting one thread.

    On a one-core host OpenBLAS runs one thread either way, so there the
    test cannot tell a pinned CLI from an unpinned one.
    """
    config = tmp_path / "config.json"
    config.write_text(json.dumps(THREADED_CONFIG))
    stages = ("ckpt_stage1.bin", "ckpt_stage2.bin", "ckpt_stage3.bin")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        for command in ("gen-data", "pretrain", "fit-gp", "finetune"):
            run_python("-m", "gptraj.cli", "--config", str(config), "--out-dir",
                       str(out), command, cwd=tmp_path,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        written.append([(out / name).read_bytes() for name in stages])
    assert [name for name, one, two in zip(stages, *written) if one != two] == []


def test_checkpoints_ignore_heap_contents(tmp_path):
    """Freed memory is reused, not returned as fresh zero pages, so a read of
    memory no code wrote would show in the bytes: a pipeline run with freed
    and new heap blocks filled by ``MALLOC_PERTURB_`` writes the same
    checkpoints and eval CSV as one without."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(THREADED_CONFIG))
    files = ("ckpt_stage1.bin", "ckpt_stage2.bin", "ckpt_stage3.bin", "eval_roca_full.csv")
    written = []
    for perturb in ("0", "165"):
        out = tmp_path / f"perturb{perturb}"
        for args in (("gen-data",), ("pretrain",), ("fit-gp",), ("finetune",),
                     ("eval", "--mode", "roca")):
            run_python("-m", "gptraj.cli", "--config", str(config), "--out-dir",
                       str(out), *args, cwd=tmp_path, MALLOC_PERTURB_=perturb)
        written.append([(out / name).read_bytes() for name in files])
    assert [name for name, plain, filled in zip(files, *written) if plain != filled] == []


def test_import_pins_the_allocator(tmp_path):
    # a freed 4 MiB array stays in the heap, so the next one faults in no
    # fresh pages (about 500 without the pin)
    code = ("import resource, gptraj, numpy as np\n"
            "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "a = np.ones(1 << 19); del a\n"
            "before = faults(); b = np.empty(1 << 19); b[:] = 1.0\n"
            "print(faults() - before)")
    assert int(run_python("-c", code, cwd=tmp_path)) < 64


def test_gen_data_domain_unlabeled_writes_no_ground_truth(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    out = tmp_path / "unlabeled.jsonl"
    assert cli.cli_run(["--config", str(config), "--out-dir", str(tmp_path / "run"),
                        "gen-data", "--domain", "target_city", "--count", "5",
                        "--unlabeled", "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 5
    assert not any("ego_gt" in d or "agent_gt" in d for d in lines)
    assert not any(r.labeled for r in load_dataset(out))


# TOY_CONFIG's model, with 300-scene eval (source_val) and active-select
# (target_train) sets: more than one predict_rows block each
LANES_CONFIG = TOY_CONFIG | {
    "train": {"epochs_stage1": 1, "batch_size": 64},
    "data": {"n_source": 450, "n_source_val": 300, "n_target": 300,
             "n_target_val": 16},
}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path):
    """``eval --mode roca`` and ``active-select --strategy variance`` write
    the same bytes from a process restricted to one CPU, whose
    ``predict_rows`` calls run one lane, as from one that may use every CPU
    of the host, which runs a lane per CPU.

    Skipped on a one-CPU host, where both processes would run one lane.
    """
    assert gpmodule.BLOCK_ROWS < 300
    config = tmp_path / "config.json"
    config.write_text(json.dumps(LANES_CONFIG))
    argv = ["--config", str(config), "--out-dir", str(tmp_path / "run")]
    assert cli.cli_run(argv + ["gen-data"]) == 0
    assert cli.cli_run(argv + ["pretrain"]) == 0
    ckpt = ["--ckpt", str(tmp_path / "run" / "ckpt_stage1.bin")]
    one_cpu = min(os.sched_getaffinity(0))
    # the child restricts itself to one CPU, then runs the CLI in its place
    on_one_cpu = ["-c", f"import os, sys; os.sched_setaffinity(0, {{{one_cpu}}}); "
                  "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"]
    written = []
    for tag, child in (("one", on_one_cpu), ("all", [])):
        out = tmp_path / tag
        for command in (["eval", "--mode", "roca", "--out", str(out / "eval.csv")],
                        ["active-select", "--budget", "0.5", "--strategy", "variance",
                         "--out", str(out / "selection.csv")]):
            run_python(*child, "-m", "gptraj.cli", *argv, *command, *ckpt, cwd=tmp_path)
        written.append([(out / name).read_bytes() for name in ("eval.csv",
                                                               "selection.csv")])
    assert written[0] == written[1]
