"""The CLI pipeline end to end at toy sizes."""

from __future__ import annotations

import json
import sys

import pytest

from gptraj import cli

TOY_CONFIG = {
    "seed": 0,
    "model": {"token_dim": 8, "encoder_hidden": 16, "planner_hidden": 16,
              "classifier_hidden": 16},
    "codebook": {"n_ego": 12, "n_agent": 7, "group_size": 4},
    "train": {"epochs_stage1": 1, "epochs_stage2": 1, "epochs_stage3": 1,
              "adapt_epochs": 1, "batch_size": 16},
    "data": {"n_source": 90, "n_source_val": 16, "n_target": 24,
             "n_target_val": 16},
}


@pytest.mark.filterwarnings("ignore:unsupervised adaptation")
def test_cli_pipeline_at_toy_size(tmp_path, monkeypatch):
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
