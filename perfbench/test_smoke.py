"""Smoke test of the benchmark at toy size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--profile", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout.splitlines()[-2])["info"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["problems"]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    # every failed operation is reported with its one-line error
    assert result["failed"] == sum(info["errors"].values())
    for key in ("python", "numpy", "scipy", "nproc", "blas_threads", "seed", "sizes"):
        assert key in info["env"]
    if trace:
        assert info["absent_probes"] == []
        assert result["metrics"]["trainer.Checkpoint.load.calls"]["value"] >= 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "target_infer", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probes_replace_aliases_and_report_absent_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import probes
    from gptraj import autodiff, trainer

    original = autodiff.grad
    monkeypatch.setattr(probes, "PROBES", probes.PROBES + ("gpmodule.Gone.method",))
    with probes.Tracer() as tracer:
        assert trainer.grad is autodiff.grad  # the alias gets the same probe
        assert autodiff.grad.__wrapped__ is original
    assert autodiff.grad is original and trainer.grad is original
    assert tracer.absent == ["gpmodule.Gone.method"]
    assert tracer.metrics()["gpmodule.Gone.method.calls"] == 0
