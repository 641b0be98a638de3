"""Benchmark of the gptraj pipeline: two workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload source_train --seed 0 --seconds 8 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced set-up and pass, plus the tracing overhead. The line before it
records the environment, the sizes, the per-stage checkpoint sha256s and the
errors seen. See perfbench/README.md.

The library is imported from ``src/`` of the current directory, after the
BLAS pools are pinned to one thread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"  # under the current directory; removed per run
LEDGER = "sha_ledger.json"  # kept across runs: per-stage checkpoint sha256s


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "toy"), default="full",
                   help="toy: tiny model and data, for the smoke test")
    return p.parse_args(argv)


def import_library(root: Path):
    """Import gptraj from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "gptraj" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'gptraj'} not found; run from the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import gptraj
    if Path(gptraj.__file__).resolve().parent != (src / "gptraj").resolve():
        raise SystemExit(f"error: imported gptraj from {gptraj.__file__}, not {src}")
    return src


def blas_threads():
    """OpenBLAS's own thread count, or None where it cannot be read."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, run) -> dict:
    import dataclasses
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "model_seed": run.train_cfg.seed,
        "seconds": args.seconds,
        "profile": args.profile,
        "sizes": dataclasses.asdict(run.sizes),
        "model_spec": dataclasses.asdict(run.spec),
        "batch_size": run.train_cfg.batch_size,
    }


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(list((src / "gptraj").glob("*.py")) + list(BENCH_DIR.glob("*.py"))):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_ledger(path: Path, key: str, shas: dict[str, str]) -> list[str]:
    """Compare this run's checkpoint sha256s with earlier runs of the same key."""
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    seen = ledger.setdefault(key, {})
    problems = [f"{label}: checkpoint sha256 differs from an earlier run at this seed"
                for label, digest in shas.items() if seen.get(label, digest) != digest]
    seen.update(shas)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    root = Path.cwd()
    src = import_library(root)
    import pipeline
    import probes

    args = parse_args(argv, pipeline.WORKLOADS)
    work_root = root / WORK_DIR
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = pipeline.Run(args.workload, args.seed, args.profile, work)
    info = {"env": environment(args, run)}
    try:
        if args.trace:
            # the untraced pass runs first so that warm-up is not counted as
            # tracing overhead
            tracer = probes.Tracer(clock=run.host.clock)
            overhead = run.traced_run(tracer)
            units = probes.metric_units()
            metrics = {name: (value, units[name])
                       for name, value in tracer.metrics().items()}
            metrics["trace.overhead_s"] = (overhead, "s")
            info["absent_probes"] = tracer.absent
        else:
            run.run(args.seconds)
            metrics = run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key = f"{args.workload}/{args.profile}/{args.seed}/{source_digest(src)}"
    run.problems += check_ledger(work_root / LEDGER, key, run.checkpoint_sha256)
    info.update(
        timings=run.timings(), checkpoint_sha256=run.checkpoint_sha256,
        errors=dict(run.errors), problems=run.problems)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
