"""Command-line pipeline: data generation, three-stage training, adaptation,
active selection, evaluation, and checkpoint inspection.

Every subcommand is deterministic given (config, seed): artifacts are
byte-identical across reruns and hosts. The BLAS pools always run one
thread: this module sets ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1, over any inherited value, before anything loads
numpy, because a multithreaded BLAS sums in an order that depends on the
thread count.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import warnings
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptraj",
        description="GP-codebook trajectory prediction pipeline")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config path (defaults used when omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed for all RNG streams")
    parser.add_argument("--out-dir", type=str, default=None,
                        help="override the config output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    # the subcommands' input and output paths, each declared once
    data, ckpt, out = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    for p, flag in ((data, "--data"), (ckpt, "--ckpt"), (out, "--out")):
        p.add_argument(flag, type=str, default=None)

    p = sub.add_parser("gen-data", parents=[out],
                       help="generate the configured dataset splits")
    p.add_argument("--domain", type=str, default=None,
                   help="generate a single domain instead of the default splits")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--unlabeled", action="store_true",
                   help="strip the ground truth (requires --domain)")

    sub.add_parser("pretrain", parents=[data], help="stage 1: pretrain the base model")
    sub.add_parser("fit-gp", parents=[data, ckpt],
                   help="stage 2: fit basis tokens and GP params")
    sub.add_parser("finetune", parents=[data, ckpt],
                   help="stage 3: teacher-regularized finetuning")

    p = sub.add_parser("adapt", parents=[data, ckpt], help="target-domain adaptation")
    p.add_argument("--mode", choices=("sup", "unsup"), required=True)
    p.add_argument("--subset-from", type=str, default=None,
                   help="selection CSV; adapt only on its selected scenes")

    p = sub.add_parser("active-select", parents=[data, ckpt, out],
                       help="rank target scenes by GP variance")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--strategy", choices=("variance", "random"), default="variance")

    p = sub.add_parser("eval", parents=[data, ckpt, out],
                       help="planning metrics on a labeled dataset")
    p.add_argument("--mode", choices=("base", "roca"), default="base")
    p.add_argument("--subset", type=str, default="full")

    p = sub.add_parser("inspect-ckpt", help="print checkpoint schema and tensors")
    p.add_argument("--ckpt", type=str, required=True)

    return parser


def _load_config(args):
    from . import config as config_mod

    user = {} if args.config is None else config_mod.load(args.config)
    for key, value in (("seed", args.seed), ("out_dir", args.out_dir)):
        if value is not None:
            user[key] = value
    return config_mod.resolve(user)


def _log_resolved(cfg) -> None:
    """Write ``resolved_config.json``. Each subcommand but ``inspect-ckpt``
    calls this once its argument checks pass and its inputs are loaded, so
    a command rejected for its arguments or inputs leaves none."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    resolved = cfg.out_dir / "resolved_config.json"
    resolved.write_text(json.dumps(cfg.resolved_dict(), sort_keys=True, indent=2)
                        + "\n", encoding="utf-8")
    print(f"resolved config -> {resolved}")


def _data_path(cfg, name: str) -> Path:
    return cfg.out_dir / "data" / f"{name}.jsonl"


def _ckpt_path(cfg, stage: str) -> Path:
    return cfg.out_dir / f"ckpt_{stage}.bin"


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    return Path(path)


def _load_data(args, cfg, default_split: str):
    """The dataset at ``--data``, else the configured split, and its path."""
    from .core import load_dataset

    path = _require(Path(args.data) if args.data else _data_path(cfg, default_split),
                    "dataset")
    return load_dataset(path), path


def _load_ckpt(args, cfg, default_stage: str):
    from .trainer import Checkpoint

    path = Path(args.ckpt) if args.ckpt else _ckpt_path(cfg, default_stage)
    return Checkpoint.load(_require(path, "checkpoint"))


def _check_fit(records, path, spec) -> None:
    """Raise ``<path>: ...`` unless the model's encoder takes the dataset's
    observation length; ``load_dataset`` gives every record the first's."""
    if records and len(records[0].ego_obs) != spec.obs_dim:
        raise ValueError(f"{path}: observation length {len(records[0].ego_obs)}, "
                         f"the model takes {spec.obs_dim}")


def cmd_gen_data(args, cfg) -> int:
    from .synthdomain import gen_dataset, strip_labels
    from .core import save_dataset

    if args.count is not None and args.count < 1:
        raise ValueError(f"gen-data --count must be a positive integer, got {args.count}")
    if args.domain is None:
        if args.unlabeled:
            raise ValueError("--unlabeled requires --domain")
        if args.count is not None or args.out is not None:
            raise ValueError("--count and --out require --domain")
    elif args.count is None or args.out is None:
        raise ValueError("--domain requires --count and --out")
    domain = None if args.domain is None else cfg.domain(args.domain)
    _log_resolved(cfg)
    if domain is not None:
        records = gen_dataset(domain, args.count, cfg.seed, obs_dim=cfg.model.obs_dim)
        if args.unlabeled:
            records = strip_labels(records)
        save_dataset(records, args.out)
        print(f"wrote {len(records)} scenes -> {args.out}")
        return 0

    src = cfg.domain(cfg.data["source_domain"])
    tgt = cfg.domain(cfg.data["target_domain"])
    splits = (
        ("source_train", src, cfg.data["n_source"], 0),
        ("source_val", src, cfg.data["n_source_val"], 1),
        ("target_train", tgt, cfg.data["n_target"], 2),
        ("target_val", tgt, cfg.data["n_target_val"], 3),
    )
    for name, spec, count, offset in splits:
        path = _data_path(cfg, name)
        save_dataset(gen_dataset(spec, count, cfg.seed * 4 + offset,
                                 obs_dim=cfg.model.obs_dim), path)
        print(f"wrote {count} scenes -> {path}")
    return 0


# training subcommand: (trainer function, stage it starts from, None for cfg.model)
_TRAINING = {
    "pretrain": ("stage1_pretrain", None),
    "fit-gp": ("stage2_fit_gp", "stage1"),
    "finetune": ("stage3_finetune", "stage2"),
}


def cmd_train(args, cfg) -> int:
    from . import trainer

    fn, start = _TRAINING[args.command]
    records, data = _load_data(args, cfg, "source_train")
    start_ckpt = None if start is None else _load_ckpt(args, cfg, start)
    _check_fit(records, data, cfg.model if start_ckpt is None else start_ckpt.model.spec)
    inputs = ((cfg.train, cfg.model) if start_ckpt is None else (start_ckpt, cfg.train))
    _log_resolved(cfg)
    ckpt = getattr(trainer, fn)(records, *inputs, log_path=cfg.out_dir / "train_log.csv")
    out = _ckpt_path(cfg, ckpt.stage)
    ckpt.save(out)
    print(f"{ckpt.stage} checkpoint -> {out}")
    return 0


def cmd_adapt(args, cfg) -> int:
    import csv as csv_mod

    from .adapt import adapt_supervised, adapt_unsupervised

    keep = None
    if args.subset_from:
        path = _require(Path(args.subset_from), "selection file")
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv_mod.DictReader(f)
            for column in ("scene_id", "selected"):
                if column not in (reader.fieldnames or ()):
                    raise ValueError(f"{path}: selection file lacks column {column!r}")
            keep = [row["scene_id"] for row in reader if row["selected"] == "1"]
    records, data = _load_data(args, cfg, "target_train")
    if keep is not None:
        known = {r.scene_id for r in records}
        unknown = [sid for sid in keep if sid not in known]
        if unknown:
            raise ValueError(f"{path}: {len(unknown)} selected scenes are not in the "
                             f"dataset (first: {unknown[0]})")
        keep = set(keep)
        records = [r for r in records if r.scene_id in keep]
    ckpt = _load_ckpt(args, cfg, "stage3")
    _check_fit(records, data, ckpt.model.spec)
    _log_resolved(cfg)
    fn = adapt_supervised if args.mode == "sup" else adapt_unsupervised
    out_ckpt = fn(records, ckpt, cfg.train,
                  log_path=cfg.out_dir / "train_log.csv")
    out = _ckpt_path(cfg, out_ckpt.stage)
    out_ckpt.save(out)
    print(f"adaptation ({args.mode}) checkpoint -> {out}")
    return 0


def cmd_active_select(args, cfg) -> int:
    from .adapt import active_select

    if not 0.0 < args.budget <= 1.0:
        raise ValueError(f"active-select --budget must be in (0, 1], got {args.budget}")
    records, data = _load_data(args, cfg, "target_train")
    ckpt = _load_ckpt(args, cfg, "stage3")
    _check_fit(records, data, ckpt.model.spec)
    _log_resolved(cfg)
    report = active_select(records, ckpt, budget=args.budget,
                           strategy=args.strategy, seed=cfg.seed)
    out = Path(args.out) if args.out else cfg.out_dir / f"selection_{args.strategy}.csv"
    report.write_csv(out)
    print(f"selected {len(report.selected)}/{len(records)} scenes "
          f"({args.strategy}, budget {args.budget}) -> {out}")
    return 0


def cmd_eval(args, cfg) -> int:
    from .evalmetrics import check_subset, evaluate

    check_subset(args.subset, cfg.rarity_bins)
    records, data = _load_data(args, cfg, "source_val")
    ckpt = _load_ckpt(args, cfg, "stage3")
    _check_fit(records, data, ckpt.model.spec)
    _log_resolved(cfg)
    report = evaluate(records, ckpt.model, mode=args.mode, subset=args.subset,
                      rarity_bins=cfg.rarity_bins)
    out = Path(args.out) if args.out else (
        cfg.out_dir / f"eval_{args.mode}_{args.subset}.csv")
    report.write_csv(out)
    print(report.summary_text())
    print(f"eval report -> {out}")
    return 0


def cmd_inspect_ckpt(args, cfg) -> int:
    from .trainer import CHECKPOINT_SCHEMA, Checkpoint

    ckpt = Checkpoint.load(_require(Path(args.ckpt), "checkpoint"))
    print(f"schema: {CHECKPOINT_SCHEMA}  stage: {ckpt.stage}")
    print(f"model_spec: {ckpt.model.spec}")
    for name, arr in sorted(ckpt.model.tensors.items()):
        print(f"  {name}  {list(arr.shape)}")
    return 0


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_train,
    "fit-gp": cmd_train,
    "finetune": cmd_train,
    "adapt": cmd_adapt,
    "active-select": cmd_active_select,
    "eval": cmd_eval,
    "inspect-ckpt": cmd_inspect_ckpt,
}


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def cli_run(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code. A library warning
    is one stderr line, ``warning: <message>``, and a failure one line
    ``error: <message>``."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return _HANDLERS[args.command](args, _load_config(args))
        except Exception as e:  # noqa: BLE001 - single line, machine-parsable
            print(f"error: {e}", file=sys.stderr)
            return 1


def main() -> None:
    raise SystemExit(cli_run())


if __name__ == "__main__":
    main()
