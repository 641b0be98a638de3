"""The workloads: data set-up, model set-up and the timed passes.

Both workloads run one pipeline through the library's public entry points:

    stage1 -> stage2 -> stage3 -> select -> adapt_unsup -> adapt_sup -> eval

``source_train`` times the whole pipeline in each pass: source training,
then adaptation to the target domain, then eval. ``target_infer`` runs the
same training and adaptation during set-up and then times only inference:
selection with both strategies and eval in both modes, on a frozen model.

Timing. On the shared 2-core VMs this runs on, identical work ran up to
1.8x slower for stretches of 5 to 25 s while other tenants loaded the host,
and over ten runs raw phase throughputs spread by 0.16 to 0.53 of their
median. So ``HostSampler`` times ``reference_loop``, a fixed piece of
numpy and LAPACK work, every 40 ms all through a run, from a timer signal,
and every timed span (a phase, a pass, a set-up) is corrected by how slow
the loop ran inside it: seconds at the host speed ``REF_S`` stands for. The
samples' own time is left out of every span. Raw times are kept beside the
corrected ones. Every run sets up twice and runs at least two passes;
each metric is the median of its corrected samples. A phase's samples come
from the passes when a pass runs the phase, else from the set-ups.

``--seed`` drives the target_city adaptation pool and the random selection.
The source_city training corpus, ``TrainConfig.seed`` and the held-out
target_city test split are pinned. At the sizes a run can afford, one
stage-1 epoch is far from convergence: models trained on five different
corpora had collision rates from 0.5 % to 11 % on the same test scenes. And
a 1000-scene test split drawn per seed adds binomial noise of about 22 % to
a 2 % collision rate. Either would drown a change in the quality metrics,
whose job is to show when a change alters the arithmetic.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import dataclasses
import hashlib
import math
import resource
import signal
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from gptraj import adapt, config, core, evalmetrics, synthdomain, trainer

MODEL_SEED = 0
TEST_SEED = 2**31 - 1  # the pinned test split; refused as a --seed
SOURCE_DOMAIN = "source_city"
TARGET_DOMAIN = "target_city"
# set-ups per untraced run; setup_s is their median. target_infer's set-up
# trains a model, so more would not fit the time the benchmark may take.
SETUP_REPEATS = 2
MIN_PASSES = 2
L2_LIMIT_M = 2 * core.COORD_BOUND  # a finite but larger error is a broken planner

WORKLOADS = ("source_train", "target_infer")
PHASES = ("stage1", "stage2", "stage3", "select", "adapt_unsup", "adapt_sup",
          "eval_roca", "eval_base")


@dataclasses.dataclass(frozen=True)
class Sizes:
    corpus: int  # labeled source_city scenes; stage 1 runs one epoch over all
    stage2: int  # corpus prefix fitted in stage 2, one epoch
    stage3: int  # corpus prefix finetuned in stage 3
    stage3_epochs: int
    pool: int  # target_city scenes from --seed, for selection and adaptation
    unsup_epochs: int
    sup_epochs: int
    budget: float  # share of the pool selected for supervised adaptation
    eval: int  # labeled target_city test split, pinned
    # a select phase repeats its identical call until it has ranked at least
    # this many scenes, so that it lasts long enough to time
    select_scenes: int


# A scene's cost grows with its agents, and the pool's seed decides which
# scenes are selected. With 15 of them, adapt_sup's throughput moved by up to
# 0.4 of its median between seeds, with 50 by 0.2; hence a 200-scene pool and
# budget 0.5. With a 400-scene test split, one evaluate(mode="base") call was
# too short to time: eval_base's throughput spread 0.23 over five runs.
SIZES = {
    "full": Sizes(corpus=1000, stage2=64, stage3=64, stage3_epochs=2, pool=200,
                  unsup_epochs=1, sup_epochs=2, budget=0.5, eval=800,
                  select_scenes=1000),
    "toy": Sizes(corpus=90, stage2=12, stage3=12, stage3_epochs=2, pool=16,
                 unsup_epochs=1, sup_epochs=2, budget=0.5, eval=24,
                 select_scenes=32),
}

SPECS = {
    "full": trainer.ModelSpec(),  # token_dim 32, 48 + 64 groups x 16 tokens
    "toy": trainer.ModelSpec(token_dim=8, n_ego=12, n_agent=7, group_size=4,
                             encoder_hidden=16, planner_hidden=16,
                             classifier_hidden=16),
}


# reference_loop() on a quiet 2-core x86_64 VM, Python 3.11, numpy 2.4, scipy 1.17
REF_S = 0.95e-3
SAMPLE_EVERY_S = 0.04  # pause between two host-speed samples
MIN_REFS = 32  # a span with fewer samples also uses its neighbours'
_REF_MATRIX = np.random.default_rng(0).normal(0.0, 32**-0.5, size=(32, 32))
_REF_A = np.random.default_rng(1).normal(size=(48, 48))
_REF_SPD = _REF_A @ _REF_A.T + 48 * np.eye(48)
_REF_RHS = np.random.default_rng(2).normal(size=(48, 16))


def reference_loop() -> None:
    """Fixed work shaped like the library's: small numpy calls from Python,
    then small Cholesky factors and triangular solves, as in the GP.

    Host load slowed the library's phases by different shares. Correcting
    five phases timed over 200 s, this mix left a smaller spread than the
    numpy half alone on every one. It allocates no
    container objects, so the garbage collector, and with it the size of the
    library's heap, cannot change its speed.
    """
    y = np.ones(32)
    for _ in range(200):
        y = np.tanh(_REF_MATRIX @ y + 0.1)
    for _ in range(6):
        lower = np.linalg.cholesky(_REF_SPD)
        x = solve_triangular(lower, _REF_RHS, lower=True)
        x = solve_triangular(lower.T, x, lower=False)
        _REF_SPD @ x


class HostSampler:
    """Times ``reference_loop`` every SAMPLE_EVERY_S all through a run.

    A SIGALRM timer runs the loop between two bytecodes of whatever the
    run is doing, so the samples fall inside every timed span. ``clock``
    leaves their time out. The host takes time away in slices of a few
    milliseconds, so single samples are either slowed or not, and a span's
    slowdown is the mean of its samples, not their median.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.total = 0.0  # seconds spent in samples
        self._on = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if not self._on:
            return
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(dt)
        self.total += dt
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def clock(self) -> float:
        """Seconds, not counting the time spent in samples."""
        return time.perf_counter() - self.total

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_ref_s(self, t0: float, t1: float) -> float:
        """Mean sample time in [t0, t1] (perf_counter), widened to MIN_REFS."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < MIN_REFS and (lo > 0 or hi < len(self.starts)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.starts))
        return statistics.fmean(self.durations[lo:hi])


@dataclasses.dataclass(frozen=True)
class Span:
    """A timed span: its seconds without host samples, and its perf_counter bounds."""

    raw: float
    t0: float
    t1: float


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _one_line(exc: Exception) -> str:
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text}"


class Run:
    """One workload at one seed: its data, model and measurements."""

    def __init__(self, workload: str, seed: int, profile: str, work: Path):
        if seed % 2**32 == TEST_SEED:
            raise ValueError(f"seed {seed} is reserved for the test split")
        self.workload = workload
        self.seed = seed
        self.sizes = SIZES[profile]
        self.spec = SPECS[profile]
        self.work = work
        cfg = config.resolve({})
        self.source = cfg.domain(SOURCE_DOMAIN)
        self.target = cfg.domain(TARGET_DOMAIN)
        self.train_cfg = dataclasses.replace(
            cfg.train, seed=MODEL_SEED, epochs_stage1=1, epochs_stage2=1,
            epochs_stage3=self.sizes.stage3_epochs)
        self.in_pass = False
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()  # one-line error -> occurrences
        self.problems: list[str] = []  # failed output checks
        self.checkpoint_sha256: dict[str, str] = {}
        self.quality: dict[str, tuple[float, float]] = {}
        # phase -> [(scene-passes, Span)], one per sample
        self.setup_samples: defaultdict = defaultdict(list)
        self.pass_samples: defaultdict = defaultdict(list)
        self.setups: list[Span] = []
        self.passes: list[Span] = []
        self.host = HostSampler()
        self.setup_digest: str | None = None
        self.frozen = None

    # --- operations ------------------------------------------------------------

    def _op(self, fn, *args, **kwargs):
        """Call one library operation; in a pass, count it and its failure."""
        if self.in_pass:
            self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            if self.in_pass:
                self.failed += 1
            self.errors[f"{fn.__qualname__}: {_one_line(e)}"] += 1
            raise

    def _window(self, fn, *args):
        """Call ``fn``; returns its result and its Span."""
        t0, c0 = time.perf_counter(), self.host.clock()
        out = fn(*args)
        return out, Span(self.host.clock() - c0, t0, time.perf_counter())

    def corrected(self, span: Span) -> float:
        """``span``'s seconds at the host speed of REF_S."""
        return span.raw * REF_S / self.host.mean_ref_s(span.t0, span.t1)

    def _timed(self, phase: str, scene_passes: int, calls: int, fn, *args, **kwargs):
        """``calls`` identical calls as one sample of ``phase``; returns the results."""
        outs, span = self._window(
            lambda: [self._op(fn, *args, **kwargs) for _ in range(calls)])
        samples = self.pass_samples if self.in_pass else self.setup_samples
        samples[phase].append((scene_passes * calls, span))
        return outs

    def _check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.problems:
            self.problems.append(what)

    def _check_loss_log(self, phase: str, path: Path) -> None:
        with open(path, newline="", encoding="utf-8") as f:
            values = [float(row["value"]) for row in csv.DictReader(f)]
        self._check(bool(values), f"{phase}: no loss terms logged")
        self._check(all(math.isfinite(v) for v in values),
                    f"{phase}: non-finite loss term logged")

    def roundtrip(self, ckpt, label: str):
        """Save, hash and reload a checkpoint within a pass.

        A failed load is counted and the pass continues from ``ckpt``. A load
        that succeeds must save back to the same bytes.
        """
        path = self.work / f"{label}.ckpt"
        self._op(ckpt.save, path)
        digest = _sha256(path)
        self._check(self.checkpoint_sha256.setdefault(label, digest) == digest,
                    f"{label}: checkpoint sha256 differs between passes")
        try:
            loaded = self._op(trainer.Checkpoint.load, path)
        except Exception:
            return ckpt  # counted and recorded by _op
        resaved = self.work / f"{label}.resaved.ckpt"
        loaded.save(resaved)
        if _sha256(resaved) != digest:
            self.failed += 1
            self.errors[f"{label}: save/load/save changed the checkpoint bytes"] += 1
        return loaded

    def _train(self, phase: str, scene_passes: int, fn, *args):
        log = self.work / f"{phase}.csv"
        log.unlink(missing_ok=True)
        [ckpt] = self._timed(phase, scene_passes, 1, fn, *args, log_path=log)
        self._check_loss_log(phase, log)
        return self.roundtrip(ckpt, phase) if self.in_pass else ckpt

    # --- phases ----------------------------------------------------------------

    def select(self, ckpt, unlabeled, strategy: str):
        calls = math.ceil(self.sizes.select_scenes / len(unlabeled))
        reps = self._timed("select", len(unlabeled), calls, adapt.active_select,
                           unlabeled, ckpt, self.sizes.budget, strategy=strategy,
                           seed=self.seed)
        rep = reps[0]
        ids = {r.scene_id for r in unlabeled}
        k = math.ceil(self.sizes.budget * len(unlabeled))
        self._check(len(rep.selected) == k and len(set(rep.selected)) == k
                    and set(rep.selected) <= ids and len(rep.rows) == len(unlabeled),
                    f"active_select({strategy}) did not return {k} distinct input scenes")
        self._check(all(r.rows == rep.rows and r.selected == rep.selected for r in reps),
                    f"active_select({strategy}) differs between identical calls")
        return rep

    def train_and_adapt(self):
        """Stages 1-3 on the source corpus, then both adaptations on the pool."""
        s, cfg = self.sizes, self.train_cfg
        ckpt = self._train("stage1", len(self.corpus), trainer.stage1_pretrain,
                           self.corpus, cfg, self.spec)
        ckpt = self._train("stage2", s.stage2, trainer.stage2_fit_gp,
                           self.corpus[:s.stage2], ckpt, cfg)
        ckpt = self._train("stage3", s.stage3 * s.stage3_epochs, trainer.stage3_finetune,
                           self.corpus[:s.stage3], ckpt, cfg)
        chosen = set(self.select(ckpt, self.pool_unlabeled, "variance").selected)
        labeled = [r for r in self.pool if r.scene_id in chosen]
        ckpt = self._train("adapt_unsup", len(self.pool) * s.unsup_epochs,
                           adapt.adapt_unsupervised, self.pool_unlabeled, ckpt,
                           dataclasses.replace(cfg, adapt_epochs=s.unsup_epochs))
        return self._train("adapt_sup", len(labeled) * s.sup_epochs,
                           adapt.adapt_supervised, labeled, ckpt,
                           dataclasses.replace(cfg, adapt_epochs=s.sup_epochs))

    def evaluate(self, ckpt) -> None:
        for mode in ("roca", "base"):
            [rep] = self._timed(f"eval_{mode}", len(self.eval), 1, evalmetrics.evaluate,
                                self.eval, ckpt.model, mode=mode)
            l2, col = rep.avg_l2_m, rep.collision_rate_pct
            self._check(math.isfinite(l2) and 0.0 <= l2 <= L2_LIMIT_M,
                        f"eval {mode}: avg_l2 {l2} outside [0, {L2_LIMIT_M}] m")
            self._check(math.isfinite(col) and 0.0 <= col <= 100.0,
                        f"eval {mode}: collision rate {col} outside [0, 100] %")
            self._check(self.quality.setdefault(mode, (l2, col)) == (l2, col),
                        f"eval {mode}: metrics differ between passes")

    # --- set-up and passes -----------------------------------------------------

    def _make_data(self) -> str:
        s = self.sizes
        corpus = synthdomain.gen_dataset(self.source, s.corpus, seed=MODEL_SEED)
        pool = synthdomain.gen_dataset(self.target, s.pool, seed=self.seed)
        test = synthdomain.gen_dataset(self.target, s.eval, seed=TEST_SEED)
        parts = {"corpus": corpus, "pool": pool, "eval": test}
        for name, records in parts.items():
            core.save_dataset(records, self.work / f"{name}.jsonl")
        for name in parts:
            setattr(self, name, core.load_dataset(self.work / f"{name}.jsonl"))
        self.pool_unlabeled = synthdomain.strip_labels(self.pool)
        self.eval_unlabeled = synthdomain.strip_labels(self.eval)
        return "".join(_sha256(self.work / f"{name}.jsonl") for name in parts)

    def _setup_body(self, tracer) -> str:
        with tracer or contextlib.nullcontext():
            digest = self._make_data()
        if self.workload == "target_infer":
            self.frozen = self.train_and_adapt()
        return digest

    def setup(self, tracer=None) -> None:
        """One set-up; every set-up of a run must produce the same bytes.

        It generates, writes and loads the scenes, then, on target_infer,
        trains and adapts the frozen model. Only the data part runs under
        ``tracer``.
        """
        digest, span = self._window(self._setup_body, tracer)
        self.setups.append(span)
        if self.frozen is not None:
            self.frozen.save(self.work / "setup.ckpt")
            digest += _sha256(self.work / "setup.ckpt")
        self._check(self.setup_digest in (None, digest), "set-up is not deterministic")
        self.setup_digest = digest

    def _pass_body(self) -> None:
        if self.workload == "source_train":
            self.evaluate(self.train_and_adapt())
            return
        ckpt = self.roundtrip(self.frozen, "frozen")
        for strategy in ("variance", "random"):
            self.select(ckpt, self.eval_unlabeled, strategy)
        self.evaluate(ckpt)

    def run_pass(self) -> None:
        self.in_pass = True
        try:
            _, span = self._window(self._pass_body)
        finally:
            self.in_pass = False
        self.passes.append(span)

    def run(self, seconds: float) -> None:
        """Set up SETUP_REPEATS times, then run passes.

        Passes run until at least MIN_PASSES ran and they took ``seconds``.
        On target_infer a pass also follows each set-up, so that its short
        inference samples spread over the whole run.
        """
        with self.host:
            for _ in range(SETUP_REPEATS):
                self.setup()
                if self.workload == "target_infer":
                    self.run_pass()
            while len(self.passes) < MIN_PASSES or sum(p.raw for p in self.passes) < seconds:
                self.run_pass()

    def traced_run(self, tracer) -> float:
        """One set-up with its data part traced, an untraced pass, then a
        traced pass; returns the tracing overhead in corrected seconds.

        ``tracer`` should time with ``self.host.clock``, which leaves the
        host-speed samples out of its spans.
        """
        with self.host:
            self.setup(tracer)
            self.run_pass()
            with tracer:
                self.run_pass()
        return self.corrected(self.passes[1]) - self.corrected(self.passes[0])

    # --- results ---------------------------------------------------------------

    def rates(self, phase: str) -> list[tuple[float, float]]:
        """(corrected, raw) scenes/s per sample, from the passes if they ran it."""
        samples = self.pass_samples.get(phase) or self.setup_samples[phase]
        return [(n / self.corrected(span), n / span.raw) for n, span in samples]

    def timings(self) -> dict:
        """Every timed span as [corrected, raw] seconds or scenes/s."""
        return {
            "setup_s": [(self.corrected(s), s.raw) for s in self.setups],
            "pass_s": [(self.corrected(p), p.raw) for p in self.passes],
            "scenes_per_s": {phase: self.rates(phase) for phase in PHASES},
            "reference_s": {"samples": len(self.host.durations),
                            "mean": statistics.fmean(self.host.durations),
                            "min": min(self.host.durations),
                            "max": max(self.host.durations)},
        }

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics as name -> (value, unit)."""
        metrics = {
            "setup_s": (statistics.median(map(self.corrected, self.setups)), "s"),
            "wall_s": (statistics.median(map(self.corrected, self.passes)), "s"),
        }
        for phase in PHASES:
            rates = [c for c, _ in self.rates(phase)]
            metrics[f"{phase}_scenes_per_s"] = (statistics.median(rates), "scenes/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        for mode in ("roca", "base"):
            l2, col = self.quality[mode]
            metrics[f"avg_l2_{mode}_m"] = (l2, "m")
            metrics[f"collision_{mode}_pct"] = (col, "%")
        metrics["failed_op_share"] = (self.failed / self.attempted, "ratio")
        return metrics
