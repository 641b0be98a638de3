"""Per-layer probes that wrap gptraj's functions from outside the package.

Each probe target is found by object identity in every loaded ``gptraj.*``
module namespace and in the attribute dict of every class those modules
hold, so aliases such as ``trainer.grad = autodiff.grad`` and names bound by
``from ... import`` are replaced too. A target that no longer exists is
reported as absent instead of failing the run.

A probe records calls and self time: the time inside the call minus the time
inside probed calls nested in it. Spans are kept in memory and summarised at
the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

PROBES = (
    "autodiff.grad",
    "gpmodule.GpGraph.group_cond",
    "gpmodule.GpGraph.kernel_features",
    "gpmodule.GpGraph.reconstruct",
    "gpmodule.GpGraph.predict_trajectory",
    "gpmodule.GpInference.__init__",
    "gpmodule.GpInference.predict_scene",
    "psdlinalg.cholesky_factor",
    "psdlinalg.solve_with_factor",
    "psdlinalg.kernel_matrix",
    "psdlinalg.kernel_matrix_t",
    "losses.loss_rec",
    "losses.loss_sup",
    "losses.loss_gp_teacher",
    "trainer.base_supervised_loss",
    "trainer.gp_stage_loss",
    "trainer.finetune_scene_loss",
    "trainer.scene_labels",
    "trainer.Adam.step",
    "trainer.Checkpoint.save",
    "trainer.Checkpoint.load",
    "codebook.sample_and_cluster",
    "codebook.nearest_group",
    "basemodel.encode",
    "basemodel.plan",
    "basemodel.encode_t",
    "basemodel.planner_t",
    "evalmetrics.collision",
    "evalmetrics.avg_l2",
    "synthdomain.gen_dataset",
    "core.save_dataset",
    "core.load_dataset",
)

# metrics the probes' hooks add beside <probe>.calls and <probe>.self_s
EXTRA_METRICS = {
    "autodiff.tape_nodes_per_step": "nodes",
    "psdlinalg.cholesky_factor.jitter_escalations": "count",
    "trainer.step_ms.p50": "ms",
    "trainer.step_ms.p90": "ms",
    "trainer.step_ms.samples": "count",
    "trainer.Checkpoint.load.failures": "count",
    "core.dataset_bytes": "B",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {}
    for name in PROBES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    units["trace.overhead_s"] = "s"
    return units


def tape_size(root) -> int:
    """Number of distinct tape nodes reachable from ``root``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Installs the probes, accumulates their spans, and restores on exit.

    Spans are timed with ``clock``, in seconds.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.step_ms: list[float] = []
        self.absent: list[str] = []
        self._child_s: list[float] = []  # one accumulator per open span
        self._last_step = (None, 0.0)
        self._replaced: list[tuple[object, str, object]] = []

    # --- hooks: extra counts at the probed boundaries ------------------------

    def _before(self, name, args, kwargs):
        if name == "autodiff.grad":
            loss = args[0] if args else kwargs["loss"]
            self.counts["autodiff.tape_nodes"] += tape_size(loss)

    def _after(self, name, args, kwargs, out):
        if name == "psdlinalg.cholesky_factor":
            if getattr(out, "jitter_used", 0.0) > 0.0:
                self.counts["psdlinalg.cholesky_factor.jitter_escalations"] += 1
        elif name == "trainer.Adam.step":
            # a step spans from the previous step of the same optimizer
            now = self.clock()
            opt, last = self._last_step
            if opt is args[0]:
                self.step_ms.append(1e3 * (now - last))
            self._last_step = (args[0], now)
        elif name == "core.save_dataset":
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts["core.dataset_bytes"] += os.path.getsize(path)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            t_hook = self.clock()
            self._before(name, args, kwargs)
            if self._child_s:  # hook time is tracer cost, not the caller's
                self._child_s[-1] += self.clock() - t_hook
            self._child_s.append(0.0)
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if name == "trainer.Checkpoint.load":
                    self.counts["trainer.Checkpoint.load.failures"] += 1
                raise
            finally:
                dt = self.clock() - t0
                self.calls[name] += 1
                self.self_s[name] += dt - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
            t_hook = self.clock()
            self._after(name, args, kwargs, out)
            if self._child_s:
                self._child_s[-1] += self.clock() - t_hook
            return out

        return probe

    # --- installation ----------------------------------------------------------

    @staticmethod
    def _namespaces():
        """Every gptraj module and every class reachable from one, once each."""
        seen = set()
        for mname, mod in list(sys.modules.items()):
            if mname != "gptraj" and not mname.startswith("gptraj."):
                continue
            for ns in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                if id(ns) not in seen and (ns is mod or ns.__module__.startswith("gptraj")):
                    seen.add(id(ns))
                    yield ns

    @staticmethod
    def _resolve(dotted: str):
        mod_name, *path = dotted.split(".")
        obj = importlib.import_module(f"gptraj.{mod_name}")
        for attr in path:
            # a class's own dict keeps classmethod objects unbound
            obj = vars(obj).get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
            if obj is None:
                return None
        return obj

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        self.absent.clear()
        for name in PROBES:
            target = self._resolve(name)
            if target is None:
                self.absent.append(name)
                continue
            if isinstance(target, (classmethod, staticmethod)):
                wrapped = type(target)(self._wrap(name, target.__func__))
            else:
                wrapped = self._wrap(name, target)
            for ns in self._namespaces():
                for attr, value in list(vars(ns).items()):
                    if value is target:
                        setattr(ns, attr, wrapped)
                        self._replaced.append((ns, attr, target))

    def uninstall(self) -> None:
        for ns, attr, target in reversed(self._replaced):
            setattr(ns, attr, target)
        self._replaced.clear()

    # --- summary -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in PROBES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        grads = self.calls["autodiff.grad"]
        out["autodiff.tape_nodes_per_step"] = (
            self.counts["autodiff.tape_nodes"] / grads if grads else 0.0)
        for key in ("psdlinalg.cholesky_factor.jitter_escalations",
                    "trainer.Checkpoint.load.failures", "core.dataset_bytes"):
            out[key] = self.counts[key]
        steps = sorted(self.step_ms)
        out["trainer.step_ms.p50"] = statistics.median(steps) if steps else 0.0
        out["trainer.step_ms.p90"] = (
            statistics.quantiles(steps, n=10)[-1] if len(steps) > 1 else sum(steps))
        out["trainer.step_ms.samples"] = len(steps)
        return out
