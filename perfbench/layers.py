"""Per-layer tracing from outside the program.

:class:`LayerTracer` times calls into each layer's public functions by
replacing them, for the duration of one traced pass, with wrappers
installed where the callers look them up: on the class for methods, and
in the importing module for functions imported by name. Nothing under
``src/`` changes. :meth:`LayerTracer.remove` puts every original back.

A span is one wrapped call. Its *self time* is its duration minus the
time of the traced calls made inside it, so a layer's self time is
the work done in that layer and not in the layers below it. A hook that
cannot be found (a later version renamed or removed it) is recorded in
:attr:`LayerTracer.absent`; the metrics that need it are then reported
as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

#: Spans whose time is solver, model or kernel work; the rest of
#: ``SolveService.execute`` is the execution shell.
_WORK_SPANS = frozenset({"solvers.RRL", "solvers.RSD", "solvers.SR",
                         "planner.fused", "models", "kernel.build"})


@dataclass
class SpanStats:
    calls: int = 0
    outer_calls: int = 0
    """Calls with no enclosing span of the same name."""
    outer_s: float = 0.0
    """Inclusive seconds of the outer calls."""
    self_s: float = 0.0


def _solver_class(method: str) -> type | None:
    """The class the solver registry builds for ``method``, if any."""
    try:
        from repro.solvers.registry import get_spec

        constructor = get_spec(method).constructor
    except (ImportError, LookupError, ValueError):
        return None
    return constructor if isinstance(constructor, type) else None


class LayerTracer:
    """Install span wrappers on the layer hooks; read metrics afterwards."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, float] = defaultdict(float)
        self.abscissae: list[int] = []
        self.plans: list = []
        self.installed: set[str] = set()
        self.absent: set[str] = set()
        self._stack: list[list] = []  # [name, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._work_depth = 0
        self._service_depth = 0
        self._work_in_service_s = 0.0
        self._originals: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        stack, depth, spans = self._stack, self._depth, self.spans
        is_work = name in _WORK_SPANS
        is_service = name == "service"

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            if is_work:
                self._work_depth += 1
            if is_service:
                self._service_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                depth[name] -= 1
                if is_work:
                    self._work_depth -= 1
                    if self._work_depth == 0 and self._service_depth:
                        self._work_in_service_s += seconds
                if is_service:
                    self._service_depth -= 1
                if stack:
                    stack[-1][1] += seconds
                st = spans[name]
                st.calls += 1
                st.self_s += seconds - frame[1]
                if depth[name] == 0:
                    st.outer_calls += 1
                    st.outer_s += seconds
            if observe is not None:
                try:
                    observe(result, args, depth[name] == 0)
                except (AttributeError, TypeError, IndexError):
                    self.absent.add(f"{name} result")
            return result

        return traced

    def _count(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def _resolve(self, where: str):
        """``module`` or ``module:Class`` -> the object, or None."""
        module_name, _, cls_name = where.partition(":")
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            return None
        return getattr(obj, cls_name, None) if cls_name else obj

    def hook(self, span: str, where: str, attr: str, observe=None) -> None:
        """Wrap ``where.attr`` (a function, method or classmethod)."""
        owner = self._resolve(where)
        raw = None
        if owner is not None:
            raw = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
        if raw is None:
            self.absent.add(f"{where}.{attr}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(span, raw.__func__, observe))
        else:
            wrapped = self._wrap(span, raw, observe)
        self._patch(owner, attr, wrapped)
        self.installed.add(span)

    def count(self, counter: str, where: str, attr: str) -> None:
        """Count calls of ``where.attr`` without timing them."""
        owner = self._resolve(where)
        raw = getattr(owner, attr, None) if owner is not None else None
        if raw is None:
            self.absent.add(f"{where}.{attr}")
            return
        self._patch(owner, attr, self._count(counter, raw))
        self.installed.add(counter)

    def remove(self) -> None:
        """Restore every patched attribute (last patched, first restored)."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    # -- observers --------------------------------------------------------

    def _observe_points(self, result, args, outer: bool) -> None:
        if outer:
            self.counters["transforms.evals"] += 1
            self.counters["transforms.points"] += len(args[1])

    def _observe_inversion(self, result, args, outer: bool) -> None:
        self.abscissae.append(int(result.n_abscissae))

    def _observe_plan(self, result, args, outer: bool) -> None:
        self.plans.append(result)

    def install(self) -> None:
        """Wrap every layer hook this benchmark measures."""
        self.hook("models", "repro.models.builder:StateSpaceBuilder",
                  "explore")
        self.hook("models", "repro.batch.scenarios:Scenario", "build")
        self.hook("kernel.build", "repro.batch.kernel:UniformizationKernel",
                  "from_model")
        for attr in ("step", "step_rate"):
            self.hook("kernel.step", "repro.batch.kernel:UniformizationKernel",
                      attr)
        self.hook("steady_state", "repro.markov.rsd",
                  "stationary_distribution")
        self.hook("schedules.step", "repro.core.schedules:ScheduleBuilder",
                  "step")
        self.hook("truncation", "repro.core.rrl_solver", "select_truncation")
        for attr in ("poisson_expected_excess", "poisson_sf"):
            self.count("truncation.poisson_evals", "repro.core.truncation",
                       attr)
        for attr in ("trr", "cumulative", "p0"):
            self.hook("transforms", "repro.core.transforms:VklTransform",
                      attr, observe=self._observe_points)
        for attr in ("invert_bounded", "invert_cumulative"):
            self.hook("laplace", "repro.core.rrl_solver", attr,
                      observe=self._observe_inversion)
        self.hook("laplace.wynn", "repro.laplace.epsilon:EpsilonAccelerator",
                  "add")
        for method in ("RRL", "RSD", "SR"):
            cls = _solver_class(method)
            if cls is None:
                self.absent.add(f"solver {method}")
                continue
            for attr in ("solve", "solve_fused"):
                if attr in cls.__dict__:
                    self.hook(f"solvers.{method}",
                              f"{cls.__module__}:{cls.__name__}", attr)
        self.hook("planner.plan", "repro.service.service", "plan_requests",
                  observe=self._observe_plan)
        self.hook("planner.fused", "repro.batch.planner", "run_fused_group")
        self.hook("service", "repro.service.service:SolveService", "execute")

    # -- metrics ----------------------------------------------------------

    def _span(self, name: str) -> SpanStats:
        if name not in self.installed:
            raise KeyError(name)
        return self.spans[name]

    def _counted(self, name: str, requires: str) -> float:
        if requires not in self.installed:
            raise KeyError(requires)
        return self.counters[name]

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """``(values, absent metric names)`` for one traced pass."""
        span, counted = self._span, self._counted

        def abscissae() -> list[int]:
            span("laplace")
            return self.abscissae

        def laplace_s() -> float:
            return span("laplace").self_s + span("laplace.wynn").self_s

        def plan_total(attr: str) -> float:
            span("planner.plan")
            return float(sum(getattr(p, attr) for p in self.plans))

        formulas = {
            "models.builds": lambda: span("models").outer_calls,
            "models.explore_s": lambda: span("models").self_s,
            "kernel.builds": lambda: span("kernel.build").outer_calls,
            "kernel.build_s": lambda: span("kernel.build").self_s,
            "steady_state.solves": lambda: span("steady_state").calls,
            "steady_state.s": lambda: span("steady_state").self_s,
            "kernel.matvecs": lambda: span("kernel.step").calls,
            "kernel.step_s": lambda: span("kernel.step").self_s,
            "schedules.steps": lambda: span("schedules.step").calls,
            "schedules.step_s": lambda: span("schedules.step").self_s,
            "truncation.selects": lambda: span("truncation").calls,
            "truncation.s": lambda: span("truncation").self_s,
            "truncation.poisson_evals":
                lambda: counted("truncation.poisson_evals",
                                "truncation.poisson_evals"),
            "transforms.evals":
                lambda: counted("transforms.evals", "transforms"),
            "transforms.points":
                lambda: counted("transforms.points", "transforms"),
            "transforms.s": lambda: span("transforms").self_s,
            "laplace.inversions": lambda: span("laplace").calls,
            "laplace.abscissae": lambda: sum(abscissae()),
            "laplace.abscissae_min": lambda: min(abscissae()),
            "laplace.abscissae_max": lambda: max(abscissae()),
            "laplace.s": laplace_s,
            "laplace.wynn_adds": lambda: span("laplace.wynn").calls,
            "laplace.wynn_s": lambda: span("laplace.wynn").self_s,
            "laplace.share_of_rrl":
                lambda: (laplace_s() + span("transforms").self_s)
                / span("solvers.RRL").outer_s,
            "solvers.RRL_s": lambda: span("solvers.RRL").outer_s,
            "solvers.RSD_s": lambda: span("solvers.RSD").outer_s,
            "solvers.SR_s": lambda: span("solvers.SR").outer_s,
            "planner.tasks": lambda: plan_total("n_tasks"),
            "planner.coalesced": lambda: plan_total("coalesced"),
            "planner.fused_cells": lambda: plan_total("fused_cells"),
            "planner.plan_s": lambda: span("planner.plan").self_s,
            "planner.fused_s": lambda: span("planner.fused").outer_s,
            "service.shell_s":
                lambda: span("service").outer_s - self._work_in_service_s,
        }
        values: dict[str, float] = {}
        absent: list[str] = []
        for name, formula in formulas.items():
            try:
                values[name] = float(formula())
            except (KeyError, ValueError, ZeroDivisionError, AttributeError):
                absent.append(name)
        return values, absent


#: ``metric prefix -> (module, info function, hits field, misses field)``
#: for the program's cache statistics; ``None`` fields read an int.
CACHE_INFO = {
    "cache.model": ("repro.batch.planner", "worker_cache_info",
                    "hits", "misses"),
    "cache.schedule": ("repro.core.schedule_cache",
                       "process_schedule_cache_info", "hits", "misses"),
    "cache.fox_glynn": ("repro.batch.kernel", "fox_glynn_cache_info",
                        "hits", "misses"),
    "cache.poisson_tail": ("repro.batch.kernel", "poisson_tail_cache_info",
                           "hits", "misses"),
    "cache.kernel_builds": ("repro.batch.kernel", "kernel_build_count",
                            None, None),
}


def read_caches() -> tuple[dict[str, float], list[str]]:
    """Current cache counters by metric name, plus absent metric names."""
    values: dict[str, float] = {}
    absent: list[str] = []
    for prefix, (module, fn_name, hits, misses) in CACHE_INFO.items():
        names = [prefix] if hits is None else [f"{prefix}_hits",
                                              f"{prefix}_misses"]
        try:
            info = getattr(importlib.import_module(module), fn_name)()
            if hits is None:
                values[prefix] = float(info)
                continue
            for name, field in zip(names, (hits, misses)):
                values[name] = float(info[field] if isinstance(info, dict)
                                     else getattr(info, field))
        except (ImportError, AttributeError, KeyError, TypeError):
            absent += names
    return values, absent


def cache_deltas(before: dict[str, float], after: dict[str, float]
                 ) -> dict[str, float]:
    """Counter growth over one pass (a cleared cache restarts at 0)."""
    return {name: after[name] - before.get(name, 0.0) for name in after}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced passes that reported it."""
    names = {name for sample in samples for name in sample}
    return {name: statistics.median(s[name] for s in samples if name in s)
            for name in sorted(names)}
