"""Model-fused execution planner.

The scaling observation behind this layer: a scenario grid is usually
*wide in cells but narrow in models* — one model evaluated under many
``(rewards, measure, t, ε, method)`` combinations. Executed naively, every
cell re-uniformizes the model, rebuilds the CSR transpose and re-steps its
own ``d_n`` sweep; the per-model work is paid once per *cell* instead of
once per *model*. The planner turns declarative :class:`SolveRequest`
cells into model-grouped work:

1. **coalescing** — requests that are exactly identical (same model,
   rewards, method, measure, times, ε, solver options) are solved once
   and the solution is fanned out to every requester;
2. **fusion** — SR and RSD cells (the stack-fusable methods) sharing
   ``(model, solver kwargs)`` form a *lane* that walks one ``π_n`` sweep
   (:mod:`repro.markov.sweep`) to the longest need of any of its cells —
   each cell bit-for-bit identical to its standalone solve. Models are
   taken in model-major order, in *windows* of at most 8 (the capacity
   of the worker's model cache): the lanes of a window (those of two or
   more cells) with equal solver kwargs make one task, whose lanes walk
   side by side in stacks of at most 2,048 states (a larger model walks
   alone), followed by the window's unfused cells, model by model. So a
   window's unfused cells run while the worker cache still holds their
   models, and no model is built twice. The state bound is applied when
   the task runs, since a scenario's state count is unknown until it is
   built;
3. **twin groups** — RR/RRL cells whose scenarios share a variant key
   (:meth:`~repro.batch.scenarios.Scenario.variant_key`: raid5's
   ``kind`` with the other parameters equal) run as one task, whose
   models share a window, when the pool is inline or has more than two
   tasks per worker (:func:`plan_requests`); on a wider pool they run
   as single cells, side by side. The task builds the cells' schedule
   setups together, so that exact twins step on one walk (the paper's UR
   schedules on its UA products: the grid's ``kernel.matvecs`` fall
   from 24,799 to 15,689 and its plan from 6 tasks to 4), then solves
   each cell and returns one record per cell, a failure staying in its
   cell. Pairing follows the exact check of
   :func:`repro.core._setup.link_twins`; a pair that fails it steps
   alone, bit-identically. Twin groups are not ``π_n``-walk cells;
   ``fused_cells`` counts only the walks;
4. **per-worker model caching** — cells that stay unfused (methods
   that do not stack, or a model's only fusable cell) still share one
   built model per worker process through the ``"models"`` cache of
   :mod:`repro.cache`, keyed on the scenario; the model keeps its own
   default-rate kernel (:meth:`CTMC.kernel
   <repro.markov.ctmc.CTMC.kernel>`), so every cell of one cached model
   steps one kernel.

The planner emits ordinary :class:`~repro.batch.runner.BatchTask` objects,
so fusion composes with :func:`~repro.batch.runner.run_tasks` pool
fan-out unchanged: a fused window is simply one (bigger) task. Requests
ship only their scenario description; the worker builds the model.

A ``SolveRequest`` is transport-shaped (plain data + a registry method
tag): it is the unit of work the service layer puts on the wire
(:mod:`repro.service.protocol` gives it a versioned JSON form;
:class:`repro.service.queue.JobQueue` journals it). Plans are executed by
:class:`repro.service.service.SolveService`, which owns the planner
policy, the pool shape and the scatter bookkeeping.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Any

import numpy as np

from repro.batch.runner import BatchOutcome, BatchTask
from repro.batch.scenarios import Scenario
from repro.cache import BoundedCache, shared_cache
from repro.core.schedule_cache import process_schedule_cache
from repro.exceptions import ReproError
from repro.markov.base import SolveCell, TransientSolution
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.sweep import solve_stacked
from repro.solvers import registry

__all__ = [
    "SolveRequest",
    "ExecutionPlan",
    "plan_requests",
    "run_request",
    "run_fused_group",
    "run_twin_group",
    "cached_model",
    "worker_cache_clear",
    "worker_cache_info",
]

@dataclass(frozen=True)
class SolveRequest:
    """One declarative solve cell: *what* to compute, never *how*.

    Parameters
    ----------
    measure, times:
        As for :func:`repro.analysis.runner.solve`; ``times`` is
        normalized to a tuple of floats.
    scenario:
        The :class:`~repro.batch.scenarios.Scenario` whose model and
        rewards the cell solves; the worker builds them.
    eps, method:
        As for :func:`repro.analysis.runner.solve`; ``method`` is
        normalized to upper case.
    solver_kwargs:
        Forwarded to the solver constructor. A custom ``rate`` steps a
        kernel of its own (the model keeps only its default-rate one).
    key:
        Caller identity attached to the request's
        :class:`~repro.batch.runner.BatchOutcome`.
    """

    measure: Measure
    times: tuple[float, ...]
    scenario: Scenario
    eps: float = 1e-12
    method: str = "RRL"
    solver_kwargs: Mapping[str, Any] = field(default_factory=dict)
    key: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(np.atleast_1d(
            np.asarray(self.times, dtype=np.float64)).tolist()))
        object.__setattr__(self, "method", str(self.method).upper())
        # Fail at construction, not deep inside a worker: the registry is
        # the one authority on method tags (raises UnknownMethodError
        # with the known-method list).
        registry.get_spec(self.method)
        object.__setattr__(self, "solver_kwargs", dict(self.solver_kwargs))

    def __hash__(self) -> int:
        # The dataclass-generated hash would hash solver_kwargs (a dict)
        # and raise; requests are transport-shaped data and must be usable
        # as set/dict members, so hash a stable hashable subset of the
        # identity — collisions are resolved through the field-wise
        # ``__eq__``.
        return hash((self.method, self.measure, self.times,
                     float(self.eps)))

    def resolve(self) -> tuple[CTMC, RewardStructure]:
        """A freshly built ``(model, rewards)`` of the scenario."""
        return self.scenario.build()


# -- fingerprints ----------------------------------------------------------

def _freeze(value: Any) -> Any:
    """Deterministic hashable form of a plain-data parameter value."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def model_fingerprint(request: SolveRequest) -> tuple:
    """Identity of the model and rewards a request runs against: its
    scenario's family and parameters. Every family is deterministic or
    seeded, so two requests with equal fingerprints build bit-identical
    models, which is what makes cross-cell sharing safe."""
    s = request.scenario
    return ("scenario", s.family, _freeze(s.params))


def _signature(request: SolveRequest) -> tuple:
    """Full identity: requests with equal signatures coalesce."""
    return (model_fingerprint(request), request.method, request.measure,
            request.times, float(request.eps),
            _freeze(request.solver_kwargs))


def _fusion_key(request: SolveRequest) -> tuple:
    """Cells with equal fusion keys may share one stepping sweep."""
    return (model_fingerprint(request), _freeze(request.solver_kwargs))


# -- per-process model cache -----------------------------------------------

#: Models an execution worker keeps warm, keyed on the model fingerprint:
#: ``(model, rewards)`` as the scenario builds them; each model keeps its
#: own default-rate kernel. A paper-style grid touches a handful of
#: models, and the planner's windows (at most 8 models each) keep a
#: larger sweep's models cached from their fused task to their last
#: unfused cell; 8 bounds a long-lived worker's memory. Each process-pool
#: worker owns a private copy.
_MODEL_SLOTS = 8
_MODELS = shared_cache("models", BoundedCache(_MODEL_SLOTS))


def worker_cache_clear() -> None:
    """Drop this process's model cache *and* its RR/RRL schedule cache
    (tests, worker hygiene) — the two share a lifetime."""
    _MODELS.clear()
    process_schedule_cache().clear()


#: Per-cache statistics, which ``perfbench/`` calls by name.
worker_cache_info = _MODELS.info


def cached_model(request: SolveRequest) -> tuple[CTMC, RewardStructure]:
    """A request's model and rewards from this process's model cache,
    built from its scenario on a miss."""
    return _MODELS.get(model_fingerprint(request),
                       request.scenario.build)[0]


# -- worker entry points ---------------------------------------------------

def run_request(request: SolveRequest) -> TransientSolution:
    """Execute one unfused request (picklable worker entry point).

    Builds — or fetches from this worker's cache — the model, then runs
    the ordinary solver, which steps the model's own kernel; when the
    method's
    :class:`~repro.solvers.registry.SolverSpec` declares
    ``schedule_memoizable`` (RR/RRL), the worker's process-wide
    :class:`~repro.core.schedule_cache.ScheduleCache` is injected so
    cells sharing ``(model, rewards, regenerative, rate)`` pay the
    ``K + L`` transformation once. Bit-identical to
    ``get_solver(method).solve(model, rewards, ...)``.
    """
    spec = registry.get_spec(request.method)
    model, rewards = cached_model(request)
    solver = spec.build(**dict(request.solver_kwargs))
    extra: dict[str, Any] = {}
    if spec.schedule_memoizable:
        extra["schedule_cache"] = process_schedule_cache()
    return solver.solve(model, rewards, request.measure,
                        list(request.times), request.eps, **extra)


def _cell_for(request: SolveRequest, rewards: RewardStructure) -> SolveCell:
    return SolveCell(rewards=rewards, measure=request.measure,
                     times=request.times, eps=request.eps)


def _run_alone(request: SolveRequest) -> dict:
    """One cell's unfused record, its failure caught as data."""
    try:
        return {"ok": True, "value": run_request(request)}
    except Exception as exc:
        import traceback as _traceback

        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc), "traceback": _traceback.format_exc()}


def run_fused_group(requests: tuple[SolveRequest, ...]) -> list[dict]:
    """Execute a fused window (picklable worker entry point).

    All requests share ``solver_kwargs``; the cells of each model form
    one lane, and each cell's solver, from the registry, joins its lane's
    ``π_n`` walk. The lanes walk together in stacks
    (:func:`~repro.markov.sweep.solve_stacked`). Returns one
    ``{"ok": ..., ...}`` record per request, in order, so a single
    failing cell cannot poison the window: when a lane raises (e.g. one
    cell exceeds the solver's step budget, or an RSD cell meets a
    reducible model), every cell of that lane is retried standalone and
    failures stay per-cell — exactly the unfused semantics, at the
    unfused price for that lane only. Its stack-mates are unaffected.
    """
    requests = tuple(requests)
    kwargs = dict(requests[0].solver_kwargs)
    by_model: dict[tuple, list[int]] = {}
    for i, req in enumerate(requests):
        by_model.setdefault(model_fingerprint(req), []).append(i)
    records: list[dict | None] = [None] * len(requests)
    lanes, members = [], []
    for idx in by_model.values():
        try:
            model, rewards = cached_model(requests[idx[0]])
            jobs = [(registry.get_solver(requests[i].method, **kwargs),
                     _cell_for(requests[i], rewards))
                    for i in idx]
        except Exception:
            for i in idx:
                records[i] = _run_alone(requests[i])
            continue
        lanes.append((model, jobs))
        members.append(idx)
    try:
        results = solve_stacked(lanes)
    except Exception:
        results = [None] * len(lanes)
    for idx, result in zip(members, results):
        for pos, i in enumerate(idx):
            records[i] = (_run_alone(requests[i])
                          if not isinstance(result, list)
                          else {"ok": True, "value": result[pos]})
    return records  # type: ignore[return-value]


def run_twin_group(requests: tuple[SolveRequest, ...]) -> list[dict]:
    """Execute the RR/RRL cells of one variant group (picklable worker
    entry point).

    First builds the group's schedule setups together, so that exact
    twins step on one walk
    (:meth:`~repro.core.schedule_cache.ScheduleCache.prepare_twins`);
    then runs every cell as :func:`run_request` would. Returns one
    ``{"ok": ..., ...}`` record per request, in order: a failing cell
    fails alone. Linking moves no number, so a group whose setups cannot
    be built together (a :class:`~repro.exceptions.ReproError`) just
    runs unlinked, and each cell meets that error in its own solve; an
    error of any other kind propagates.
    """
    members = []
    try:
        for req in requests:
            model, rewards = cached_model(req)
            kwargs = req.solver_kwargs
            members.append((model, rewards, kwargs.get("regenerative"),
                            kwargs.get("rate")))
        process_schedule_cache().prepare_twins(members)
    except ReproError:
        # A model, rewards or setup that cannot be built (a ModelError,
        # such as a pinned rate below Λ): each cell meets the same error
        # in its own solve, which records it; unlinked setups step
        # alone, bit-identically. Any other error is a bug and
        # propagates.
        pass
    return [_run_alone(req) for req in requests]


# -- planning --------------------------------------------------------------

@dataclass
class ExecutionPlan:
    """A batch of requests compiled into window-grouped tasks.

    ``assignments[i]`` maps task ``i``'s result *slots* back onto request
    indices: fused tasks produce one slot per distinct cell, single tasks
    one slot total; a slot serves several requests when duplicates were
    coalesced. :meth:`scatter` inverts the mapping, so callers always see
    one outcome per request in submission order, however the work was
    fused.
    """

    requests: list[SolveRequest]
    tasks: list[BatchTask]
    assignments: list[list[list[int]]]
    kinds: list[str]
    """Per task: ``"walk"`` (a window's fused ``π_n`` walk), ``"twins"``
    (a variant group's RR/RRL cells) or ``"single"`` (one cell)."""
    coalesced: int

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def fused_tasks(self) -> int:
        """Number of multi-cell fused tasks in the plan."""
        return self.kinds.count("walk")

    @property
    def fused_cells(self) -> int:
        """Number of distinct cells riding inside fused tasks."""
        return sum(len(slots) for slots, kind in zip(self.assignments,
                                                     self.kinds)
                   if kind == "walk")

    @property
    def twin_tasks(self) -> int:
        """Number of variant-group tasks in the plan."""
        return self.kinds.count("twins")

    def summary(self) -> str:
        """One-line human description (scripts print this)."""
        twins = (f"{self.twin_tasks} twin groups, " if self.twin_tasks
                 else "")
        return (f"{self.n_requests} requests -> {self.n_tasks} tasks "
                f"({self.fused_tasks} fused covering {self.fused_cells} "
                f"cells, {twins}{self.coalesced} coalesced)")

    def scatter(self, outcomes: list[BatchOutcome]) -> list[BatchOutcome]:
        """Per-request outcomes (request order) from per-task outcomes."""
        if len(outcomes) != len(self.tasks):
            raise ValueError(
                f"plan has {len(self.tasks)} tasks, got "
                f"{len(outcomes)} outcomes")
        result: list[BatchOutcome | None] = [None] * len(self.requests)
        for outcome, slots, kind in zip(outcomes, self.assignments,
                                        self.kinds):
            if kind != "single" and outcome.ok:
                records = outcome.value
                for slot, record in zip(slots, records):
                    for idx in slot:
                        result[idx] = BatchOutcome(
                            key=self.requests[idx].key,
                            ok=bool(record["ok"]),
                            value=record.get("value"),
                            error_type=record.get("error_type"),
                            error=record.get("error"),
                            traceback=record.get("traceback"),
                            duration=outcome.duration,
                            worker_pid=outcome.worker_pid)
            else:
                for slot in slots:
                    for idx in slot:
                        result[idx] = _dc_replace(
                            outcome, key=self.requests[idx].key)
        return result  # type: ignore[return-value]


def plan_requests(requests: Iterable[SolveRequest], *,
                  workers: int = 1) -> ExecutionPlan:
    """Compile requests into coalesced, window-fused batch tasks.

    ``workers`` is the size of the pool the plan runs on. A twin group
    does fewer products than its cells apart, but runs them one after
    another in one task, so it pays only when the pool could not run
    them side by side anyway: inline (``workers=1``), or when the plan
    without twin groups has more than two tasks per worker. Otherwise the
    cells run as single tasks. The paper grid, 6 tasks without twin
    groups, forms them at one or two workers and not at three or more.
    No number depends on the choice.
    """
    requests = list(requests)
    plan = _compile(requests, twins=True)
    if workers > 1 and plan.twin_tasks:
        apart = plan.n_tasks + sum(
            len(slots) - 1
            for slots, kind in zip(plan.assignments, plan.kinds)
            if kind == "twins")
        if apart <= 2 * workers:
            plan = _compile(requests, twins=False)
    return plan


def _compile(requests: list[SolveRequest], *, twins: bool
             ) -> ExecutionPlan:

    # 1. Coalesce exact duplicates: one representative per signature.
    by_signature: "OrderedDict[tuple, list[int]]" = OrderedDict()
    for i, req in enumerate(requests):
        by_signature.setdefault(_signature(req), []).append(i)
    coalesced = len(requests) - len(by_signature)

    # 2. Group representatives: fusable methods by (model, kwargs), the
    # RR/RRL cells of scenario variants by variant key, the rest alone.
    groups: "OrderedDict[tuple, list[list[int]]]" = OrderedDict()
    for slot in by_signature.values():
        rep = requests[slot[0]]
        spec = registry.get_spec(rep.method)
        variant = rep.scenario.variant_key()
        if spec.stack_fusable:
            gkey = ("fuse",) + _fusion_key(rep)
        elif twins and spec.schedule_memoizable and variant is not None:
            gkey = ("twins", variant)
        else:
            gkey = ("single", len(groups))
        groups.setdefault(gkey, []).append(slot)

    # 3. Windows: runs of at most _MODEL_SLOTS models, in model-major
    # order; the models of one variant group share a window. A window's
    # lanes (its models' fusable groups of two or more cells, per solver
    # kwargs) make one fused task; its other cells follow, model by
    # model, stable within a model; then its variant groups over two or
    # more models, one task each. A group builds and keeps several
    # models and setups, so it runs after the single cells (such as
    # RSD's stationary solve) rather than adding to their peak memory.
    # A window touches no more models than the worker's model cache
    # holds, so no model is built twice.
    by_model: "OrderedDict[tuple, list]" = OrderedDict()
    units: dict[tuple, list[tuple]] = {}
    for gkey, slots in groups.items():
        fps = list(dict.fromkeys(model_fingerprint(requests[slot[0]])
                                 for slot in slots))
        by_model.setdefault(fps[0], []).append((gkey, slots))
        for fp in fps:
            by_model.setdefault(fp, [])
        if len(fps) > 1:
            units.update((fp, fps) for fp in fps)
    windows: list[list[tuple]] = [[]]
    placed: set[tuple] = set()
    for fp in by_model:
        if fp in placed:
            continue
        unit = units.get(fp, [fp])
        if windows[-1] and len(windows[-1]) + len(unit) > _MODEL_SLOTS:
            windows.append([])
        windows[-1].extend(unit)
        placed.update(unit)

    tasks: list[BatchTask] = []
    assignments: list[list[list[int]]] = []
    kinds: list[str] = []

    def add(fn, slots: list[list[int]], kind: str) -> None:
        reps = tuple(requests[slot[0]] for slot in slots)
        if kind == "single":
            task = BatchTask(fn=fn, args=reps, key=reps[0].key)
        else:
            # weight: the task does N cells' worth of work, so pooled
            # timeout budgets must scale accordingly.
            task = BatchTask(fn=fn, args=(reps,),
                             key=(kind, tuple(r.key for r in reps)),
                             weight=len(reps))
        tasks.append(task)
        assignments.append(slots)
        kinds.append(kind)

    for window in windows:
        lanes: "OrderedDict[tuple, list[list[int]]]" = OrderedDict()
        alone: list[list[int]] = []
        twins: list[list[list[int]]] = []
        for gkey, slots in (group for fp in window
                            for group in by_model[fp]):
            if gkey[0] == "fuse" and len(slots) >= 2:
                lanes.setdefault(gkey[2], []).extend(slots)
            elif gkey[0] == "twins" and units.get(
                    model_fingerprint(requests[slots[0][0]])):
                twins.append(slots)
            else:
                alone.extend(slots)
        for slots in lanes.values():
            add(run_fused_group, slots, "walk")
        for slot in alone:
            add(run_request, [slot], "single")
        for slots in twins:
            add(run_twin_group, slots, "twins")
    return ExecutionPlan(requests=requests, tasks=tasks,
                         assignments=assignments, kinds=kinds,
                         coalesced=coalesced)
