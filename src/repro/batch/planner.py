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
   ``(model, solver kwargs)`` become one task that builds one kernel and
   walks one ``π_n`` sweep (:mod:`repro.markov.sweep`) to the longest
   need of any cell — each cell bit-for-bit identical to its standalone
   solve. Tasks are emitted model-major, so a model's unfused cells run
   next to its fused group while the worker cache still holds it;
3. **per-worker kernel caching** — cells that stay unfused (different
   methods, or fusion disabled) still share one built model + kernel per
   worker process through a small LRU keyed on the model fingerprint.

The planner emits ordinary :class:`~repro.batch.runner.BatchTask` objects,
so fusion composes with :class:`~repro.batch.runner.BatchRunner` pool
fan-out unchanged: a fused group is simply one (bigger) task. Requests are
picklable — scenario-backed requests ship only the scenario description;
model-backed requests ship the CSR once per task.

``SolveRequest`` is deliberately transport-shaped (plain data + a registry
method tag): it is the unit of work the service layer puts on the wire
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

from repro.batch.kernel import UniformizationKernel
from repro.batch.runner import BatchOutcome, BatchTask
from repro.batch.scenarios import Scenario
from repro.core.schedule_cache import process_schedule_cache
from repro.exceptions import ModelError
from repro.markov.base import SolveCell, TransientSolution
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.sweep import solve_shared
from repro.solvers import registry

__all__ = [
    "SolveRequest",
    "ExecutionPlan",
    "plan_requests",
    "run_request",
    "run_fused_group",
    "cached_model",
    "worker_cache_clear",
    "worker_cache_info",
]

@dataclass(frozen=True)
class SolveRequest:
    """One declarative solve cell: *what* to compute, never *how*.

    The model is referenced either descriptively (``scenario`` — rebuilt
    worker-side, the cheap-to-pickle path) or directly (``model`` +
    ``rewards``). ``rewards=None`` with a scenario means "the scenario's
    own reward structure".

    Parameters
    ----------
    measure, times, eps, method:
        As for :func:`repro.analysis.runner.solve`; ``times`` is
        normalized to a tuple of floats, ``method`` to upper case.
    scenario:
        A :class:`~repro.batch.scenarios.Scenario` describing the model
        (mutually exclusive with ``model``).
    model, rewards:
        A live model; ``rewards`` is then required.
    solver_kwargs:
        Forwarded to the solver constructor. A custom ``rate`` disables
        kernel sharing for this request (the cached kernel is built at
        the model's default randomization rate).
    key:
        Caller identity attached to the request's
        :class:`~repro.batch.runner.BatchOutcome`.
    """

    measure: Measure
    times: tuple[float, ...]
    eps: float = 1e-12
    method: str = "RRL"
    scenario: Scenario | None = None
    model: CTMC | None = None
    rewards: RewardStructure | None = None
    solver_kwargs: Mapping[str, Any] = field(default_factory=dict)
    key: Any = None

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.model is None):
            raise ModelError(
                "SolveRequest needs exactly one of scenario= or model=")
        if self.model is not None and self.rewards is None:
            raise ModelError("model-backed SolveRequest needs rewards=")
        object.__setattr__(self, "times",
                           tuple(float(t) for t in np.atleast_1d(
                               np.asarray(self.times, dtype=np.float64))))
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
        """Materialize ``(model, rewards)`` (worker-side for scenarios)."""
        if self.scenario is not None:
            model, default_rewards = self.scenario.build()
            rewards = self.rewards if self.rewards is not None \
                else default_rewards
            return model, rewards
        return self.model, self.rewards  # type: ignore[return-value]


# -- fingerprints ----------------------------------------------------------

def _freeze(value: Any) -> Any:
    """Deterministic hashable form of a plain-data parameter value."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def model_fingerprint(request: SolveRequest) -> tuple:
    """Identity of the *model* a request runs against.

    Scenario-backed requests fingerprint the (deterministic) scenario
    description; model-backed requests fingerprint the matrix content
    (``CTMC.content_digest``, memoized on the instance — planning
    consults the fingerprint several times per request and execution once
    more, and hashing a large CSR repeatedly would tax exactly the path
    the planner speeds up). Two requests with equal fingerprints are
    guaranteed to rebuild bit-identical models, which is what makes
    cross-cell sharing safe.
    """
    if request.scenario is not None:
        s = request.scenario
        return ("scenario", s.family, _freeze(s.params))
    return ("ctmc",
            request.model.content_digest())  # type: ignore[union-attr]


def _rewards_fingerprint(request: SolveRequest) -> tuple:
    if request.rewards is None:
        return ("scenario-default",)
    return ("rewards", request.rewards.content_digest())


def _signature(request: SolveRequest) -> tuple:
    """Full identity: requests with equal signatures coalesce."""
    return (model_fingerprint(request), _rewards_fingerprint(request),
            request.method, request.measure, request.times,
            float(request.eps), _freeze(request.solver_kwargs))


def _fusion_key(request: SolveRequest) -> tuple:
    """Cells with equal fusion keys may share one stepping sweep."""
    return (model_fingerprint(request), _freeze(request.solver_kwargs))


# -- per-process model/kernel cache ----------------------------------------

#: Models (and their kernels) an execution worker keeps warm. A
#: paper-style grid touches a handful of models; 8 covers every in-tree
#: sweep while bounding a long-lived worker's memory. Each process-pool
#: worker owns a private copy.
_WORKER_CACHE_SIZE = 8

#: fingerprint -> [model, scenario_default_rewards | None, kernel | None]
_worker_cache: "OrderedDict[tuple, list]" = OrderedDict()
_worker_cache_hits = 0
_worker_cache_misses = 0

def worker_cache_clear() -> None:
    """Drop this process's model/kernel cache *and* its RR/RRL schedule
    cache (tests, worker hygiene) — the two share a lifetime."""
    global _worker_cache_hits, _worker_cache_misses
    _worker_cache.clear()
    _worker_cache_hits = 0
    _worker_cache_misses = 0
    process_schedule_cache().clear()


def worker_cache_info() -> dict[str, int]:
    """Hit/miss/size statistics of this process's model/kernel cache."""
    return {"hits": _worker_cache_hits, "misses": _worker_cache_misses,
            "size": len(_worker_cache), "max_size": _WORKER_CACHE_SIZE}


def _cache_entry(request: SolveRequest) -> list:
    """Fetch-or-build the cache slot for a request's model."""
    global _worker_cache_hits, _worker_cache_misses
    fp = model_fingerprint(request)
    entry = _worker_cache.get(fp)
    if entry is not None:
        _worker_cache_hits += 1
        _worker_cache.move_to_end(fp)
        return entry
    _worker_cache_misses += 1
    if request.scenario is not None:
        model, default_rewards = request.scenario.build()
    else:
        model, default_rewards = request.model, None
    entry = [model, default_rewards, None]
    _worker_cache[fp] = entry
    while len(_worker_cache) > _WORKER_CACHE_SIZE:
        _worker_cache.popitem(last=False)
    return entry


def _resolve_cached(request: SolveRequest, *, with_kernel: bool = True
                    ) -> tuple[CTMC, RewardStructure,
                               UniformizationKernel | None]:
    """Model, rewards and (when shareable) the cached default-rate kernel.

    ``with_kernel=False`` never builds or returns a kernel.
    """
    entry = _cache_entry(request)
    model = entry[0]
    rewards = request.rewards if request.rewards is not None else entry[1]
    if rewards is None:
        raise ModelError("request resolves to no reward structure")
    kernel: UniformizationKernel | None = None
    if (with_kernel
            and registry.get_spec(request.method).kernel_aware
            and "rate" not in request.solver_kwargs):
        if entry[2] is None:
            entry[2] = UniformizationKernel.from_model(model)[0]
        kernel = entry[2]
    return model, rewards, kernel


def cached_model(request: SolveRequest) -> tuple[CTMC, RewardStructure]:
    """A request's model and rewards from this process's model cache.

    Builds the model on a miss, like a solve would, but no kernel: for
    callers that only read the model (rates, sizes).
    """
    model, rewards, _ = _resolve_cached(request, with_kernel=False)
    return model, rewards


# -- worker entry points ---------------------------------------------------

def run_request(request: SolveRequest,
                memoize: bool = True) -> TransientSolution:
    """Execute one unfused request (picklable worker entry point).

    Builds — or fetches from this worker's cache — the model and its
    kernel, then runs the ordinary solver; when the method's
    :class:`~repro.solvers.registry.SolverSpec` declares
    ``schedule_memoizable`` (RR/RRL) and ``memoize`` is on, the worker's
    process-wide :class:`~repro.core.schedule_cache.ScheduleCache` is
    injected so cells sharing ``(model, rewards, regenerative, rate)``
    pay the ``K + L`` transformation once. Bit-identical to
    ``get_solver(method).solve(model, rewards, ...)`` either way.
    """
    spec = registry.get_spec(request.method)
    model, rewards, kernel = _resolve_cached(request)
    solver = spec.build(**dict(request.solver_kwargs))
    extra: dict[str, Any] = {}
    if kernel is not None:
        extra["kernel"] = kernel
    if memoize and spec.schedule_memoizable:
        extra["schedule_cache"] = process_schedule_cache()
    return solver.solve(model, rewards, request.measure,
                        list(request.times), request.eps, **extra)


def _cell_for(request: SolveRequest, rewards: RewardStructure) -> SolveCell:
    return SolveCell(rewards=rewards, measure=request.measure,
                     times=request.times, eps=request.eps)


def run_fused_group(requests: tuple[SolveRequest, ...]) -> list[dict]:
    """Execute a fused group (picklable worker entry point).

    All requests share ``(model fingerprint, solver_kwargs)``; each
    cell's solver, from the registry, joins one ``π_n`` sweep
    (:func:`~repro.markov.sweep.solve_shared`). Returns one
    ``{"ok": ..., ...}`` record per request so a single failing cell
    cannot poison the group: if the fused pass raises (e.g. one cell
    exceeds the solver's step budget, or an RSD cell meets a reducible
    model), every cell is retried standalone and failures stay per-cell
    — exactly the unfused semantics, at the unfused price for that group
    only.
    """
    requests = tuple(requests)
    kwargs = dict(requests[0].solver_kwargs)
    try:
        model, _, kernel = _resolve_cached(requests[0])
        jobs = [(registry.get_solver(req.method, **kwargs),
                 _cell_for(req, _resolve_cached(req)[1]))
                for req in requests]
        return [{"ok": True, "value": sol}
                for sol in solve_shared(model, jobs, kernel=kernel)]
    except Exception:
        # Per-cell fallback: identical failure isolation to unfused runs.
        import traceback as _traceback

        records: list[dict] = []
        for req in requests:
            try:
                records.append({"ok": True, "value": run_request(req)})
            except Exception as exc:
                records.append({"ok": False,
                                "error_type": type(exc).__name__,
                                "error": str(exc),
                                "traceback": _traceback.format_exc()})
        return records


# -- planning --------------------------------------------------------------

@dataclass
class ExecutionPlan:
    """A batch of requests compiled into model-grouped tasks.

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
    fused: list[bool]
    coalesced: int
    fuse_enabled: bool
    memoize_enabled: bool = True

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def fused_tasks(self) -> int:
        """Number of multi-cell fused tasks in the plan."""
        return sum(1 for f in self.fused if f)

    @property
    def fused_cells(self) -> int:
        """Number of distinct cells riding inside fused tasks."""
        return sum(len(slots) for slots, f in zip(self.assignments,
                                                  self.fused) if f)

    def schedule_builds(self) -> int:
        """Upper bound on the schedule transformations a memoizing worker
        builds for this plan.

        Schedule-memoizable requests (RR/RRL) are grouped by ``(model,
        rewards, spec.schedule_fingerprint(solver_kwargs))`` — the specs'
        fingerprint hooks declare which constructor kwargs the ``K + L``
        phase depends on, so cells differing only in solution-phase knobs
        (``t_factor``, ``inner_max_steps``) count as one build, and RR
        and RRL cells on one model share a group. An upper bound because
        the hook sees raw kwargs: a cell spelling out a default
        (``rate=Λ_max``) fingerprints apart from one relying on it, yet
        lands on the same cache entry at run time. 0 with memoization
        off.
        """
        if not self.memoize_enabled:
            return 0
        groups = set()
        for req in self.requests:
            spec = registry.get_spec(req.method)
            if not spec.schedule_memoizable:
                continue
            groups.add((model_fingerprint(req), _rewards_fingerprint(req),
                        spec.schedule_fingerprint(req.solver_kwargs)))
        return len(groups)

    def summary(self) -> str:
        """One-line human description (scripts print this)."""
        return (f"{self.n_requests} requests -> {self.n_tasks} tasks "
                f"({self.fused_tasks} fused covering {self.fused_cells} "
                f"cells, {self.coalesced} coalesced; "
                f"fusion {'on' if self.fuse_enabled else 'off'}, "
                f"schedule memo "
                f"{'on' if self.memoize_enabled else 'off'})")

    def scatter(self, outcomes: list[BatchOutcome]) -> list[BatchOutcome]:
        """Per-request outcomes (request order) from per-task outcomes."""
        if len(outcomes) != len(self.tasks):
            raise ValueError(
                f"plan has {len(self.tasks)} tasks, got "
                f"{len(outcomes)} outcomes")
        result: list[BatchOutcome | None] = [None] * len(self.requests)
        for outcome, slots, fused in zip(outcomes, self.assignments,
                                         self.fused):
            if fused and outcome.ok:
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


def plan_requests(requests: Iterable[SolveRequest],
                  *,
                  fuse: bool = True,
                  memoize: bool = True) -> ExecutionPlan:
    """Compile requests into coalesced, model-fused batch tasks.

    With ``fuse=False`` the plan is the identity mapping — one task per
    request — which still benefits from the per-worker kernel cache and
    serves as the comparison baseline for ``--verify``-style checks.
    ``memoize=False`` additionally disables the per-worker RR/RRL
    schedule-transformation cache (the A/B baseline for the memoization
    verify) — either way the numbers are identical.
    """
    requests = list(requests)
    if not fuse:
        tasks = [BatchTask(fn=run_request, args=(req, memoize),
                           key=req.key)
                 for req in requests]
        return ExecutionPlan(requests=requests, tasks=tasks,
                             assignments=[[[i]] for i in range(len(requests))],
                             fused=[False] * len(requests),
                             coalesced=0, fuse_enabled=False,
                             memoize_enabled=memoize)

    # 1. Coalesce exact duplicates: one representative per signature.
    by_signature: "OrderedDict[tuple, list[int]]" = OrderedDict()
    for i, req in enumerate(requests):
        by_signature.setdefault(_signature(req), []).append(i)
    coalesced = len(requests) - len(by_signature)

    # 2. Group representatives of fusable methods by (model, kwargs).
    groups: "OrderedDict[tuple, list[list[int]]]" = OrderedDict()
    for slot in by_signature.values():
        rep = requests[slot[0]]
        if registry.get_spec(rep.method).stack_fusable:
            gkey = ("fuse",) + _fusion_key(rep)
        else:
            gkey = ("single", len(groups))
        groups.setdefault(gkey, []).append(slot)

    # 3. Model-major order, stable within a model: a model's cells run
    # back to back, so the worker's model/kernel LRU never evicts it
    # between its fused group and its unfused cells.
    model_rank: dict[tuple, int] = {}
    for slots in groups.values():
        model_rank.setdefault(model_fingerprint(requests[slots[0][0]]),
                              len(model_rank))
    ordered = sorted(groups.items(), key=lambda item: model_rank[
        model_fingerprint(requests[item[1][0][0]])])

    tasks: list[BatchTask] = []
    assignments: list[list[list[int]]] = []
    fused_flags: list[bool] = []
    for gkey, slots in ordered:
        reps = [requests[slot[0]] for slot in slots]
        if gkey[0] == "fuse" and len(reps) >= 2:
            # weight: the group does N cells' worth of work in one task,
            # so BatchRunner timeout budgets must scale accordingly.
            tasks.append(BatchTask(fn=run_fused_group, args=(tuple(reps),),
                                   key=("fused",
                                        tuple(r.key for r in reps)),
                                   weight=len(reps)))
            assignments.append(slots)
            fused_flags.append(True)
        else:
            for slot in slots:
                rep = requests[slot[0]]
                tasks.append(BatchTask(fn=run_request,
                                       args=(rep, memoize),
                                       key=rep.key))
                assignments.append([slot])
                fused_flags.append(False)
    return ExecutionPlan(requests=requests, tasks=tasks,
                         assignments=assignments, fused=fused_flags,
                         coalesced=coalesced, fuse_enabled=True,
                         memoize_enabled=memoize)
