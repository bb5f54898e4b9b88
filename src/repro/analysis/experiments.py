"""Harness regenerating every table and figure of the paper's evaluation.

Every table/figure is decomposed into independent *column* cells (one per
``(G, method)`` pair). Solve-shaped columns (the RRL/RSD step columns and
the UR value sweep) are declared as
:class:`~repro.batch.planner.SolveRequest` cells and compiled by the
fusion planner — duplicate solves coalesce (the Table 2 RRL column and
the UR sweep are the *same* solve and run once) and unfused cells of a
shared model reuse one kernel per worker; analytic columns (SR step
counts need no solve) and the timing figures stay plain
:class:`~repro.batch.runner.BatchTask` passthroughs, because a timed
cell must pay its own standalone setup to mean what the paper's figures
mean. Everything executes through one
:class:`~repro.service.service.SolveService` fan-out (the canonical API
— this module never touches planner or runner internals), so the whole
grid rides a process pool: ``ExperimentConfig(workers=4)`` or
``run_grid(config, service=...)``. With ``workers=1`` (the default) the
tasks run inline and the results are identical — neither the task
decomposition nor the fusion plan ever changes any number. Timing
columns are measured per-cell *inside* a worker; on an oversubscribed
pool the absolute seconds inflate, so timing sweeps prefer
``workers <=`` physical cores.

Section 3 of the paper evaluates four methods on a level-5 RAID model
(``C_H = 1, D_H = 3``, ``G ∈ {20, 40}``, ``ε = 10⁻¹²``):

* **Table 1** — steps of RR/RRL vs RSD for the availability measure
  ``UA(t)``, ``t ∈ {1, 10, 10², 10³, 10⁴, 10⁵}`` h;
* **Table 2** — steps of RR/RRL vs SR for the unreliability ``UR(t)``;
* **Figure 3** — CPU times of RRL/RR/RSD for ``UA(t)`` (log-log);
* **Figure 4** — CPU times of RRL/RR/SR for ``UR(t)``;
* in-text: ``UR(10⁵) = 0.50480`` (G=20) / ``0.74750`` (G=40), Laplace
  inversion ≈ 1–2% of RRL runtime, 105–329 abscissae.

:func:`run_grid` reproduces all of them in one fan-out: the step tables
are exact integers (they do not depend on hardware); the timing series
are measured on the current machine (shape, not absolute seconds).
Cells whose *predicted* step count exceeds the configured budget are
skipped and reported as ``None`` — SR at ``Λt ≈ 4.4·10⁶`` is precisely
the pathology the paper's method avoids, and a grid run should not take
hours by default.

The paper's published numbers are embedded (``PAPER_TABLE1`` etc.) so the
rendered tables print measured-vs-paper side by side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.reporting import format_series, format_table
from repro.analysis.runner import get_solver
from repro.batch.planner import SolveRequest, cached_model
from repro.batch.runner import BatchTask
from repro.service.service import SolveService
from repro.batch.scenarios import Scenario
from repro.exceptions import RegistryError, TruncationError
from repro.markov.base import TransientSolution
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.standard import sr_required_steps
from repro.solvers.registry import SolverSpec, get_spec
from repro.models.raid5 import Raid5Params

__all__ = [
    "ExperimentConfig",
    "StepTable",
    "TimingTable",
    "GridResult",
    "grid_solve_requests",
    "run_grid",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_UR_1E5",
]

#: Paper Table 1 — steps for UA(t): G -> (RR/RRL column, RSD column),
#: aligned with times (1, 10, 1e2, 1e3, 1e4, 1e5).
PAPER_TABLE1: dict[int, tuple[list[int], list[int]]] = {
    20: ([56, 323, 2234, 2708, 2938, 3157],
         [66, 355, 2612, 2612, 2612, 2612]),
    40: ([86, 554, 4187, 5123, 5549, 5957],
         [99, 594, 4823, 4823, 4823, 4823]),
}

#: Paper Table 2 — steps for UR(t): G -> (RR/RRL column, SR column).
PAPER_TABLE2: dict[int, tuple[list[int], list[int]]] = {
    20: ([56, 323, 2233, 2708, 2937, 3157],
         [65, 354, 2726, 24844, 240958, 2386068]),
    40: ([86, 554, 4186, 5122, 5547, 5955],
         [98, 593, 4849, 45234, 442203, 4390141]),
}

#: Paper in-text UR(100000 h) values.
PAPER_UR_1E5: dict[int, float] = {20: 0.50480, 40: 0.74750}

#: The paper's evaluation grid.
PAPER_TIMES: tuple[float, ...] = (1.0, 10.0, 1e2, 1e3, 1e4, 1e5)
PAPER_GROUPS: tuple[int, ...] = (20, 40)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs for the reproduction runs.

    The default configuration is laptop-friendly (reduced ``G`` and
    horizon); ``ExperimentConfig.paper()`` selects the paper's exact
    grid. ``sr_step_budget`` bounds the per-cell work of the SR and RR
    timing columns: cells whose predicted inner step count exceeds it
    report ``None`` instead of running for hours.
    """

    groups: tuple[int, ...] = (5, 10)
    times: tuple[float, ...] = (1.0, 10.0, 1e2, 1e3, 1e4)
    eps: float = 1e-12
    sr_step_budget: int = 2_000_000
    rr_inner_budget: int = 10_000_000
    spare_disks: int = 3
    spare_controllers: int = 1
    workers: int = 1
    """Pool size for the grid; 1 = inline (identical results)."""
    backend: str | None = None
    """``"serial"`` forces the grid inline whatever ``workers`` says;
    ``"processes"`` or ``None`` means a pool of ``workers``. Both give
    bit-identical numbers (see
    :class:`~repro.service.service.SolveService`)."""

    @classmethod
    def paper(cls, *, sr_step_budget: int = 10_000_000,
              rr_inner_budget: int = 10_000_000,
              workers: int = 1,
              backend: str | None = None) -> "ExperimentConfig":
        """The paper's exact grid (G ∈ {20,40}, t up to 10⁵ h)."""
        return cls(groups=PAPER_GROUPS, times=PAPER_TIMES,
                   sr_step_budget=sr_step_budget,
                   rr_inner_budget=rr_inner_budget,
                   workers=workers, backend=backend)

    @classmethod
    def quick(cls, *, workers: int = 1,
              backend: str | None = None) -> "ExperimentConfig":
        """A seconds-scale smoke grid (CI, queue end-to-end tests)."""
        return cls(groups=(2, 3), times=(1.0, 10.0, 100.0), eps=1e-10,
                   sr_step_budget=200_000, workers=workers,
                   backend=backend)

    def service(self) -> SolveService:
        """The :class:`~repro.service.service.SolveService` this
        configuration asks for (its pool shape).

        (Replaces the pre-2.0 ``runner()`` accessor: the pool now rides
        inside the service instead of being wired up by callers.)
        """
        return SolveService(workers=self.workers, backend=self.backend)

    def params_for(self, g: int) -> Raid5Params:
        """RAID parameters for group count ``g`` (other knobs fixed)."""
        return Raid5Params(groups=g, spare_disks=self.spare_disks,
                           spare_controllers=self.spare_controllers)

    def step_budget_for(self, spec: SolverSpec) -> int | None:
        """This configuration's inner-step budget for one solver, keyed
        on the spec's declared budget kwarg (``None`` for methods whose
        cost does not grow with ``Λt``)."""
        if spec.step_budget_kwarg is None:
            return None
        budgets = {"max_steps": self.sr_step_budget,
                   "inner_max_steps": self.rr_inner_budget}
        try:
            return budgets[spec.step_budget_kwarg]
        except KeyError:
            raise RegistryError(
                f"solver {spec.name!r} declares step_budget_kwarg="
                f"{spec.step_budget_kwarg!r}, which ExperimentConfig has "
                "no budget field for; teach step_budget_for the mapping "
                "before running timing sweeps with this method") from None


@dataclass
class StepTable:
    """A reproduced step table plus the paper's numbers when available."""

    title: str
    times: tuple[float, ...]
    columns: dict[str, list[int | None]]
    paper_columns: dict[str, list[int]] = field(default_factory=dict)

    def render(self) -> str:
        names = ["t (h)"] + list(self.columns) + [
            f"paper:{k}" for k in self.paper_columns]
        rows: list[list[object]] = []
        for i, t in enumerate(self.times):
            row: list[object] = [f"{t:g}"]
            row += [self.columns[k][i] for k in self.columns]
            row += [self.paper_columns[k][i] for k in self.paper_columns]
            rows.append(row)
        return format_table(self.title, names, rows)

    def to_dict(self) -> dict:
        """JSON-serializable form (fixtures, ``--json`` dumps)."""
        return {"title": self.title, "times": list(self.times),
                "columns": {k: list(v) for k, v in self.columns.items()},
                "paper_columns": {k: list(v)
                                  for k, v in self.paper_columns.items()}}


@dataclass
class TimingTable:
    """A reproduced CPU-time 'figure' (series of seconds vs t)."""

    title: str
    times: tuple[float, ...]
    series: dict[str, list[float | None]]

    def render(self) -> str:
        return format_series(self.title, "t (h)", list(self.times),
                             self.series)

    def to_dict(self) -> dict:
        """JSON-serializable form (fixtures, ``--json`` dumps)."""
        return {"title": self.title, "times": list(self.times),
                "series": {k: list(v) for k, v in self.series.items()}}


def _raid5_scenario(config: ExperimentConfig, g: int, kind: str) -> Scenario:
    """The grid cell's model as a planner-friendly scenario description.

    The scenario registry's raid5 family builds the model from the
    config's ``Raid5Params``, so requests for one ``(G, kind)`` share a
    model fingerprint and can coalesce/fuse.
    """
    if kind not in ("UA", "UR"):
        raise ValueError(f"unknown measure kind {kind!r}")
    variant = "availability" if kind == "UA" else "reliability"
    p = config.params_for(g)
    return Scenario(name=f"grid-raid5-G{g}-{kind}", family="raid5",
                    params={"groups": p.groups,
                            "spare_disks": p.spare_disks,
                            "spare_controllers": p.spare_controllers,
                            "kind": variant},
                    measure=Measure.TRR, times=config.times, eps=config.eps)


def _steps_column(config: ExperimentConfig, g: int, kind: str,
                  column: str) -> list[int]:
    """One analytic step-table column (module-level: pool-picklable).

    Only methods whose :class:`~repro.solvers.registry.SolverSpec`
    declares a ``predict_steps`` hook come through here (SR: the Poisson
    quantile — running the solver is not needed to know its cost). The
    measured columns — RR/RRL (identical transformation phases) and
    RSD's detection loop — are solve-shaped and flow through the planner
    as :class:`SolveRequest` cells instead. ``Λ`` and ``r_max`` are read
    off the planner's cached model of the same scenario, which the
    table's RRL cell uses too, so the column builds no model of its own.
    """
    predict = get_spec(column).predict_steps
    if predict is None:
        raise ValueError(f"method {column!r} has no analytic step count")
    model, rewards = cached_model(SolveRequest(
        scenario=_raid5_scenario(config, g, kind), measure=Measure.TRR,
        times=config.times, eps=config.eps, method=column))
    lam = model.max_output_rate
    return [predict(lam * t, config.eps / rewards.max_rate,
                    Measure.TRR) - 1
            for t in config.times]


def _steps_table_workload(config: ExperimentConfig, kind: str
                          ) -> tuple[list[SolveRequest], list[BatchTask]]:
    """Solve requests (RRL/RSD columns) + passthrough tasks (analytic
    columns) for one step table."""
    comparator = "RSD" if kind == "UA" else "SR"
    requests: list[SolveRequest] = []
    tasks: list[BatchTask] = []
    for g in config.groups:
        for column in ("RRL", comparator):
            key = ("steps", kind, g, column)
            if get_spec(column).predict_steps is not None:
                tasks.append(BatchTask(fn=_steps_column,
                                       args=(config, g, kind, column),
                                       key=key))
            else:
                requests.append(SolveRequest(
                    scenario=_raid5_scenario(config, g, kind),
                    measure=Measure.TRR, times=config.times,
                    eps=config.eps, method=column, key=key))
    return requests, tasks


def _assemble_steps_table(config: ExperimentConfig, kind: str,
                          outcomes) -> StepTable:
    comparator = "RSD" if kind == "UA" else "SR"
    by_cell: dict[tuple, list[int | None]] = {}
    for out in outcomes:
        _, _, g, column = out.key
        value = out.unwrap()
        if isinstance(value, TransientSolution):
            value = [int(s) for s in value.steps]
        by_cell[(g, column)] = value
    # Canonical column order, independent of how the plan interleaved
    # requests and passthrough tasks. Column headers come from the specs'
    # display metadata (the paper prints RR and RRL as one "RR/RRL"
    # column — they share the transformation phase and step counts).
    columns: dict[str, list[int | None]] = {}
    paper_cols: dict[str, list[int]] = {}
    for g in config.groups:
        for column in ("RRL", comparator):
            label = f"G={g} {get_spec(column).table_label}"
            columns[label] = by_cell[(g, column)]
    for g in config.groups:
        paper = (PAPER_TABLE1 if kind == "UA" else PAPER_TABLE2).get(g)
        if paper is not None and config.times == PAPER_TIMES:
            paper_cols[f"G={g} {get_spec('RRL').table_label}"] = paper[0]
            paper_cols[f"G={g} {comparator}"] = paper[1]
    title = ("Table 1: steps for UA(t) — RR/RRL vs RSD" if kind == "UA"
             else "Table 2: steps for UR(t) — RR/RRL vs SR")
    return StepTable(title=title, times=config.times, columns=columns,
                     paper_columns=paper_cols)


def _timed_solve(method: str, model: CTMC, rewards: RewardStructure,
                 t: float, eps: float, **kwargs) -> float | None:
    solver = get_solver(method, **kwargs)
    start = time.perf_counter()
    try:
        solver.solve(model, rewards, Measure.TRR, [t], eps)
    except TruncationError:
        return None
    return time.perf_counter() - start


def _timing_column(config: ExperimentConfig, g: int, kind: str,
                   method: str) -> list[float | None]:
    """One timing-figure series (module-level: pool workers pickle this).

    Each cell times one standalone ``solve`` at a single ``t`` (the
    paper's experimental setup), on a model built for it outside the
    timer: a model keeps its kernel, so each timed solve pays its own
    uniformization. Methods whose spec declares a ``step_budget_kwarg``
    (their cost grows with ``Λt``: SR's sweep, RR's inner SR solve) are
    capped by the matching config budget — over-budget cells are
    skipped and reported as ``None``.
    """
    spec = get_spec(method)
    budget = config.step_budget_for(spec)
    scenario = _raid5_scenario(config, g, kind)
    vals: list[float | None] = []
    for t in config.times:
        model, rewards = scenario.build()
        lam = model.max_output_rate
        kwargs = {}
        if budget is not None:
            # The SR step prediction is the Λt-cost proxy for every
            # O(Λt)-stepping method (RR's inner solve is an SR solve).
            predicted = sr_required_steps(
                lam * t, config.eps / rewards.max_rate, Measure.TRR)
            if predicted > budget:
                vals.append(None)
                continue
            kwargs[spec.step_budget_kwarg] = budget
        vals.append(_timed_solve(method, model, rewards, t,
                                 config.eps, **kwargs))
    return vals


def _timing_methods(kind: str) -> tuple[str, ...]:
    return ("RRL", "RR", "RSD") if kind == "UA" else ("RRL", "RR", "SR")


def _timing_table_tasks(config: ExperimentConfig, kind: str
                        ) -> list[BatchTask]:
    return [BatchTask(fn=_timing_column, args=(config, g, kind, method),
                      key=("timing", kind, g, method))
            for g in config.groups
            for method in _timing_methods(kind)]


def _assemble_timing_table(config: ExperimentConfig, kind: str,
                           outcomes) -> TimingTable:
    series: dict[str, list[float | None]] = {}
    for out in outcomes:
        _, _, g, method = out.key
        series[f"G={g}, {method}"] = out.unwrap()
    title = ("Figure 3: CPU seconds, UA(t) — RRL vs RR vs RSD"
             if kind == "UA"
             else "Figure 4: CPU seconds, UR(t) — RRL vs RR vs SR")
    return TimingTable(title=title, times=config.times, series=series)


def _ur_requests(config: ExperimentConfig) -> list[SolveRequest]:
    """RRL unreliability sweeps, one request per model size.

    Identical in signature to the Table 2 RR/RRL step column's request,
    so in a full grid the planner coalesces the two into a single RRL
    solve per ``G``.
    """
    return [SolveRequest(scenario=_raid5_scenario(config, g, "UR"),
                         measure=Measure.TRR, times=config.times,
                         eps=config.eps, method="RRL", key=("ur", g))
            for g in config.groups]


def _assemble_ur(outcomes
                 ) -> tuple[dict[int, list[float]], dict[int, list[int]]]:
    values: dict[int, list[float]] = {}
    abscissae: dict[int, list[int]] = {}
    for out in outcomes:
        sol = out.unwrap()
        values[out.key[1]] = [float(v) for v in sol.values]
        abscissae[out.key[1]] = [int(a) for a in sol.stats["n_abscissae"]]
    return values, abscissae


def grid_solve_requests(config: ExperimentConfig | None = None
                        ) -> list[SolveRequest]:
    """Every solve-shaped cell of the evaluation grid, as portable
    requests.

    This is the unit of work the service/queue layer transports: the
    RRL/RSD step columns of Tables 1–2 plus the UR value sweep. The
    analytic SR column (computed, not solved) and the timing cells
    (which must pay their own standalone setup inside one process) are
    process-local passthroughs and deliberately stay out. Submitting
    these to a :class:`~repro.service.queue.JobQueue` and collecting is
    bit-identical to :func:`run_grid`'s in-process execution of the same
    cells.
    """
    config = config or ExperimentConfig()
    requests: list[SolveRequest] = []
    for kind in ("UA", "UR"):
        kind_requests, _ = _steps_table_workload(config, kind)
        requests += kind_requests
    requests += _ur_requests(config)
    return requests


@dataclass
class GridResult:
    """Everything the paper's evaluation produces, in one bundle."""

    table1: StepTable
    table2: StepTable
    ur_values: dict[int, list[float]]
    ur_abscissae: dict[int, list[int]]
    figure3: TimingTable | None = None
    figure4: TimingTable | None = None
    plan_summary: str | None = None
    """One-line description of the execution plan the grid ran under."""

    def render(self) -> str:
        parts = [self.table1.render(), "", self.table2.render(), ""]
        for g, vals in self.ur_values.items():
            paper = PAPER_UR_1E5.get(g)
            suffix = f"  (paper UR(1e5)={paper})" if paper else ""
            parts.append(f"G={g} UR: "
                         + " ".join(f"{v:.5f}" for v in vals)
                         + f"  abscissae={self.ur_abscissae[g]}{suffix}")
        for fig in (self.figure3, self.figure4):
            if fig is not None:
                parts += ["", fig.render()]
        return "\n".join(parts)

    def to_dict(self) -> dict:
        return {
            "table1": self.table1.to_dict(),
            "table2": self.table2.to_dict(),
            "ur_values": {str(g): v for g, v in self.ur_values.items()},
            "ur_abscissae": {str(g): v
                             for g, v in self.ur_abscissae.items()},
            "figure3": self.figure3.to_dict() if self.figure3 else None,
            "figure4": self.figure4.to_dict() if self.figure4 else None,
            "plan_summary": self.plan_summary,
        }


def run_grid(config: ExperimentConfig | None = None,
             service: SolveService | None = None,
             include_timings: bool = True) -> GridResult:
    """Run the full evaluation grid through one service fan-out.

    Every column of Tables 1–2, the UR value sweep, and (optionally)
    every series of Figures 3–4 becomes one cell. Solve cells
    (:func:`grid_solve_requests`) are compiled by the fusion planner, so
    e.g. the Table 2 RR/RRL column and the UR sweep coalesce into one
    solve per ``G``; then a single :meth:`SolveService.execute` call
    runs the whole workload, keeping ``k`` workers' worth of columns in
    flight.
    """
    config = config or ExperimentConfig()
    tasks: list[BatchTask] = []
    for kind in ("UA", "UR"):
        tasks += _steps_table_workload(config, kind)[1]
    if include_timings:
        tasks += _timing_table_tasks(config, "UA")
        tasks += _timing_table_tasks(config, "UR")
    result = (service or config.service()).execute(
        grid_solve_requests(config), tasks)
    outcomes, plan = result.all_outcomes, result.plan
    by_kind: dict[str, list] = {}
    for out in outcomes:
        by_kind.setdefault((out.key[0], out.key[1]) if out.key[0] != "ur"
                           else ("ur", None), []).append(out)
    table1 = _assemble_steps_table(config, "UA", by_kind[("steps", "UA")])
    table2 = _assemble_steps_table(config, "UR", by_kind[("steps", "UR")])
    ur_values, ur_abscissae = _assemble_ur(by_kind[("ur", None)])
    figure3 = figure4 = None
    if include_timings:
        figure3 = _assemble_timing_table(config, "UA",
                                         by_kind[("timing", "UA")])
        figure4 = _assemble_timing_table(config, "UR",
                                         by_kind[("timing", "UR")])
    return GridResult(table1=table1, table2=table2, ur_values=ur_values,
                      ur_abscissae=ur_abscissae, figure3=figure3,
                      figure4=figure4, plan_summary=plan.summary())
