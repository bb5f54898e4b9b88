"""Parametric scenario generator for batch sweeps.

The paper evaluates two models. A production sweep wants *families*:
this module programmatically produces grid cells over

* ``raid5`` — the paper's level-5 RAID model with varying group counts
  and reconstruction/repair rates (availability and reliability
  variants);
* ``multiprocessor`` — the fault-tolerant multiprocessor with varying
  coverage and component counts;
* ``birth_death`` — random birth–death chains (load/queueing shaped);
* ``block`` — block-structured (nearly-completely-decomposable) random
  CTMCs with tunable stiffness.

A :class:`Scenario` is deliberately *descriptive*: a registry key plus a
plain parameter dict, never a live model. That keeps scenarios tiny and
picklable, so a pool worker of :func:`~repro.batch.runner.run_tasks`
rebuilds the model on its side of the process boundary instead of
shipping CSR matrices through pickles for every cell. Building is cheap
relative to solving; rebuilt models are bit-identical because every
family is either deterministic or seeded.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.models.library import birth_death, block_structured_ctmc
from repro.models.multiprocessor import (
    MultiprocessorParams,
    build_multiprocessor_availability,
    build_multiprocessor_reliability,
)
from repro.models.raid5 import (
    Raid5Params,
    build_raid5_availability,
    build_raid5_reliability,
)

__all__ = ["Scenario", "scenario_families", "generate_scenarios",
           "scenario_requests"]

#: Default evaluation horizon grid (hours, paper-style log sweep).
_DEFAULT_TIMES: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)


def _build_raid5(params: dict) -> tuple[CTMC, RewardStructure]:
    kind = params.get("kind", "availability")
    p = Raid5Params(**{k: v for k, v in params.items() if k != "kind"})
    if kind == "availability":
        model, rewards, _ = build_raid5_availability(p)
    elif kind == "reliability":
        model, rewards, _ = build_raid5_reliability(p)
    else:
        raise ModelError(f"unknown raid5 kind {kind!r}")
    return model, rewards


def _build_multiprocessor(params: dict) -> tuple[CTMC, RewardStructure]:
    kind = params.get("kind", "availability")
    p = MultiprocessorParams(
        **{k: v for k, v in params.items() if k != "kind"})
    if kind == "availability":
        model, rewards, _ = build_multiprocessor_availability(p)
    elif kind == "reliability":
        model, rewards, _ = build_multiprocessor_reliability(p)
    else:
        raise ModelError(f"unknown multiprocessor kind {kind!r}")
    return model, rewards


def _build_birth_death(params: dict) -> tuple[CTMC, RewardStructure]:
    n = int(params["n"])
    model = birth_death(n, float(params["birth"]), float(params["death"]))
    # Reward: indicator of the congested top quarter of the chain.
    top = max(1, n // 4)
    return model, RewardStructure.indicator(n, range(n - top, n))


def _build_block(params: dict) -> tuple[CTMC, RewardStructure]:
    return block_structured_ctmc(
        n_blocks=int(params["n_blocks"]),
        block_size=int(params["block_size"]),
        intra_scale=float(params.get("intra_scale", 1.0)),
        inter_scale=float(params.get("inter_scale", 1e-3)),
        seed=int(params.get("seed", 0)))


_FAMILY_BUILDERS: dict[str, Callable[[dict], tuple[CTMC, RewardStructure]]] = {
    "raid5": _build_raid5,
    "multiprocessor": _build_multiprocessor,
    "birth_death": _build_birth_death,
    "block": _build_block,
}

#: The parameter that picks a family's variant, for families whose
#: variants are twin chains: raid5's reliability model is its
#: availability model with FAILED absorbing instead of repaired to the
#: all-up hub, at the same rate. (The multiprocessor's variants are not:
#: their randomization rates differ.)
_VARIANT_PARAMS = {"raid5": "kind"}


def scenario_families() -> tuple[str, ...]:
    """Registered model-family keys."""
    return tuple(sorted(_FAMILY_BUILDERS))


@dataclass(frozen=True)
class Scenario:
    """One picklable grid cell: model family + parameters + measure grid."""

    name: str
    family: str
    params: dict = field(default_factory=dict)
    measure: Measure = Measure.TRR
    times: tuple[float, ...] = _DEFAULT_TIMES
    eps: float = 1e-10

    def build(self) -> tuple[CTMC, RewardStructure]:
        """Instantiate the model and rewards (done worker-side)."""
        try:
            builder = _FAMILY_BUILDERS[self.family]
        except KeyError:
            raise ModelError(
                f"unknown scenario family {self.family!r}; "
                f"known: {', '.join(scenario_families())}") from None
        return builder(dict(self.params))

    def variant_key(self) -> tuple | None:
        """Equal for scenarios that are variants of one chain, else
        ``None``: the family and every parameter but the variant's.

        The planner runs the RR/RRL cells of one key as one task, whose
        schedules step on one walk where the chains are exact twins
        (:func:`repro.core._setup.link_twins` decides).
        """
        variant = _VARIANT_PARAMS.get(self.family)
        if variant is None:
            return None
        return (self.family, tuple(sorted(
            (k, v) for k, v in self.params.items() if k != variant)))

    def with_measure(self, measure: Measure) -> "Scenario":
        """Copy of this scenario evaluating a different measure."""
        tag = measure.value
        return replace(self, measure=measure,
                       name=f"{self.name}/{tag}")


def scenario_requests(scenarios: Iterable[Scenario],
                      methods: Sequence[str] = ("RRL",)) -> list:
    """One :class:`~repro.batch.planner.SolveRequest` per
    (scenario, method), keyed ``(scenario.name, method)`` — ready for
    :class:`~repro.service.service.SolveService`."""
    from repro.batch.planner import SolveRequest

    return [SolveRequest(scenario=s, measure=s.measure, times=s.times,
                         eps=s.eps, method=m, key=(s.name, m))
            for s in scenarios for m in methods]


def _raid5_scenarios(times: tuple[float, ...], eps: float
                     ) -> list[Scenario]:
    out = []
    for groups in (2, 4):
        for recon in (0.5, 1.0):
            base = {"groups": groups, "spare_disks": 2,
                    "spare_controllers": 1, "reconstruction": recon}
            for kind in ("availability", "reliability"):
                out.append(Scenario(
                    name=f"raid5-G{groups}-mu{recon:g}-{kind[:5]}",
                    family="raid5",
                    params={**base, "kind": kind},
                    times=times, eps=eps))
    return out


def _multiprocessor_scenarios(times: tuple[float, ...], eps: float
                              ) -> list[Scenario]:
    out = []
    for coverage in (0.9, 0.99):
        for n_p in (2, 3):
            base = {"processors": n_p, "memories": 2,
                    "coverage": coverage}
            for kind in ("availability", "reliability"):
                out.append(Scenario(
                    name=f"mp-p{n_p}-c{coverage:g}-{kind[:5]}",
                    family="multiprocessor",
                    params={**base, "kind": kind},
                    times=times, eps=eps))
    return out


def _birth_death_scenarios(times: tuple[float, ...], eps: float,
                           rng: np.random.Generator,
                           count: int) -> list[Scenario]:
    out = []
    for i in range(count):
        n = int(rng.integers(5, 30))
        birth = float(rng.uniform(0.1, 2.0))
        death = float(rng.uniform(birth, 4.0 * birth))  # stable-ish queue
        out.append(Scenario(
            name=f"bd-{i}-n{n}",
            family="birth_death",
            params={"n": n, "birth": round(birth, 6),
                    "death": round(death, 6)},
            times=times, eps=eps))
    return out


def _block_scenarios(times: tuple[float, ...], eps: float,
                     rng: np.random.Generator,
                     count: int) -> list[Scenario]:
    out = []
    for i in range(count):
        n_blocks = int(rng.integers(2, 5))
        block_size = int(rng.integers(3, 8))
        inter = float(10.0 ** rng.uniform(-4, -2))
        out.append(Scenario(
            name=f"block-{i}-{n_blocks}x{block_size}",
            family="block",
            params={"n_blocks": n_blocks, "block_size": block_size,
                    "inter_scale": round(inter, 8),
                    "seed": int(rng.integers(2**31))},
            times=times, eps=eps))
    return out


def generate_scenarios(families: Iterable[str] | None = None,
                       *,
                       seed: int = 0,
                       random_count: int = 4,
                       times: Sequence[float] = _DEFAULT_TIMES,
                       eps: float = 1e-10,
                       measures: Sequence[Measure] = (Measure.TRR,)
                       ) -> list[Scenario]:
    """Produce a deterministic scenario grid.

    Parameters
    ----------
    families:
        Subset of :func:`scenario_families` (default: all).
    seed:
        Seed for the random families; the same seed always yields the
        same grid (scenarios are rebuilt identically in pool workers).
    random_count:
        Cells per *random* family (birth_death, block).
    times, eps:
        Evaluation grid shared by every scenario.
    measures:
        Each scenario is emitted once per requested measure.
    """
    wanted = tuple(families) if families is not None else scenario_families()
    unknown = set(wanted) - set(scenario_families())
    if unknown:
        raise ModelError(f"unknown scenario families: {sorted(unknown)}")
    t = tuple(float(x) for x in times)
    rng = np.random.default_rng(seed)
    base: list[Scenario] = []
    if "raid5" in wanted:
        base += _raid5_scenarios(t, eps)
    if "multiprocessor" in wanted:
        base += _multiprocessor_scenarios(t, eps)
    if "birth_death" in wanted:
        base += _birth_death_scenarios(t, eps, rng, random_count)
    if "block" in wanted:
        base += _block_scenarios(t, eps, rng, random_count)
    out: list[Scenario] = []
    for measure in measures:
        for s in base:
            out.append(s if measure is s.measure else s.with_measure(measure))
    return out
