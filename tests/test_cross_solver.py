"""Cross-solver consistency: every registered transient solver must agree
on every generated scenario.

For each scenario from the parametric generator, RR, RRL, SR, RSD (on
irreducible models), AU and ODE are run on the same ``(measure, t, ε)``
grid. Methods with guaranteed error bounds (SR, RR, RRL, RSD, AU-on-TRR)
must agree pairwise within their *combined* ε budgets; the unguaranteed
comparators (ODE everywhere, AU's Simpson-integrated MRR) get a looser
numerical tolerance. A disagreement here means a solver's truncation
analysis — not just its speed — is broken, which is exactly the class of
bug a refactor of the shared stepping kernel could introduce.
"""

import numpy as np
import pytest

from repro.analysis.runner import get_solver
from repro.batch.scenarios import build_scenario_model, generate_scenarios
from repro.markov.base import SolveCell
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.sweep import solve_shared

EPS = 1e-8

#: Tolerance for methods with rigorous total-error guarantees: two methods
#: each eps-accurate can differ by 2·eps; a small float fuzz rides along.
GUARANTEED_TOL = 4.0 * EPS

#: ODE (heuristic local error control) and AU's Simpson-integrated MRR.
NUMERIC_TOL = 5e-6

TRR_SCENARIOS = (
    generate_scenarios(families=("raid5",), times=(1.0, 50.0), eps=EPS)[:2]
    + generate_scenarios(families=("multiprocessor",),
                         times=(1.0, 50.0), eps=EPS)[:2]
    + generate_scenarios(families=("birth_death", "block"), seed=5,
                         random_count=2, times=(0.5, 5.0), eps=EPS)
)

MRR_SCENARIOS = [
    s.with_measure(Measure.MRR)
    for s in (generate_scenarios(families=("birth_death",), seed=9,
                                 random_count=1, times=(0.5, 5.0),
                                 eps=EPS)
              + generate_scenarios(families=("multiprocessor",),
                                   times=(1.0, 20.0), eps=EPS)[:1]
              + generate_scenarios(families=("block",), seed=3,
                                   random_count=1, times=(0.5, 5.0),
                                   eps=EPS))
]


def _methods_for(model, measure):
    """(guaranteed methods, numeric-tolerance methods) for a scenario."""
    guaranteed = ["SR", "RR", "RRL"]
    numeric = ["ODE"]
    if model.is_irreducible():
        guaranteed.append("RSD")
    if measure is Measure.TRR:
        guaranteed.append("AU")
    else:
        numeric.append("AU")
    return guaranteed, numeric


def _solve_all(scenario):
    model, rewards = build_scenario_model(scenario)
    guaranteed, numeric = _methods_for(model, scenario.measure)
    values = {}
    for method in guaranteed + numeric:
        sol = get_solver(method).solve(model, rewards, scenario.measure,
                                       list(scenario.times), scenario.eps)
        # Unified stats schema: every solver reports its rate.
        assert "rate" in sol.stats, f"{method} solution lacks stats['rate']"
        values[method] = np.asarray(sol.values)
    return guaranteed, numeric, values


@pytest.mark.parametrize("scenario", TRR_SCENARIOS,
                         ids=lambda s: s.name)
def test_trr_consistency(scenario):
    guaranteed, numeric, values = _solve_all(scenario)
    reference = values["RRL"]
    for method in guaranteed:
        assert values[method] == pytest.approx(reference,
                                               abs=GUARANTEED_TOL), \
            f"{method} disagrees with RRL on {scenario.name}"
    for method in numeric:
        assert values[method] == pytest.approx(reference,
                                               abs=NUMERIC_TOL), \
            f"{method} disagrees with RRL on {scenario.name}"


@pytest.mark.parametrize("scenario", MRR_SCENARIOS,
                         ids=lambda s: s.name)
def test_mrr_consistency(scenario):
    guaranteed, numeric, values = _solve_all(scenario)
    reference = values["RRL"]
    for method in guaranteed:
        assert values[method] == pytest.approx(reference,
                                               abs=GUARANTEED_TOL), \
            f"{method} disagrees with RRL on {scenario.name}"
    for method in numeric:
        assert values[method] == pytest.approx(reference,
                                               abs=NUMERIC_TOL), \
            f"{method} disagrees with RRL on {scenario.name}"


def _fusable_methods_for(model):
    """The registry's stack-fusable methods applicable to this model
    (RSD declares requires_irreducible)."""
    from repro.solvers import registry

    return [m for m in sorted(registry.stack_fusable_methods())
            if model.is_irreducible()
            or not registry.get_spec(m).requires_irreducible]


@pytest.mark.parametrize("scenario", TRR_SCENARIOS + MRR_SCENARIOS,
                         ids=lambda s: s.name)
def test_fused_equals_unfused_bitwise(scenario):
    """Every generated scenario, fused with perturbed sibling cells, must
    reproduce its standalone solution bit for bit — per fusable solver,
    and with every fusable solver's cells in one shared sweep.

    The sibling cells vary everything fusion is allowed to vary (rewards,
    eps, times) so the stacked pass cannot accidentally share anything
    beyond the stepping itself.
    """
    model, rewards = build_scenario_model(scenario)
    cell = SolveCell(rewards=rewards, measure=scenario.measure,
                     times=scenario.times, eps=scenario.eps)
    siblings = [
        SolveCell(rewards=RewardStructure(0.5 * rewards.rates),
                  measure=scenario.measure, times=scenario.times,
                  eps=scenario.eps),
        SolveCell(rewards=rewards, measure=scenario.measure,
                  times=scenario.times, eps=scenario.eps * 0.1),
        SolveCell(rewards=rewards, measure=scenario.measure,
                  times=scenario.times[:1], eps=scenario.eps),
    ]
    cells = [cell] + siblings
    methods = _fusable_methods_for(model)
    shared = solve_shared(model, [(get_solver(m), c) for m in methods
                                  for c in cells])
    for i, method in enumerate(methods):
        fused = get_solver(method).solve_fused(model, cells)
        mixed = shared[4 * i: 4 * i + 4]
        assert len(fused) == len(mixed) == 4
        for got, in_group, ref_cell in zip(fused, mixed, cells):
            solo = get_solver(method).solve(
                model, ref_cell.rewards, ref_cell.measure,
                list(ref_cell.times), ref_cell.eps)
            for sol in (got, in_group):
                assert np.array_equal(sol.values, solo.values), \
                    f"fused {method} values drifted on {scenario.name}"
                assert np.array_equal(sol.steps, solo.steps), \
                    f"fused {method} steps drifted on {scenario.name}"
                for key in ("k_ss", "d_inf", "stationary_residual"):
                    assert sol.stats.get(key) == solo.stats.get(key)
            assert got.stats["fused_width"] == 4
            assert in_group.stats["fused_width"] == 4 * len(methods)


def test_matrix_covers_every_registered_solver():
    """Pin: a solver registered in the capability registry must appear in
    this module's consistency matrix. Adding a new solver without
    teaching it to this suite fails here, not silently."""
    from repro.solvers import registry

    covered = set()
    for scenario in TRR_SCENARIOS + MRR_SCENARIOS:
        model, _ = build_scenario_model(scenario)
        guaranteed, numeric = _methods_for(model, scenario.measure)
        covered.update(guaranteed)
        covered.update(numeric)
    covered.add("MS")  # exercised by test_multistep_agrees_on_trr
    missing = set(registry.known_methods()) - covered
    assert not missing, (
        f"registered solver(s) {sorted(missing)} are not exercised by "
        "the cross-solver matrix; add them to _methods_for (or a "
        "dedicated test) so every registered method stays consistency-"
        "checked")


def test_multistep_agrees_on_trr():
    """MS (TRR-only) rides the same kernel; check it against SR."""
    scenario = generate_scenarios(families=("birth_death",), seed=13,
                                  random_count=1, times=(0.5, 5.0),
                                  eps=EPS)[0]
    model, rewards = build_scenario_model(scenario)
    ms = get_solver("MS").solve(model, rewards, Measure.TRR,
                                list(scenario.times), scenario.eps)
    sr = get_solver("SR").solve(model, rewards, Measure.TRR,
                                list(scenario.times), scenario.eps)
    assert ms.values == pytest.approx(sr.values, abs=GUARANTEED_TOL)
