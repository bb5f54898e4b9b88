"""Cross-solver consistency: every registered transient solver must meet
its ε on every generated scenario.

For each scenario from the parametric generator, RR, RRL, SR and RSD (on
irreducible models) are run on the same ``(measure, t, ε)`` grid and
checked against a dense ``scipy.linalg.expm`` reference: every value
within ``ε·max(1, r_max)``, with no headroom. A miss here means a
solver's truncation analysis — not just its speed — is broken, which is
exactly the class of bug a refactor of the shared stepping kernel could
introduce.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.analysis.runner import get_solver
from repro.batch.scenarios import generate_scenarios
from repro.markov.base import SolveCell
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.sweep import solve_shared

EPS = 1e-8

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


def _methods_for(model):
    """The registered methods that apply to a scenario's model."""
    methods = ["SR", "RR", "RRL"]
    if model.is_irreducible():
        methods.append("RSD")
    return methods


def _dense_reference(model, rewards, measure, times):
    """TRR ``π₀·exp(Qt)·r``, or MRR from the top-right block of
    ``exp([[Q, r], [0, 0]] t)``, which is the integral of
    ``exp(Qs)·r`` over ``[0, t]``."""
    q = model.generator.toarray()
    if measure is Measure.TRR:
        return np.array([model.initial @ expm(q * t) @ rewards.rates
                         for t in times])
    n = model.n_states
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = q
    aug[:n, n] = rewards.rates
    return np.array([model.initial @ expm(aug * t)[:n, n] / t
                     for t in times])


def _assert_every_method_meets_eps(scenario):
    model, rewards = scenario.build()
    reference = _dense_reference(model, rewards, scenario.measure,
                                 scenario.times)
    bound = scenario.eps * max(1.0, rewards.max_rate)
    for method in _methods_for(model):
        sol = get_solver(method).solve(model, rewards, scenario.measure,
                                       list(scenario.times), scenario.eps)
        # Unified stats schema: every solver reports its rate.
        assert "rate" in sol.stats, f"{method} solution lacks stats['rate']"
        err = np.abs(np.asarray(sol.values) - reference)
        assert np.all(err <= bound), (
            f"{method} misses ε on {scenario.name}: worst error "
            f"{err.max() / bound:.2f} ε")


@pytest.mark.parametrize("scenario", TRR_SCENARIOS,
                         ids=lambda s: s.name)
def test_trr_consistency(scenario):
    _assert_every_method_meets_eps(scenario)


@pytest.mark.parametrize("scenario", MRR_SCENARIOS,
                         ids=lambda s: s.name)
def test_mrr_consistency(scenario):
    _assert_every_method_meets_eps(scenario)


def _fusable_methods_for(model):
    """The registry's stack-fusable methods that apply to this model
    (RSD only to irreducible ones, as in ``_methods_for``)."""
    from repro.solvers import registry

    return [s.name for s in registry.specs() if s.stack_fusable
            and (model.is_irreducible() or s.name != "RSD")]


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
    model, rewards = scenario.build()
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
        fused = solve_shared(model, [(get_solver(method), c)
                                     for c in cells])
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
        model, _ = scenario.build()
        covered.update(_methods_for(model))
    missing = set(registry.known_methods()) - covered
    assert not missing, (
        f"registered solver(s) {sorted(missing)} are not exercised by "
        "the cross-solver matrix; add them to _methods_for so every "
        "registered method stays checked against the dense reference")
