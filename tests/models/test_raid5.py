"""RAID-5 model generator: invariants, structure, paper cross-checks."""

import numpy as np
import pytest

from repro import TRR, RRLSolver
from repro.exceptions import ModelError
from repro.models import (
    Raid5Params,
    build_raid5_availability,
    build_raid5_reliability,
    raid5_performability_rewards,
)
from repro.batch.scenarios import generate_scenarios
from repro.models import raid5
from repro.models.raid5 import FAILED
from raid5_oracle import oracle_build


def _param_sets():
    """The array build's oracle cases: ``(id, params, absorbing)``."""
    cases = [(f"paper-G{g}-{kind}", Raid5Params(groups=g), kind == "UR")
             for g in (20, 40) for kind in ("UA", "UR")]
    for sc in generate_scenarios(("raid5",)):
        params = {k: v for k, v in sc.params.items() if k != "kind"}
        cases.append((sc.name, Raid5Params(**params),
                      sc.params["kind"] == "reliability"))
    edges = {"spare_disks=0": {"spare_disks": 0},
             "spare_controllers=0": {"spare_controllers": 0},
             "reconstruction_success=1.0": {"reconstruction_success": 1.0},
             "controller_fail=0.0": {"controller_fail": 0.0},
             "disks_per_group=3": {"disks_per_group": 3}}
    for name, kw in edges.items():
        for kind in ("UA", "UR"):
            cases.append((f"G6-{name}-{kind}", Raid5Params(groups=6, **kw),
                          kind == "UR"))
    return cases


_CASES = _param_sets()


def _typed(label):
    if isinstance(label, tuple):
        return tuple((type(x), x) for x in label)
    return type(label), label


class TestArrayBuildEqualsOracle:
    @pytest.mark.parametrize("params, absorbing",
                             [case[1:] for case in _CASES],
                             ids=[case[0] for case in _CASES])
    def test_bit_identical_to_symbolic_generator(self, params, absorbing):
        build = (build_raid5_reliability if absorbing
                 else build_raid5_availability)
        _, _, got = build(params)
        want = oracle_build(params, absorbing=absorbing)
        g, w = got.model.generator, want.model.generator
        for name in ("indptr", "indices", "data"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.model.initial.tobytes() == want.model.initial.tobytes()
        assert ([_typed(x) for x in got.model.labels]
                == [_typed(x) for x in want.model.labels])
        assert ([(_typed(k), i) for k, i in got.index.items()]
                == [(_typed(k), i) for k, i in want.index.items()])

    def test_cases_cover_the_sweep_and_paper_models(self):
        assert len(_CASES) == 4 + 8 + 10

    @pytest.mark.parametrize("target", [
        {"nsd": 1},  # a spare disk past D_H: out of the digit's range
        {"nwd": 1},  # a waiting disk with every controller up
    ], ids=["out-of-range", "invariant"])
    def test_rule_leaving_candidates_raises(self, monkeypatch, target):
        rules = raid5._rules

        def broken(p):
            return (*rules(p),
                    (True, lambda c: (c.nfc == 0) & (c.nsd == p.spare_disks),
                     target, lambda c: 1.0))

        monkeypatch.setattr(raid5, "_rules", broken)
        with pytest.raises(ModelError, match="outside the states"):
            build_raid5_availability(Raid5Params(groups=3))


@pytest.fixture(scope="module")
def small_ua():
    return build_raid5_availability(Raid5Params(groups=5))


@pytest.fixture(scope="module")
def small_ur():
    return build_raid5_reliability(Raid5Params(groups=5))


class TestParams:
    def test_defaults_are_paper_values(self):
        p = Raid5Params()
        assert (p.disks_per_group, p.spare_disks, p.spare_controllers) == \
            (5, 3, 1)
        assert (p.disk_fail, p.disk_fail_overloaded, p.controller_fail) == \
            (1e-5, 2e-5, 5e-5)
        assert (p.reconstruction, p.disk_repair, p.controller_repair) == \
            (1.0, 4.0, 4.0)
        assert (p.spare_repair, p.global_repair) == (0.25, 0.25)

    def test_validation(self):
        with pytest.raises(ModelError):
            Raid5Params(groups=0)
        with pytest.raises(ModelError):
            Raid5Params(reconstruction_success=1.5)
        with pytest.raises(ModelError):
            Raid5Params(disk_fail=-1.0)
        with pytest.raises(ModelError):
            Raid5Params(spare_disks=-1)

    def test_initial_state(self):
        p = Raid5Params(groups=3)
        assert p.initial_state == (0, 0, 0, 3, True, 0, 1)


class TestStateSpaceInvariants:
    def test_every_state_satisfies_invariants(self, small_ua):
        model, _, explored = small_ua
        g = 5
        for state in explored.index:
            if state == FAILED:
                continue
            nfd, ndr, nwd, nsd, al, nfc, nsc = state
            assert 0 <= nfc <= 1
            assert nfd + ndr + nwd <= g
            if nfc == 0:
                assert nwd == 0
            else:
                assert ndr == 0
                assert al is True
            if nfd + ndr + nwd <= 1:
                assert al is True
            assert 0 <= nsd <= 3 and 0 <= nsc <= 1

    def test_irreducible_availability(self, small_ua):
        model, _, _ = small_ua
        assert model.is_irreducible()
        assert model.absorbing_states().size == 0

    def test_reliability_has_single_absorbing_failed(self, small_ur):
        model, _, explored = small_ur
        absorbing = model.absorbing_states()
        assert absorbing.size == 1
        assert explored.state_index(FAILED) == absorbing[0]

    def test_one_transition_less(self):
        # Paper: "models with absorbing state have the same number of
        # states and one transition less" (the global repair arc).
        p = Raid5Params(groups=4)
        ua, _, _ = build_raid5_availability(p)
        ur, _, _ = build_raid5_reliability(p)
        assert ua.n_states == ur.n_states
        assert ua.n_transitions == ur.n_transitions + 1

    def test_max_rate_formula(self):
        # Λ ≈ (G−1)·μ_DRC + μ_DRP + 3·μ_SR (+ small failure terms) —
        # the structure that reproduces the paper's SR step counts.
        for g in (5, 10, 20):
            model, _, _ = build_raid5_availability(Raid5Params(groups=g))
            lam = model.max_output_rate
            base = (g - 1) * 1.0 + 4.0 + 3 * 0.25
            assert base < lam < base + 0.01

    def test_reward_is_failed_indicator(self, small_ua):
        model, rewards, explored = small_ua
        idx = explored.state_index(FAILED)
        assert rewards.rates[idx] == 1.0
        assert rewards.rates.sum() == 1.0

    def test_rates_all_positive_offdiag(self, small_ua):
        model, _, _ = small_ua
        coo = model.generator.tocoo()
        off = coo.data[coo.row != coo.col]
        assert np.all(off > 0.0)

    def test_state_count_scaling(self):
        # The aggregated space grows ~quadratically in G (triangle of
        # (NFD, NDR) pairs times the spare/alignment/controller factors).
        n5 = build_raid5_availability(Raid5Params(groups=5))[0].n_states
        n10 = build_raid5_availability(Raid5Params(groups=10))[0].n_states
        assert 2.5 < n10 / n5 < 4.5


class TestPaperCrossChecks:
    def test_paper_step_counts_g20(self):
        """RRL step counts must reproduce the paper's Table 2 (G=20)."""
        model, rewards, _ = build_raid5_reliability(Raid5Params(groups=20))
        sol = RRLSolver().solve(model, rewards, TRR,
                                [1.0, 10.0, 1e2, 1e3, 1e4, 1e5], eps=1e-12)
        paper = np.array([56, 323, 2233, 2708, 2937, 3157])
        assert np.all(np.abs(sol.steps - paper) <= 2)

    def test_paper_ur_value_g20(self):
        model, rewards, _ = build_raid5_reliability(Raid5Params(groups=20))
        sol = RRLSolver().solve(model, rewards, TRR, [1e5], eps=1e-10)
        # P_R calibration targets the paper's 0.50480 (see Raid5Params.reconstruction_success).
        assert sol.values[0] == pytest.approx(0.50480, abs=5e-4)

    def test_ur_monotone_in_time(self, small_ur):
        model, rewards, _ = small_ur
        sol = RRLSolver().solve(model, rewards, TRR,
                                [1.0, 10.0, 100.0, 1000.0], eps=1e-12)
        assert np.all(np.diff(sol.values) > 0.0)

    def test_ur_increases_with_groups(self):
        # More groups ⇒ more disks ⇒ lower reliability.
        t = [1e4]
        u = []
        for g in (4, 8):
            model, rewards, _ = build_raid5_reliability(Raid5Params(groups=g))
            u.append(RRLSolver().solve(model, rewards, TRR, t,
                                       eps=1e-10).values[0])
        assert u[1] > u[0]

    def test_more_spares_help_availability(self):
        t = [1e4]
        ua = []
        for d_h in (1, 4):
            p = Raid5Params(groups=5, spare_disks=d_h)
            model, rewards, _ = build_raid5_availability(p)
            ua.append(RRLSolver().solve(model, rewards, TRR, t,
                                        eps=1e-12).values[0])
        assert ua[1] < ua[0]

    def test_perfect_reconstruction_lowers_unreliability(self):
        t = [1e4]
        u = []
        for pr in (0.99, 1.0):
            p = Raid5Params(groups=5, reconstruction_success=pr)
            model, rewards, _ = build_raid5_reliability(p)
            u.append(RRLSolver().solve(model, rewards, TRR, t,
                                       eps=1e-10).values[0])
        assert u[1] < u[0]


class TestPerformabilityRewards:
    def test_reward_range(self, small_ua):
        model, _, explored = small_ua
        p = Raid5Params(groups=5)
        rw = raid5_performability_rewards(explored, p)
        assert rw.max_rate == pytest.approx(5.0)  # all groups full speed
        idx = explored.state_index(FAILED)
        assert rw.rates[idx] == 0.0
        assert np.all(rw.rates >= 0.0)

    def test_initial_state_full_throughput(self, small_ua):
        model, _, explored = small_ua
        p = Raid5Params(groups=5)
        rw = raid5_performability_rewards(explored, p)
        idx = explored.state_index(p.initial_state)
        assert rw.rates[idx] == pytest.approx(5.0)

    def test_degraded_states_lose_throughput(self, small_ua):
        model, _, explored = small_ua
        p = Raid5Params(groups=5)
        rw = raid5_performability_rewards(explored, p)
        one_failed = (1, 0, 0, 3, True, 0, 1)
        idx = explored.state_index(one_failed)
        assert rw.rates[idx] == pytest.approx(4.5)  # 4 full + 1 at 0.5
