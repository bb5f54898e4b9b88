"""Cross-method validation utility."""

import numpy as np
import pytest

from repro import TRR, MRR, RewardStructure
from repro.analysis.validation import cross_validate
from repro.models import random_ctmc


class TestCrossValidate:
    def test_default_methods_irreducible(self, random_irreducible):
        rewards = RewardStructure.indicator(15, [4])
        report = cross_validate(random_irreducible, rewards, TRR,
                                [1.0, 10.0], eps=1e-9)
        assert set(report.solutions) == {"RRL", "RR", "SR", "RSD"}
        assert report.passed, report.render()

    def test_default_methods_absorbing(self, random_absorbing):
        n = random_absorbing.n_states
        rewards = RewardStructure.indicator(n, [n - 1])
        report = cross_validate(random_absorbing, rewards, TRR, [2.0],
                                eps=1e-9)
        assert "RSD" not in report.solutions
        assert report.passed

    def test_mrr(self, random_irreducible):
        rewards = RewardStructure(np.linspace(0, 1, 15))
        report = cross_validate(random_irreducible, rewards, MRR, [5.0],
                                eps=1e-9, methods=("RRL", "SR"))
        assert report.passed

    def test_every_pair_gets_twice_eps(self, two_state):
        # Every registered method meets ε, so no pair gets slack.
        model, rewards, *_ = two_state
        report = cross_validate(model, rewards, TRR, [1.0], eps=1e-10,
                                methods=("RRL", "RR", "SR", "RSD"))
        assert len(report.tolerance) == 6
        assert set(report.tolerance.values()) == {2e-10}
        assert report.passed

    def test_worst_pair_and_render(self, random_irreducible):
        rewards = RewardStructure.indicator(15, [2])
        report = cross_validate(random_irreducible, rewards, TRR, [1.0],
                                eps=1e-9, methods=("RRL", "SR"))
        pair, dev = report.worst_pair()
        assert pair == ("RRL", "SR")
        out = report.render()
        assert "PASSED" in out and "RRL vs SR" in out

    def test_raid_reliability_agrees(self):
        # The RAID-5 UR check the removed ``repro validate`` command ran.
        from repro.models import Raid5Params, build_raid5_reliability

        model, rewards, _ = build_raid5_reliability(Raid5Params(groups=4))
        report = cross_validate(model, rewards, TRR, [1.0, 10.0], eps=1e-9)
        assert report.passed
        assert "PASSED" in report.render()
