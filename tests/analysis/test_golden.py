"""Golden-value regression tests.

Pins the reproduced Table 1 / Table 2 step counts, the Figure 3/4
per-method step counts, and the UA/UR measure values on a fixed reduced
grid to a committed JSON fixture, so a future refactor of the solvers or
the batch engine cannot silently drift the reproduction.

Step counts are machine-independent integers and must match *exactly*.
Measure values carry an ``ε = 1e-12`` guarantee; the comparison tolerance
``1e-11`` is one order looser, so any legitimate implementation change
stays green while a real numerical regression (beyond the guarantee)
fails.

Regenerate after an *intentional* change with:

    PYTHONPATH=src python tests/analysis/test_golden.py --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentConfig, run_grid
from repro.analysis.runner import get_solver
from repro.core.rrl_solver import RRLSolver
from repro.markov.rewards import Measure
from repro.models.raid5 import (
    build_raid5_availability,
    build_raid5_reliability,
)

FIXTURE = Path(__file__).parent / "fixtures" / "golden.json"

#: Reduced but nontrivial grid: one model size, four decades of t.
CONFIG = ExperimentConfig(groups=(5,), times=(1.0, 10.0, 100.0, 1000.0),
                          eps=1e-12)

VALUE_TOL = 1e-11


def _figure_steps(kind: str) -> dict[str, list[int]]:
    """Per-method step counts behind the Figure 3/4 cells (one sweep per
    method — sweep and standalone per-``t`` counts coincide for every
    method by construction, which ``test_sr_steps_match_standalone``
    in the SR suite checks explicitly)."""
    g = CONFIG.groups[0]
    if kind == "UA":
        model, rewards, _ = build_raid5_availability(CONFIG.params_for(g))
        methods = ("RRL", "RR", "RSD")
    else:
        model, rewards, _ = build_raid5_reliability(CONFIG.params_for(g))
        methods = ("RRL", "RR", "SR")
    out = {}
    for method in methods:
        sol = get_solver(method).solve(model, rewards, Measure.TRR,
                                       list(CONFIG.times), CONFIG.eps)
        out[method] = [int(s) for s in sol.steps]
    return out


def compute_golden() -> dict:
    """Recompute every pinned quantity (slow-ish: a few seconds)."""
    g = CONFIG.groups[0]
    grid = run_grid(CONFIG, include_timings=False)
    ua_model, ua_rewards, _ = build_raid5_availability(CONFIG.params_for(g))
    ua = RRLSolver().solve(ua_model, ua_rewards, Measure.TRR,
                           list(CONFIG.times), CONFIG.eps)
    return {
        "config": {"groups": list(CONFIG.groups),
                   "times": list(CONFIG.times), "eps": CONFIG.eps},
        "table1_columns": {k: list(v)
                           for k, v in grid.table1.columns.items()},
        "table2_columns": {k: list(v)
                           for k, v in grid.table2.columns.items()},
        "figure3_steps": _figure_steps("UA"),
        "figure4_steps": _figure_steps("UR"),
        "ua_values": [float(v) for v in ua.values],
        "ur_values": grid.ur_values[g],
    }


@pytest.fixture(scope="module")
def golden():
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; regenerate with "
        "PYTHONPATH=src python tests/analysis/test_golden.py --regen")
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current():
    return compute_golden()


def test_fixture_matches_config(golden):
    assert golden["config"] == {"groups": list(CONFIG.groups),
                                "times": list(CONFIG.times),
                                "eps": CONFIG.eps}


def test_table1_steps_pinned(golden, current):
    assert current["table1_columns"] == golden["table1_columns"]


def test_table2_steps_pinned(golden, current):
    assert current["table2_columns"] == golden["table2_columns"]


def test_figure3_steps_pinned(golden, current):
    assert current["figure3_steps"] == golden["figure3_steps"]


def test_figure4_steps_pinned(golden, current):
    assert current["figure4_steps"] == golden["figure4_steps"]


def test_ua_values_pinned(golden, current):
    assert current["ua_values"] == pytest.approx(golden["ua_values"],
                                                 abs=VALUE_TOL)


def test_ur_values_pinned(golden, current):
    assert current["ur_values"] == pytest.approx(golden["ur_values"],
                                                 abs=VALUE_TOL)


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        print(__doc__)
        sys.exit(2)
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_golden(), indent=2) + "\n")
    print(f"wrote {FIXTURE}")
