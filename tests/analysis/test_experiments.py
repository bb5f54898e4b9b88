"""Experiment harness on a reduced grid (the paper's numbers are checked
in ``test_paper_numbers.py``; here we verify the machinery and the
qualitative shapes)."""

import pytest

from repro.analysis.experiments import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_UR_1E5,
    ExperimentConfig,
    _timing_column,
    grid_solve_requests,
    run_grid,
)
from repro.batch.kernel import kernel_build_count
from repro.solvers.registry import get_spec
from tests.conftest import direct_solve

CFG = ExperimentConfig(groups=(4,), times=(1.0, 10.0, 100.0),
                       sr_step_budget=100_000)


@pytest.fixture(scope="module")
def grid():
    return run_grid(CFG, include_timings=False)


@pytest.fixture(scope="module")
def table1(grid):
    return grid.table1


@pytest.fixture(scope="module")
def table2(grid):
    return grid.table2


class TestStepTables:
    def test_table1_columns(self, table1):
        assert set(table1.columns) == {"G=4 RR/RRL", "G=4 RSD"}
        assert all(len(v) == 3 for v in table1.columns.values())

    def test_steps_positive_and_growing(self, table1):
        col = table1.columns["G=4 RR/RRL"]
        assert col[0] > 0
        assert col[2] > col[0]

    def test_table2_sr_explodes(self, table2):
        sr = table2.columns["G=4 SR"]
        rrl = table2.columns["G=4 RR/RRL"]
        # At t=100 SR already needs more steps than RR/RRL.
        assert sr[2] > rrl[2]

    def test_render_includes_paper_when_paper_grid(self, table1):
        # Reduced grid: no paper columns; still renders.
        out = table1.render()
        assert "Table 1" in out
        assert "paper" not in out

    def test_paper_constants_sanity(self):
        assert PAPER_TABLE1[20][0][0] == 56
        assert PAPER_TABLE2[40][1][-1] == 4390141
        assert PAPER_UR_1E5[20] == pytest.approx(0.50480)


class TestTimingTable:
    def test_figure4_budget_skip(self):
        cfg = ExperimentConfig(groups=(4,), times=(1.0, 1000.0),
                               sr_step_budget=500)
        fig = run_grid(cfg).figure4
        sr = fig.series["G=4, SR"]
        assert sr[0] is None or sr[0] >= 0.0
        assert sr[1] is None  # over budget: skipped
        rrl = fig.series["G=4, RRL"]
        assert all(v is not None and v > 0 for v in rrl)
        out = fig.render()
        assert "Figure 4" in out and "—" in out

    @pytest.mark.parametrize("method", ["RRL", "RSD"])
    def test_timed_cells_keep_their_own_uniformization(self, method):
        # Each timed solve runs on a model built for it, so it builds its
        # own kernel: a model that kept one across cells would time the
        # later cells without their uniformization.
        cfg = ExperimentConfig.quick()
        before = kernel_build_count()
        series = _timing_column(cfg, cfg.groups[0], "UA", method)
        assert all(v is not None for v in series)
        assert kernel_build_count() - before == len(cfg.times)

    def test_config_paper_grid(self):
        cfg = ExperimentConfig.paper()
        assert cfg.groups == (20, 40)
        assert cfg.times[-1] == 1e5


class TestPlannedGrid:
    def test_grid_equals_direct_solves(self, grid):
        # Every measured cell of the planned grid equals the direct
        # registry solve of its request, abscissa counts included.
        for req in grid_solve_requests(CFG):
            sol = direct_solve(req)
            if req.key[0] == "ur":
                g = req.key[1]
                assert grid.ur_values[g] == [float(v) for v in sol.values]
                assert grid.ur_abscissae[g] == [
                    int(a) for a in sol.stats["n_abscissae"]]
                continue
            _, kind, g, column = req.key
            table = grid.table1 if kind == "UA" else grid.table2
            label = f"G={g} {get_spec(column).table_label}"
            assert table.columns[label] == [int(s) for s in sol.steps]

    def test_plan_coalesces_rrl_ur_duplicate(self, grid):
        # Table 2's RR/RRL column and the UR sweep are the same solve:
        # the plan must report one coalesced request per model size.
        assert grid.plan_summary is not None
        assert f"{len(CFG.groups)} coalesced" in grid.plan_summary

    def test_plan_summary_in_json_dump(self, grid):
        assert grid.to_dict()["plan_summary"] == grid.plan_summary
