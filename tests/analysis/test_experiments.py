"""Experiment harness on a reduced grid (the paper's numbers are checked
in ``test_paper_numbers.py``; here we verify the machinery and the
qualitative shapes)."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.experiments import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_UR_1E5,
    ExperimentConfig,
    run_figure4,
    run_grid,
    run_table1,
    run_table2,
)

CFG = ExperimentConfig(groups=(4,), times=(1.0, 10.0, 100.0),
                       sr_step_budget=100_000)


@pytest.fixture(scope="module")
def table1():
    return run_table1(CFG)


@pytest.fixture(scope="module")
def table2():
    return run_table2(CFG)


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
        fig = run_figure4(cfg)
        sr = fig.series["G=4, SR"]
        assert sr[0] is None or sr[0] >= 0.0
        assert sr[1] is None  # over budget: skipped
        rrl = fig.series["G=4, RRL"]
        assert all(v is not None and v > 0 for v in rrl)
        out = fig.render()
        assert "Figure 4" in out and "—" in out

    def test_config_paper_grid(self):
        cfg = ExperimentConfig.paper()
        assert cfg.groups == (20, 40)
        assert cfg.times[-1] == 1e5
        assert cfg.fuse is True


class TestPlannedGrid:
    @pytest.fixture(scope="class")
    def fused_grid(self):
        return run_grid(CFG, include_timings=False)

    def test_fused_equals_unfused_grid(self, fused_grid):
        unfused = run_grid(dataclasses.replace(CFG, fuse=False),
                           include_timings=False)
        assert fused_grid.table1.columns == unfused.table1.columns
        assert fused_grid.table2.columns == unfused.table2.columns
        assert fused_grid.ur_values == unfused.ur_values
        assert fused_grid.ur_abscissae == unfused.ur_abscissae

    def test_plan_coalesces_rrl_ur_duplicate(self, fused_grid):
        # Table 2's RR/RRL column and the UR sweep are the same solve:
        # the plan must report one coalesced request per model size.
        assert fused_grid.plan_summary is not None
        assert f"{len(CFG.groups)} coalesced" in fused_grid.plan_summary

    def test_plan_summary_in_json_dump(self, fused_grid):
        assert fused_grid.to_dict()["plan_summary"] \
            == fused_grid.plan_summary
