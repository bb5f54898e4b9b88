"""High-level analysis API and the paper-experiment harness."""

from repro.analysis.runner import solve, get_solver
from repro.analysis.reporting import format_table, format_series
from repro.analysis.convergence import (
    DecayFit,
    excursion_decay,
    predict_truncation,
    compare_regenerative_states,
)
from repro.analysis.validation import ValidationReport, cross_validate
from repro.analysis.experiments import (
    ExperimentConfig,
    GridResult,
    StepTable,
    TimingTable,
    run_grid,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_UR_1E5,
)

__all__ = [
    "solve",
    "get_solver",
    "DecayFit",
    "excursion_decay",
    "predict_truncation",
    "compare_regenerative_states",
    "ValidationReport",
    "cross_validate",
    "format_table",
    "format_series",
    "ExperimentConfig",
    "GridResult",
    "StepTable",
    "TimingTable",
    "run_grid",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_UR_1E5",
]
