"""Markov-chain substrate: CTMC/DTMC containers, randomization solvers,
Poisson (Fox–Glynn) machinery, steady-state solvers and baselines.

The solvers in this subpackage are the *comparators* used in the paper's
evaluation (standard randomization ``SR``, randomization with steady-state
detection ``RSD``) plus supporting numerics. The paper's own contribution
lives in :mod:`repro.core`.
"""

from repro.markov.ctmc import CTMC
from repro.markov.dtmc import DTMC
from repro.markov.rewards import RewardStructure, Measure, TRR, MRR
from repro.markov.poisson import (
    FoxGlynnWindow,
    fox_glynn,
    poisson_sf,
    poisson_right_quantile,
    poisson_expected_excess,
)
from repro.markov.standard import StandardRandomizationSolver
from repro.markov.rsd import SteadyStateDetectionSolver
from repro.markov.steady_state import stationary_distribution
from repro.markov.mttf import AbsorptionTime, mean_time_to_absorption

__all__ = [
    "CTMC",
    "DTMC",
    "RewardStructure",
    "Measure",
    "TRR",
    "MRR",
    "FoxGlynnWindow",
    "fox_glynn",
    "poisson_sf",
    "poisson_right_quantile",
    "poisson_expected_excess",
    "StandardRandomizationSolver",
    "SteadyStateDetectionSolver",
    "stationary_distribution",
    "AbsorptionTime",
    "mean_time_to_absorption",
]
