"""Public API surface: exports, version, the README quickstart and the
README's command lines."""

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import (
    ConvergenceError,
    InversionError,
    MeasureError,
    ModelError,
    ReproError,
    TruncationError,
)


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_solver_method_names_unique(self):
        from repro.solvers import registry
        tags = [registry.get_solver(m).method_name  # type: ignore[attr-defined]
                for m in registry.known_methods()]
        assert len(set(tags)) == len(tags)

    def test_markov_and_core_reexports_consistent(self):
        from repro.core import RRLSolver as core_rrl
        assert repro.RRLSolver is core_rrl

    @pytest.mark.parametrize("module, name", [
        ("repro.service", "to_dict"), ("repro.service", "from_dict"),
        ("repro.service", "dumps"), ("repro.service", "loads"),
        ("repro.service.protocol", "ctmc_to_dict"),
        ("repro.service.protocol", "ctmc_from_dict"),
        ("repro.laplace", "invert"),
        ("repro.batch", "solve_scenarios"),
        ("repro.laplace.error_control", "aliasing_error_bounded"),
        ("repro.laplace.error_control", "aliasing_error_cumulative"),
        ("repro.markov.ctmc:CTMC", "reachable_from"),
        ("repro.markov.ctmc:CTMC", "restricted_to"),
        ("repro.batch", "ensure_model_kernel"),
        ("repro.batch.kernel", "ensure_model_kernel"),
        ("repro.service.protocol", "rewards_to_dict"),
        ("repro.service.protocol", "rewards_from_dict"),
        ("repro.markov.rsd:SteadyStateDetectionSolver", "solve_fused"),
    ])
    def test_removed_names_are_gone(self, module, name):
        # 11.0.0: one wire form (scenario-backed requests, one codec
        # pair per type) and no wrappers over a call that stays public.
        # 12.0.0: no surface that no workload reaches.
        # 13.0.0: a cell is a scenario and a model owns its kernel.
        module, _, cls = module.partition(":")
        mod = importlib.import_module(module)
        if cls:
            mod = getattr(mod, cls)
        assert name not in getattr(mod, "__all__", ())
        assert not hasattr(mod, name)


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


class TestImports:
    def test_package_import_loads_no_numpy(self):
        # What lets ``python -m repro`` pin BLAS threads before numpy.
        proc = _fresh_python("import sys, repro; "
                             "assert 'numpy' not in sys.modules; "
                             "repro.CTMC; assert len(repro.cache_stats()) == 4")
        assert proc.returncode == 0, proc.stderr

    def test_registry_query_loads_no_ode_integrator(self):
        # The registry holds the four randomization solvers only, so
        # querying it never imports scipy's ODE integrators.
        proc = _fresh_python(
            "import sys\n"
            "from repro.solvers import registry\n"
            "methods = registry.known_methods()\n"
            "assert methods == ('RR', 'RRL', 'RSD', 'SR'), methods\n"
            "assert 'scipy.integrate' not in sys.modules\n")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", ["repro.batch.kernel",
                                        "repro.batch.planner", "repro.core",
                                        "repro.service"])
    def test_submodule_imports_first(self, module):
        # The kernel and the solver package import each other; whichever
        # a program imports first must load.
        proc = _fresh_python(f"import {module}")
        assert proc.returncode == 0, proc.stderr


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc", [ModelError, MeasureError,
                                     ConvergenceError, TruncationError,
                                     InversionError])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_convergence_error_payload(self):
        e = ConvergenceError("nope", iterations=5, residual=0.1)
        assert e.iterations == 5
        assert e.residual == 0.1

    def test_catch_all(self):
        from repro import CTMC
        with pytest.raises(ReproError):
            CTMC(np.zeros((2, 3)))


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro import CTMC, RewardStructure, TRR, RRLSolver
        model = CTMC(np.array([[-1.0, 1.0], [10.0, -10.0]]))
        rewards = RewardStructure.indicator(2, [1])
        sol = RRLSolver().solve(model, rewards, TRR,
                                times=[1.0, 1e3, 1e5], eps=1e-12)
        # Steady-state unavailability of the λ=1, μ=10 machine is 1/11.
        assert sol.values[-1] == pytest.approx(1.0 / 11.0, abs=1e-11)
        assert sol.steps.shape == (3,)

    def test_package_docstring_value(self):
        # The __init__ docstring promises UA(100) ≈ 0.090909.
        from repro import CTMC, RewardStructure, TRR, RRLSolver
        model = CTMC(np.array([[-1.0, 1.0], [10.0, -10.0]]))
        rewards = RewardStructure.indicator(2, [1])
        sol = RRLSolver().solve(model, rewards, TRR, [100.0], eps=1e-10)
        assert round(sol.values[0], 6) == 0.090909


README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines(text: str) -> list[list[str]]:
    """The arguments of every ``python -m repro …`` command in ``text``
    (continuation lines joined, ``#`` comments dropped); a bare mention
    of ``python -m repro`` names no command and is skipped."""
    text = re.sub(r"\\\n\s*", " ", text)
    found = []
    for match in re.finditer(r"python -m repro\b([^`\n]*)", text):
        argv = shlex.split(match.group(1), comments=True)
        if argv:
            found.append(argv)
    return found


def _documented_commands() -> list[tuple[str, ...]]:
    """The distinct commands shown by README.md and the ``repro.cli``
    docstring."""
    import repro.cli

    return list(dict.fromkeys(
        tuple(argv) for argv in _cli_lines(README.read_text(encoding="utf-8"))
        + _cli_lines(repro.cli.__doc__)))


class TestReadmeCommands:
    """The docs may only show commands the CLI still has."""

    def test_finds_the_documented_commands(self):
        commands = {" ".join(argv[:2]) for argv in _documented_commands()}
        assert {"solvers list", "batch submit", "batch run",
                "batch status", "batch collect"} <= commands

    @pytest.mark.parametrize("argv", _documented_commands(), ids=" ".join)
    def test_readme_command_parses(self, argv):
        from repro.cli import build_parser

        build_parser().parse_args(list(argv))  # SystemExit(2) on drift

    def test_a_removed_command_is_caught(self, capsys):
        from repro.cli import build_parser

        (argv,) = _cli_lines("run `python -m repro solve --groups 4`")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        capsys.readouterr()
