"""Command-line scripts under ``scripts/``: start-up behaviour that the
library's own tests cannot see."""

import argparse
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import GridResult, StepTable

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

#: Records the native thread-pool variables at the moment numpy is first
#: imported, then runs ``run_paper_grid.py --help`` (which exits after its
#: imports, before any solving), or ``python -m repro --help`` when
#: ``sys.argv_script`` is ``None``.
_PROBE = """
import importlib.abc, json, os, runpy, sys

VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
seen = {}

class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({v: os.environ.get(v) for v in VARS})
        return None

assert "numpy" not in sys.modules
sys.meta_path.insert(0, Probe())
try:
    if sys.argv_script is None:
        sys.argv = ["repro", "--help"]
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    else:
        sys.argv = ["run_paper_grid.py", "--help"]
        runpy.run_path(sys.argv_script, run_name="__main__")
except SystemExit:
    pass
print(json.dumps(seen))
"""


def _threads_when_numpy_loads(script: str | None) -> dict:
    """The probe's record for ``script`` (``None``: ``python -m repro``),
    started with a caller environment that asks for 4 threads."""
    env = dict(os.environ, OMP_NUM_THREADS="4", OPENBLAS_NUM_THREADS="4",
               MKL_NUM_THREADS="4")
    src = str(SCRIPTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys; sys.argv_script = {script!r}" + _PROBE
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_paper_grid_pins_blas_before_numpy_loads():
    # Serial and pooled runs must share one BLAS thread count (it can move
    # output bits), and N pool workers must not each start a multi-threaded
    # BLAS pool. So the pin has to win over the caller's environment and
    # be in place before numpy is imported.
    seen = _threads_when_numpy_loads(str(SCRIPTS / "run_paper_grid.py"))
    assert seen == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


def test_cli_pins_blas_before_numpy_loads():
    # ``python -m repro batch run --workers N`` fans out a process pool
    # too; ``import repro`` loads no numpy, so ``repro.__main__`` pins
    # first.
    seen = _threads_when_numpy_loads(None)
    assert seen == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


def _load_paper_grid_script(monkeypatch):
    """``run_paper_grid.py`` as a module. It pins the thread-pool
    variables on import; ``monkeypatch`` restores them afterwards."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(
        "run_paper_grid", SCRIPTS / "run_paper_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_compares_ur_abscissae(monkeypatch):
    # Two grids that differ only in one abscissa count are not the same
    # reproduction: --verify must reject them.
    script = _load_paper_grid_script(monkeypatch)
    table = StepTable(title="t", times=(1.0,), columns={"G=2 RSD": [27]})
    grid = GridResult(table1=table, table2=table,
                      ur_values={2: [0.5, 0.7]},
                      ur_abscissae={2: [33, 62]})
    script._assert_grids_equal(grid, dataclasses.replace(grid), "same")
    drifted = dataclasses.replace(grid, ur_abscissae={2: [33, 63]})
    with pytest.raises(AssertionError, match="abscissa"):
        script._assert_grids_equal(grid, drifted, "drifted")


def test_paper_grid_pool_shape_is_workers_alone(monkeypatch):
    # --serial forces workers=1 (inline); there is no backend to pick.
    script = _load_paper_grid_script(monkeypatch)
    with pytest.raises(SystemExit):
        script.main(["--quick", "--backend", "serial"])
    args = argparse.Namespace(quick=True, serial=True, workers=4)
    assert script.make_config(args).service().workers == 1
    args.serial = False
    assert script.make_config(args).service().workers == 4
