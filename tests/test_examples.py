"""Smoke-run every example script (reduced sizes via REPRO_G).

Examples are part of the public surface: they must keep executing
end-to-end and printing their headline lines as the library evolves.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, monkeypatch, capsys, g: str | None = "4",
                argv: list[str] | None = None) -> str:
    if g is not None:
        monkeypatch.setenv("REPRO_G", g)
    monkeypatch.setattr(sys, "argv", [name] + (argv or []))
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = run_example("quickstart.py", monkeypatch, capsys, g=None)
    assert "UA(t)" in out and "MRR(t)" in out
    assert "np.int64(" not in out
    # Every method reports both measures, each within the script's ε.
    eps = runpy.run_path(str(EXAMPLES / "quickstart.py"))["EPS"]
    errors = [float(line.split("=")[1].split()[0])
              for line in out.splitlines() if "max|err|" in line]
    assert len(errors) == 2 * 4
    assert all(err <= eps for err in errors)


def test_raid5_unreliability(monkeypatch, capsys):
    out = run_example("raid5_unreliability.py", monkeypatch, capsys)
    assert "UR(t)" in out and "abscissae" in out


def test_raid5_availability(monkeypatch, capsys):
    out = run_example("raid5_availability.py", monkeypatch, capsys)
    assert "steady-state unavailability" in out
    assert "RSD steps" in out


def test_performability(monkeypatch, capsys):
    out = run_example("performability.py", monkeypatch, capsys)
    assert "Expected throughput" in out
    # The cross-check line reports the deviation vs SR.
    dev_line = [ln for ln in out.splitlines() if "max deviation" in ln][0]
    assert "e-" in dev_line


def test_custom_model(monkeypatch, capsys):
    out = run_example("custom_model.py", monkeypatch, capsys, g=None)
    assert "regenerative" in out.lower()
    assert "hub" in out


@pytest.mark.slow
def test_bounds_and_diagnostics(monkeypatch, capsys):
    # This one builds a G=8 model and runs four bound inversions; it is
    # the slowest example (~30 s) and marked accordingly.
    out = run_example("bounds_and_diagnostics.py", monkeypatch, capsys,
                      g=None)
    assert "Certified bounds" in out
    assert "MTTF" in out


def test_multiprocessor(monkeypatch, capsys):
    out = run_example("multiprocessor.py", monkeypatch, capsys, g=None)
    assert "coverage" in out and "MTTF" in out
    assert "FAIL" not in out
