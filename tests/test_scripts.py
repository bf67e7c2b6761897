"""The experiment scripts run end to end on small inputs."""

import json
import runpy
import sys
from pathlib import Path

from fkhomog.rotation import EffectiveTable

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_depinning_sweep_script(tmp_path, monkeypatch):
    run_script(monkeypatch, "run_depinning_sweep.py", "--L-max", 0.5,
               "--out", tmp_path)
    table = EffectiveTable.from_csv((tmp_path / "depinning_table.csv").read_text())
    assert table.L_grid.tolist() == [0.0, 0.25, 0.5]
    assert table.converged.all()


def test_depinning_sweep_script_keeps_the_last_drive(tmp_path, monkeypatch):
    """0.3 / 0.1 rounds a hair below 3, and the drive 3 * 0.1 stays in."""
    run_script(monkeypatch, "run_depinning_sweep.py", "--L-max", 0.3,
               "--L-step", 0.1, "--out", tmp_path)
    table = EffectiveTable.from_csv((tmp_path / "depinning_table.csv").read_text())
    assert table.L_grid.tolist() == [0.0, 0.1, 0.2, 3 * 0.1]


def test_convergence_study_script(tmp_path, monkeypatch):
    run_script(monkeypatch, "run_convergence_study.py", "--levels", 2,
               "--out", tmp_path)
    report = json.loads((tmp_path / "convergence.json").read_text())
    assert len(report["error"]) == 2 and len(report["rate"]) == 1
    EffectiveTable.from_csv((tmp_path / "effective_table.csv").read_text())
