"""The refactor gate: every CLI command on the README example config writes
the same bytes as before.

Each command runs in its own output directory on a pinned initial profile
(the slope-ripple profile of ``scripts/run_convergence_study.py``, 513
samples).  The sha256 of every file written and of stdout is compared with
digests recorded before the one-drive refactor of ``fkhomog.model``, except
those of ``hull``, re-recorded when the command began to continue the
certified run instead of marching a second one, and those of every command
whose outputs read a classical ring march (all but ``check`` and
``simulate``'s ``trajectory.csv``), re-recorded when the classical Euler step
became one fused affine step, which moves ring values at the 1e-13 level.
A change that is meant to alter outputs re-records them from the failing
assertion (``pytest -vv`` prints every digest).
"""

import hashlib
import json
import math

import pytest

from fkhomog import cli
from fkhomog.macro import Profile

COMMANDS = ("check", "simulate", "effham", "hull", "homogenize", "converge",
            "pipeline")

README_CONFIG = {
    "model": {"m0": 0.025, "force": {"kind": "classical_fk", "theta": [1.0],
                                     "amplitude": 1.0, "drive": 0.0}},
    "simulate": {"p": [1, 1], "cells": 4, "T": 50.0, "sample_dt": 0.5},
    "effham": {"p_grid": [[1, 1]], "L_grid": [0.0, 0.5, 1.0, 1.5, 2.0],
               "tol": 2e-3},
    "hull": {"p": [1, 1], "L": 2.0, "Z": 32, "snapshots": 400},
    "homogenize": {"u0_file": "u0.csv", "T": 1.0, "dx": 0.05, "L": 2.0},
    "converge": {"u0_file": "u0.csv", "eps_list": [0.1, 0.05, 0.025],
                 "T": 1.0, "window": [-5.0, 5.0], "L": 2.0},
    "seed": 0,
    "out_dir": "out",
}

# command: [exit code, {file relative to its output directory: sha256}],
# with stdout under the key "<stdout>"
EXPECTED = {
    "check": [0, {
        "<stdout>":
            "c4ca6805c6b40bf435caf32dd4bde1db999fbac9e0a1feedd501616a082fddf9",
        "assumptions.json":
            "47144ddc1a2e74c74a169f609aeba5b53a6bea4886c2df0a2064aaa31d836af0",
    }],
    "simulate": [0, {
        "<stdout>":
            "257814586049daf5d97652c5003bd2cc1992682db30a5ab78596c0721413b3c6",
        "final_snapshot.csv":
            "c0ca29d48c1ca8de074bb7bd3a76c949624d754bf9f31c4ffdaeb48c6a26ce1d",
        "invariants.json":
            "b2912a64f890fcc230ff5505af09cc6bdeb8046076dedc56472c8b4c759f5574",
        "trajectory.csv":
            "b593458c18505336bdf3dd474b0fe2f7a7407260295d2867475ea556f8f97e9e",
    }],
    "effham": [0, {
        "<stdout>":
            "7229de38006e1f8e65242b2b962a0d52e8b103cf5ec8b43a79bd4d958a497f24",
        "effective_table.csv":
            "f08a14d3cf70da130720075795ab1f42feeed87ec59c5077c8aae57406a82e11",
        "effective_table.json":
            "0d627d4d470377fcf719845d5c477139e2b942f8b4d82aced0877b3996d9b1e5",
    }],
    "hull": [0, {
        "<stdout>":
            "9ed0526972d5bc61cadf7ad991eba8baae54b5dc647955cb11e853b5ce1adbb8",
        "hull.csv":
            "337ed3a1838c877d0855e0d50910e5c41b21f5dcde6538ed229705bf19acd7a0",
        "hull.json":
            "3234c5cd92d33152c2b59b1a201f89227766dd187b59458839440ddb13217525",
        "hull_axioms.json":
            "67648c48e81d3bc1270e1c160cf5c76dd2206a3175a5bf4eda40af0a2dcc80ba",
    }],
    "homogenize": [0, {
        "<stdout>":
            "295f0b6cfdb9577f1bcdc7fa94c11acae824b74f4d6b30d63f049b40c5b4941e",
        "macro.csv":
            "ea2e39d7f281bf173498415bcedf86a0677b20188911e4913fcc73bd23f84a5f",
    }],
    "converge": [0, {
        "<stdout>":
            "171a943be55dae39598f12a1fd70721e9ccde8b1d5ac7e9121c68749a2f29fed",
        "convergence.json":
            "70481d2b61c7452641d136202b69db57441158f824e23d10402d544fd92a9e7f",
    }],
    "pipeline": [0, {
        "<stdout>":
            "25528f83bc4f8a915ecc8a9846f2dcd72619b1cf98f818b8212b320125ed1d11",
        "cache/converge-3d88df23f7263a51.txt":
            "70481d2b61c7452641d136202b69db57441158f824e23d10402d544fd92a9e7f",
        "cache/effham-09b21a60117d743d.txt":
            "f08a14d3cf70da130720075795ab1f42feeed87ec59c5077c8aae57406a82e11",
        "convergence.json":
            "70481d2b61c7452641d136202b69db57441158f824e23d10402d544fd92a9e7f",
        "effective_table.csv":
            "f08a14d3cf70da130720075795ab1f42feeed87ec59c5077c8aae57406a82e11",
        "macro.csv":
            "ea2e39d7f281bf173498415bcedf86a0677b20188911e4913fcc73bd23f84a5f",
    }],
}


# the README table holds p = 1 only, so the ripple's slopes extrapolate
@pytest.mark.filterwarnings("ignore:Hamiltonian table does not cover")
def test_readme_config_outputs_are_byte_identical(tmp_path, capsys):
    width = 10.0
    ripple = Profile.from_callable(
        lambda x: x + 0.18 * math.sin(2 * math.pi * x / width) * width / (2 * math.pi),
        -5.0, 5.0, 513)
    u0 = tmp_path / "u0.csv"
    u0.write_text(ripple.to_csv())
    cfg = json.loads(json.dumps(README_CONFIG))
    for blk in ("homogenize", "converge"):
        cfg[blk]["u0_file"] = str(u0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    for command in COMMANDS:
        out = tmp_path / command
        rc = cli.main([command, "--config", str(path), "--out", str(out)])
        files = {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
                 for f in sorted(out.rglob("*")) if f.is_file()}
        files["<stdout>"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert [rc, files] == EXPECTED[command], command
    # the hull is read from exactly the snapshots the config asks for
    header = json.loads((tmp_path / "hull" / "hull.json").read_text())
    assert header["diagnostics"]["snapshots_used"] == README_CONFIG["hull"]["snapshots"]
