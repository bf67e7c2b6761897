"""The refactor gate: every CLI command on the README example config writes
the same bytes as before.

Each command runs in its own output directory on a pinned initial profile
(the slope-ripple profile of ``scripts/run_convergence_study.py``, 513
samples).  The sha256 of every file written and of stdout is compared with
digests recorded before the one-drive refactor of ``fkhomog.model``, except
those of ``hull``, re-recorded when the command began to continue the
certified run instead of marching a second one.  A change that is meant to
alter outputs re-records them from the failing assertion (``pytest -vv``
prints every digest).
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
            "9b080bb9a78709048615736412f1e99b95fca66c3cbe7f6c5ee48b4e4543789d",
        "final_snapshot.csv":
            "d5bc841ae0a98e88b9f90e84ce92fe94ddf5dd7426d1b8ddff6e11b29a1e3376",
        "invariants.json":
            "acd0cd8bafba09ccdb19e627a806e3a363c3d0caca3b65813c14abccd753b89f",
        "trajectory.csv":
            "b593458c18505336bdf3dd474b0fe2f7a7407260295d2867475ea556f8f97e9e",
    }],
    "effham": [0, {
        "<stdout>":
            "7229de38006e1f8e65242b2b962a0d52e8b103cf5ec8b43a79bd4d958a497f24",
        "effective_table.csv":
            "ebd88be86441389c3fc98f504771c85b186aa8ef52046ad82c3098adefd3ba8f",
        "effective_table.json":
            "f0d45eedeb2cde46ab6ec7fe7efb901fe748300af8828616b75553cafd8ed17b",
    }],
    "hull": [0, {
        "<stdout>":
            "20f1b645c41d007f42becf1b920018f07d396e72f28b8ad7d1c1ae8af5222624",
        "hull.csv":
            "7c31cde7ad744e1b3e567deca1bf3dfa3fbd8c9ed629fb6a51552efbf9f71b02",
        "hull.json":
            "6022b0d109e48e493c7ae4e24e79cafb14fb6dc970a4e915e7e5405cc71b027e",
        "hull_axioms.json":
            "2dc5b2b632f5396c7dfb1f36d746bfc2a97973a3e4be6e2cc93b1a042cf2cc4c",
    }],
    "homogenize": [0, {
        "<stdout>":
            "daa82a72e4dbbf6c440f7ec37625eb13796e9b30ab42e64e282920a5dcdfce78",
        "macro.csv":
            "c980814b3e1d927cf7cfc9f5447befe9d18625c29ea3b357ff0304fb952fb66f",
    }],
    "converge": [0, {
        "<stdout>":
            "6b1cc2286965325daa5a5479f1b2857b94b4df069a10e4e179456100fb32d1fb",
        "convergence.json":
            "d9184ff0f64185b8f18b98e5648d77788af56a27cc97fc822e09f73578e99f55",
    }],
    "pipeline": [0, {
        "<stdout>":
            "4ce2711840c71a4672b144f91a58efeb6e31205bb9e41d27743c292f3fbd9645",
        "cache/converge-427ebf1b31a43466.txt":
            "d9184ff0f64185b8f18b98e5648d77788af56a27cc97fc822e09f73578e99f55",
        "cache/effham-09b21a60117d743d.txt":
            "ebd88be86441389c3fc98f504771c85b186aa8ef52046ad82c3098adefd3ba8f",
        "convergence.json":
            "d9184ff0f64185b8f18b98e5648d77788af56a27cc97fc822e09f73578e99f55",
        "effective_table.csv":
            "ebd88be86441389c3fc98f504771c85b186aa8ef52046ad82c3098adefd3ba8f",
        "macro.csv":
            "c980814b3e1d927cf7cfc9f5447befe9d18625c29ea3b357ff0304fb952fb66f",
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
