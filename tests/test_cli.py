"""CLI subcommands: validation, determinism, caching, exit codes."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fkhomog import cli
from fkhomog.macro import Profile


def base_model(m0=None, A=1.0, L=0.0):
    if m0 is None:
        m0 = 1.0 / (2.0 * (4.0 + 4.0 * math.pi) * 1.2)
    return {"m0": m0, "force": {"kind": "classical_fk", "theta": [1.0],
                                "amplitude": A, "drive": L}}


def write_config(tmp_path: Path, cfg: dict, name="cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run_cli(tmp_path, cfg, command, extra=()):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    return cli.main([command, "--config", path, "--out", str(out), *extra]), out


def test_check_valid_model_exits_zero(tmp_path, capsys):
    rc, out = run_cli(tmp_path, {"model": base_model()}, "check")
    assert rc == 0
    report = json.loads((out / "assumptions.json").read_text())
    assert report["core_holds"] is True
    assert "critical_mass" in capsys.readouterr().out


def test_check_heavy_mass_exits_nonzero(tmp_path):
    rc, out = run_cli(tmp_path, {"model": base_model(m0=0.05)}, "check")
    assert rc == cli.EXIT_VALIDATION
    report = json.loads((out / "assumptions.json").read_text())
    assert report["a3"]["holds"] is False
    assert report["a3"]["witness"] is not None


def test_check_a6_advisory_between_thresholds(tmp_path, capsys):
    # theta = (1, 2): a1-a5 need alpha0 >= 6 + 4 pi, a6 needs >= 8 + 4 pi
    alpha0 = 7.0 + 4.0 * math.pi
    cfg = {"model": {"alpha0": alpha0,
                     "force": {"kind": "classical_fk", "theta": [1.0, 2.0],
                               "amplitude": 1.0, "drive": 0.0}}}
    rc, out = run_cli(tmp_path, cfg, "check")
    assert rc == 0
    report = json.loads((out / "assumptions.json").read_text())
    assert report["core_holds"] and not report["a6"]["holds"]
    assert "advisory" in capsys.readouterr().out


def test_simulate_writes_outputs(tmp_path):
    cfg = {"model": base_model(),
           "simulate": {"p": [1, 1], "cells": 4, "T": 5.0, "sample_dt": 0.5}}
    rc, out = run_cli(tmp_path, cfg, "simulate")
    assert rc == 0
    assert (out / "trajectory.csv").read_text().startswith("tau,j,U_j,Xi_j")
    assert (out / "final_snapshot.csv").read_text().startswith("i,U,Xi")
    inv = json.loads((out / "invariants.json").read_text())
    assert inv["ordering_violation"] == 0.0


@pytest.mark.parametrize("a0", [1.0, 3.0])
def test_simulate_gap_bound_is_that_of_the_run(tmp_path, a0):
    """invariants.json bounds |U - Xi| with the ledger of the dynamics that
    ran, delta term included, not with the delta = 0 ledger."""
    from fkhomog import model as mdl
    cfg = {"model": {"m0": 0.025, "force": {"kind": "classical_fk", "theta": [1.0]}},
           "simulate": {"p": [1, 1], "cells": 2, "T": 2.0, "sample_dt": 0.5,
                        "delta": 0.5, "a0": a0}}
    rc, out = run_cli(tmp_path, cfg, "simulate")
    assert rc == 0
    model = mdl.model_from_config(cfg["model"])
    ledger = mdl.constants_ledger(model, p=1.0, delta=0.5, a0=a0)
    undelta = mdl.constants_ledger(model, p=1.0)
    inv = json.loads((out / "invariants.json").read_text())
    assert inv["gap_bound"] == ledger.C4 / model.alpha0
    assert inv["gap_bound"] > undelta.C4 / model.alpha0


def test_effham_linear_chain_single_row(tmp_path, capsys):
    cfg = {"model": base_model(A=0.0),
           "effham": {"p_grid": [[1, 1]], "L_grid": [0.8], "tol": 1e-3,
                      "T_cap": 2000.0}}
    rc, out = run_cli(tmp_path, cfg, "effham")
    assert rc == 0
    lines = (out / "effective_table.csv").read_text().strip().splitlines()
    assert lines[0] == "L,p,lambda,halfwidth,converged"
    L, p, lam, hw, conv = lines[1].split(",")
    assert p == "1/1" and abs(float(lam) - 0.8) < 1e-8 and conv == "1"
    assert "monotonicity in L" in capsys.readouterr().out


def test_constant_force_takes_the_config_drive(tmp_path):
    """force.drive drives the constant kind as it does the classical one:
    F = 0.5 driven by 1.0 travels at lambda = 1.5."""
    cfg = {"model": {"m0": 0.05, "force": {"kind": "constant", "value": 0.5,
                                           "drive": 1.0}},
           "effham": {"p_grid": [[1, 1]], "L_grid": [0.0], "tol": 1e-3}}
    rc, out = run_cli(tmp_path, cfg, "effham")
    assert rc == 0
    lam = float((out / "effective_table.csv").read_text().splitlines()[1].split(",")[2])
    assert abs(lam - 1.5) < 1e-8


def test_effham_partial_exit_when_tol_unreachable(tmp_path):
    cfg = {"model": base_model(A=0.0),
           "effham": {"p_grid": [[1, 1]], "L_grid": [0.8], "tol": 1e-12,
                      "T_cap": 8.0}}
    rc, _ = run_cli(tmp_path, cfg, "effham")
    assert rc == cli.EXIT_PARTIAL


def test_effham_rerun_byte_identical(tmp_path):
    cfg = {"model": base_model(),
           "effham": {"p_grid": [[1, 1], [1, 2]], "L_grid": [0.0, 2.0],
                      "tol": 2e-3}}
    rc1, out = run_cli(tmp_path, cfg, "effham")
    text1 = (out / "effective_table.csv").read_bytes()
    rc2, out = run_cli(tmp_path, cfg, "effham")
    text2 = (out / "effective_table.csv").read_bytes()
    assert rc1 == rc2 == 0
    assert text1 == text2


def test_effham_threads_do_not_change_bytes(tmp_path):
    cfg = {"model": base_model(),
           "effham": {"p_grid": [[1, 1], [1, 2]], "L_grid": [0.0, 2.0],
                      "tol": 2e-3}}
    _, out1 = run_cli(tmp_path, cfg, "effham", extra=["--threads", "1"])
    t1 = (out1 / "effective_table.csv").read_bytes()
    _, out2 = run_cli(tmp_path, cfg, "effham", extra=["--threads", "4"])
    t2 = (out2 / "effective_table.csv").read_bytes()
    assert t1 == t2


def test_hull_command(tmp_path):
    cfg = {"model": base_model(),
           "hull": {"p": [1, 1], "L": 2.0, "Z": 16, "snapshots": 400,
                    "tol": 2e-3}}
    rc, out = run_cli(tmp_path, cfg, "hull")
    assert rc == 0
    header = json.loads((out / "hull.json").read_text())
    assert header["p"] == "1/1"
    assert (out / "hull.csv").read_text().startswith("j,z,h,g")
    axioms = json.loads((out / "hull_axioms.json").read_text())
    assert axioms["monotone_ok"] and axioms["ordering_ok"]


def test_hull_exits_partial_on_an_unconverged_lambda(tmp_path, capsys):
    """A rotation number that hits T_cap before tol is named, the files are
    still written, and the command exits 4 as effham does."""
    cfg = {"model": {"m0": 0.025, "force": {"kind": "classical_fk", "theta": [1.0]}},
           "hull": {"p": [1, 1], "L": 2.0, "Z": 32, "snapshots": 400, "tol": 1e-6,
                    "T_cap": 500.0}}
    rc, out = run_cli(tmp_path, cfg, "hull")
    assert rc == cli.EXIT_PARTIAL
    assert "lambda hit T_cap before tol (T = 409.6)" in capsys.readouterr().out
    assert json.loads((out / "hull_axioms.json").read_text())["monotone_ok"]
    assert (out / "hull.csv").exists() and (out / "hull.json").exists()


def test_hull_refuses_a_tau_dependent_force_before_simulating(tmp_path, capsys,
                                                              monkeypatch):
    from fkhomog import rotation

    def never(*args, **kw):
        raise AssertionError("rotation_number ran")

    monkeypatch.setattr(rotation, "rotation_number", never)
    cfg = {"model": {"m0": 0.05, "force": {"kind": "constant", "value": 0.5}},
           "hull": {"p": [1, 1], "Z": 16}}
    rc, _ = run_cli(tmp_path, cfg, "hull")
    assert rc == cli.EXIT_VALIDATION
    assert "config.model.force.kind" in capsys.readouterr().err


def _pipeline_cfg(tmp_path):
    u0 = Profile.linear(1.0, -5.0, 5.0)
    u0_path = tmp_path / "u0.csv"
    u0_path.write_text(u0.to_csv())
    return {
        "model": base_model(A=0.0),
        "effham": {"p_grid": [[4, 5], [1, 1], [5, 4]], "L_grid": [0.5],
                   "tol": 1e-4, "T_cap": 500.0},
        "homogenize": {"u0_file": str(u0_path), "T": 1.0, "dx": 0.05, "L": 0.5},
        "converge": {"u0_file": str(u0_path), "eps_list": [0.1, 0.05], "T": 1.0,
                     "window": [-5.0, 5.0], "L": 0.5},
        "seed": 0,
    }


@pytest.mark.parametrize("command", ["check", "pipeline"])
def test_output_path_that_is_a_file_exits_validation(tmp_path, capsys, command):
    cfg = _pipeline_cfg(tmp_path)
    (tmp_path / "out").write_text("")
    rc, out = run_cli(tmp_path, cfg, command)
    assert rc == cli.EXIT_VALIDATION
    assert f"output directory {out}" in capsys.readouterr().err


def test_pipeline_linear_chain(tmp_path, capsys):
    cfg = _pipeline_cfg(tmp_path)
    rc, out = run_cli(tmp_path, cfg, "pipeline")
    assert rc == 0
    report = json.loads((out / "convergence.json").read_text())
    # quantization-dominated: errors <= (p + 1) eps
    for eps, err in zip(report["eps"], report["error"]):
        assert err <= (1.0 + 1.0) * eps
    assert (out / "macro.csv").exists()
    assert (out / "effective_table.csv").exists()


def test_pipeline_rerun_hits_cache(tmp_path, capsys):
    cfg = _pipeline_cfg(tmp_path)
    rc1, out = run_cli(tmp_path, cfg, "pipeline")
    capsys.readouterr()
    rc2, out = run_cli(tmp_path, cfg, "pipeline")
    log = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert "[cache] hit effham" in log
    assert "[cache] hit converge" in log


def test_homogenize_from_table_file(tmp_path):
    cfg = _pipeline_cfg(tmp_path)
    rc, out = run_cli(tmp_path, cfg, "pipeline")
    table_path = out / "effective_table.csv"
    cfg2 = dict(cfg)
    cfg2["homogenize"] = dict(cfg["homogenize"], table_file=str(table_path))
    del cfg2["effham"], cfg2["converge"]
    rc2, out2 = run_cli(tmp_path, cfg2, "homogenize")
    assert rc2 == 0
    assert (out2 / "macro.csv").read_text().startswith("t,x,u")


def test_pipeline_two_types_uses_table_in_particle_slopes(tmp_path):
    """The table slope counts cells of n particles; homogenize must compose
    H with n like the eps study does, or it extrapolates off the table."""
    from fkhomog.macro import HamiltonianInterp, solve_hj
    from fkhomog.rotation import EffectiveTable
    u0 = Profile.from_callable(lambda x: x + 0.18 * (10 / (2 * math.pi))
                               * math.sin(2 * math.pi * x / 10), -5.0, 5.0, 101)
    u0_path = tmp_path / "u0.csv"
    u0_path.write_text(u0.to_csv())
    alpha0 = 1.2 * (2 * 1.6 + 4 * math.pi * 0.5)
    cfg = {
        "model": {"alpha0": alpha0, "force": {"kind": "classical_fk", "theta": [1.0, 0.6],
                                              "amplitude": 0.5, "drive": 0.0}},
        "effham": {"p_grid": [[8, 5], [2, 1], [5, 2]], "L_grid": [2.0],
                   "tol": 1e-2, "T_cap": 200.0},
        "homogenize": {"u0_file": str(u0_path), "T": 0.5, "dx": 0.1, "L": 2.0},
        "converge": {"u0_file": str(u0_path), "eps_list": [0.1], "T": 0.5,
                     "window": [-5.0, 5.0], "L": 2.0},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = run_cli(tmp_path, cfg, "pipeline")
    assert rc == 0
    assert not [w for w in caught if "does not cover" in str(w.message)]
    table = EffectiveTable.from_csv((out / "effective_table.csv").read_text())
    H = HamiltonianInterp.from_table(table, 2.0).scaled(2)
    want = solve_hj(H, u0, 0.5, 0.1, record_times=[0.5])
    assert (out / "macro.csv").read_text() == want.to_csv()


def test_homogenize_rejects_nan_table_entry(tmp_path, capsys):
    cfg = _pipeline_cfg(tmp_path)
    table = tmp_path / "table.csv"
    table.write_text("L,p,lambda,halfwidth,converged\n"
                     "0.5,4/5,0.4,0.001,1\n0.5,1/1,nan,nan,0\n0.5,5/4,0.6,0.001,1\n")
    cfg["homogenize"]["table_file"] = str(table)
    rc, out = run_cli(tmp_path, cfg, "homogenize")
    assert rc == cli.EXIT_VALIDATION
    assert "finite" in capsys.readouterr().err
    assert not (out / "macro.csv").exists()


def _rippled_cfg(tmp_path):
    """A pinned chain and a profile with slopes in [0.82, 1.18], so H reads
    several nodes; T_cap 4 leaves every table entry unconverged."""
    u0 = Profile.from_callable(lambda x: x + 0.18 * (10 / (2 * math.pi))
                               * math.sin(2 * math.pi * x / 10), -5.0, 5.0, 101)
    u0_path = tmp_path / "u0.csv"
    u0_path.write_text(u0.to_csv())
    return {
        "model": base_model(),
        "effham": {"p_grid": [[4, 5], [1, 1], [5, 4], [2, 1]], "L_grid": [2.0],
                   "tol": 2e-3, "T_cap": 4.0},
        "homogenize": {"u0_file": str(u0_path), "T": 0.5, "dx": 0.1, "L": 2.0},
        "converge": {"u0_file": str(u0_path), "eps_list": [0.1], "T": 0.2,
                     "window": [-5.0, 5.0], "L": 2.0},
    }


@pytest.mark.parametrize("command", ["homogenize", "converge", "pipeline"])
def test_unconverged_table_nodes_read_exit_partial(tmp_path, capsys, command):
    """Entries that hit T_cap and that H(n q) reads on [1/K0, K0] (the nodes
    inside and the nearest node beyond each end) are named, the output is
    still written and the exit is 4, from a cache hit too; pipeline runs on
    to converge."""
    cfg = _rippled_cfg(tmp_path)
    rc, out = run_cli(tmp_path, cfg, command)
    assert rc == cli.EXIT_PARTIAL
    written = {"homogenize": ["macro.csv"], "converge": ["convergence.json"],
               "pipeline": ["macro.csv", "convergence.json"]}[command]
    if "macro.csv" in written:
        assert (out / "macro.csv").read_text().startswith("t,x,u")
    if "convergence.json" in written:
        report = json.loads((out / "convergence.json").read_text())
        assert report["error"] and len(report["rate"]) == len(report["error"]) - 1
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "T_cap" in ln]
    # slopes [0.82, 1.22]: 4/5 and 5/4 are the nearest nodes beyond, 2 is unread
    assert len(lines) == len(written)
    assert all(ln.endswith("hit T_cap before tol: L = 2.0, p = 4/5, 1, 5/4")
               for ln in lines)
    if command == "pipeline":
        rc, out = run_cli(tmp_path, cfg, command)
        log = capsys.readouterr().out
        assert rc == cli.EXIT_PARTIAL
        assert "[cache] hit converge" in log
        assert log.splitlines()[-1] == lines[-1]


@pytest.mark.parametrize("edit", [("2.0,", "nan,"), (",1/1,", ",1/0,")],
                         ids=["nan_L", "zero_denominator"])
def test_table_file_with_bad_row_exits_validation(tmp_path, capsys, edit):
    """A table at a non-finite drive, or with a zero denominator, exits 2
    naming the file; a NaN drive is never picked as the nearest slice."""
    cfg = _pipeline_cfg(tmp_path)
    table = tmp_path / "table.csv"
    # one column: each NaN parses as a drive of its own, so one NaN row fills it
    table.write_text("L,p,lambda,halfwidth,converged\n"
                     "0.5,1/1,0.5,0.001,1\n2.0,1/1,2.0,0.001,1\n".replace(*edit))
    cfg["homogenize"].update(table_file=str(table), L=2.0)
    rc, out = run_cli(tmp_path, cfg, "homogenize")
    assert rc == cli.EXIT_VALIDATION
    assert str(table) in capsys.readouterr().err
    assert not (out / "macro.csv").exists()


def test_effham_permuted_L_grid_matches_sorted(tmp_path, capsys):
    """A table is written on ascending grids whatever the config order, so the
    monotonicity report reads neighbouring drives."""
    cfg = {"model": base_model(),
           "effham": {"p_grid": [[1, 1]], "L_grid": [0.0, 1.0, 2.0, 3.0],
                      "tol": 2e-3, "T_cap": 200.0}}
    outputs = []
    for grid in ([0.0, 1.0, 2.0, 3.0], [2.0, 0.0, 3.0, 1.0]):
        cfg["effham"]["L_grid"] = grid
        capsys.readouterr()
        run_cli(tmp_path, cfg, "effham")
        assert capsys.readouterr().out.splitlines()[0].endswith("(ok)")
        out = tmp_path / "out"
        outputs.append([(out / name).read_bytes()
                        for name in ("effective_table.csv", "effective_table.json")])
    assert outputs[0] == outputs[1]


def test_unconverged_node_off_a_straight_profile_is_not_read(tmp_path, capsys):
    """A straight unit-slope profile reads only the p = 1 node."""
    cfg = _pipeline_cfg(tmp_path)
    cfg["effham"].update(tol=2e-3, T_cap=4.0)
    rc, out = run_cli(tmp_path, cfg, "homogenize")
    assert rc == cli.EXIT_PARTIAL
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "hit T_cap before tol: L = 0.5, p = 1")


def test_converge_flat_chord_exits_validation(tmp_path, capsys):
    u0 = Profile(x=np.array([-5.0, 0.0, 1.0, 5.0]), u=np.array([-5.0, 0.0, 0.0, 4.0]))
    cfg = _pipeline_cfg(tmp_path)
    (tmp_path / "u0.csv").write_text(u0.to_csv())
    del cfg["effham"], cfg["homogenize"]
    cfg["converge"]["table_file"] = str(tmp_path / "table.csv")
    (tmp_path / "table.csv").write_text("L,p,lambda,halfwidth,converged\n"
                                        "0.5,1/2,0.5,0.001,1\n0.5,2/1,0.5,0.001,1\n")
    rc, out = run_cli(tmp_path, cfg, "converge")
    assert rc == cli.EXIT_VALIDATION
    assert "nonpositive chord" in capsys.readouterr().err
    assert not (out / "convergence.json").exists()


@pytest.mark.parametrize("command,key", [("homogenize", "u0_file"),
                                         ("converge", "u0_file"),
                                         ("converge", "xi0_file")])
@pytest.mark.parametrize("row", ["0.5,abc", "0.5", "0.5,1.0,2.0", "0.5,inf"])
def test_malformed_profile_file_exits_validation(tmp_path, capsys, command, key, row):
    """A profile row that is not two finite numbers exits 2 naming the file."""
    cfg = _pipeline_cfg(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x,u0\n-5.0,-5.0\n{row}\n5.0,5.0\n")
    cfg[command][key] = str(bad)
    cfg[command]["table_file"] = str(tmp_path / "table.csv")
    (tmp_path / "table.csv").write_text("L,p,lambda,halfwidth,converged\n"
                                        "0.5,1/2,0.5,0.001,1\n0.5,2/1,0.5,0.001,1\n")
    rc, out = run_cli(tmp_path, cfg, command)
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert key in err and str(bad) in err and repr(row) in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command,key", [("homogenize", "u0_file"),
                                         ("converge", "u0_file"),
                                         ("converge", "xi0_file")])
def test_profile_file_not_utf8_exits_validation(tmp_path, capsys, command, key):
    """A profile file holding a byte that is not UTF-8 exits 2 naming the
    file, not with a UnicodeDecodeError traceback."""
    cfg = _pipeline_cfg(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x,u0\n-5.0,-5.0\n0.5,\xff\n5.0,5.0\n")
    cfg[command][key] = str(bad)
    cfg[command]["table_file"] = str(tmp_path / "table.csv")
    (tmp_path / "table.csv").write_text("L,p,lambda,halfwidth,converged\n"
                                        "0.5,1/2,0.5,0.001,1\n0.5,2/1,0.5,0.001,1\n")
    rc, out = run_cli(tmp_path, cfg, command)
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert key in err and str(bad) in err
    assert not any(out.iterdir())


def test_converge_reads_each_profile_once(tmp_path, monkeypatch):
    """The cache key digests the very profiles that are solved."""
    texts = []
    parse = Profile.from_csv.__func__

    def counting(cls, text):
        texts.append(text)
        return parse(cls, text)

    monkeypatch.setattr(Profile, "from_csv", classmethod(counting))
    cfg = _pipeline_cfg(tmp_path)
    cfg["converge"].update(xi0_file=cfg["converge"]["u0_file"], eps_list=[0.1],
                           table_file=str(tmp_path / "table.csv"))
    (tmp_path / "table.csv").write_text("L,p,lambda,halfwidth,converged\n"
                                        "0.5,1/2,0.5,0.001,1\n0.5,2/1,0.5,0.001,1\n")
    rc, out = run_cli(tmp_path, cfg, "converge")
    assert rc == 0
    assert len(texts) == 2


def test_unsorted_p_grid_homogenize_agrees_with_pipeline(tmp_path, capsys):
    cfg = _pipeline_cfg(tmp_path)
    cfg["effham"]["p_grid"] = [[5, 4], [1, 1], [4, 5]]
    rc_h, out = run_cli(tmp_path, cfg, "homogenize")
    macro_h = (out / "macro.csv").read_text()
    # a cold pipeline solves on the swept table, a warm one on the table
    # parsed from the cache; both hold the p nodes ascending
    rc_p, out = run_cli(tmp_path, cfg, "pipeline")
    assert rc_h == rc_p == 0
    assert (out / "macro.csv").read_text() == macro_h
    cold = {name: (out / name).read_bytes() for name in ("macro.csv", "convergence.json")}
    capsys.readouterr()
    rc_w, out = run_cli(tmp_path, cfg, "pipeline")
    assert rc_w == 0
    assert "[cache] hit effham" in capsys.readouterr().out
    assert {name: (out / name).read_bytes() for name in cold} == cold


@pytest.mark.parametrize("command", ["effham", "pipeline"])
@pytest.mark.parametrize("field,grid,needle", [
    ("p_grid", [[4, 5], [1, 1], [2, 2], [5, 4]], "repeated value 1"),
    ("L_grid", [0.5, 1.0, 0.5], "repeated value 0.5")])
def test_repeated_grid_value_exits_validation(tmp_path, capsys, command, field,
                                              grid, needle):
    cfg = _pipeline_cfg(tmp_path)
    cfg["effham"][field] = grid
    rc, out = run_cli(tmp_path, cfg, command)
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"config.effham.{field}" in err and needle in err
    assert not (out / "effective_table.csv").exists()
    assert not list(out.glob("cache/*"))


@pytest.mark.parametrize("stage,cut", [("effham", "mid_row"), ("effham", "row_boundary"),
                                       ("effham", "zero_denominator"),
                                       ("converge", "half"), ("converge", "empty_object"),
                                       ("converge", "text_errors")])
def test_pipeline_rejects_truncated_cache_file(tmp_path, capsys, stage, cut):
    """A cache file that does not parse, or parses to the wrong shape, exits 2
    naming the file."""
    cfg = _pipeline_cfg(tmp_path)
    rc, out = run_cli(tmp_path, cfg, "pipeline")
    assert rc == 0
    (cached,) = (out / "cache").glob(f"{stage}-*.txt")
    text = cached.read_text()
    last = text.rstrip("\n").rfind("\n") + 1
    cached.write_text({"mid_row": text[:last + 8], "row_boundary": text[:last],
                       "half": text[:len(text) // 2], "empty_object": "{}",
                       "text_errors": text.replace('"error": [', '"error": ["0.1", '),
                       "zero_denominator": text.replace(",1/1,", ",1/0,"),
                       }[cut])
    capsys.readouterr()
    rc, out = run_cli(tmp_path, cfg, "pipeline")
    assert rc == cli.EXIT_VALIDATION
    assert str(cached) in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["effham", "converge"])
def test_pipeline_rejects_cache_file_not_utf8(tmp_path, capsys, stage):
    """A cache file holding a byte that is not UTF-8 is a hit that exits 2
    naming the file."""
    cfg = _pipeline_cfg(tmp_path)
    rc, out = run_cli(tmp_path, cfg, "pipeline")
    assert rc == 0
    (cached,) = (out / "cache").glob(f"{stage}-*.txt")
    cached.write_bytes(cached.read_bytes().replace(b"1", b"\xff", 1))
    capsys.readouterr()
    rc, out = run_cli(tmp_path, cfg, "pipeline")
    assert rc == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert f"[cache] hit {stage} " in captured.out
    assert str(cached) in captured.err


@pytest.mark.parametrize("edit,stale", [
    ([[4, 5], [1, 1], [3, 2], [2, 1]], True),
    ([[2, 1], [5, 4], [1, 1], [4, 5]], False)], ids=["edited", "reordered"])
def test_pipeline_converge_cache_keys_on_the_table(tmp_path, capsys, edit, stale):
    """An edited p_grid changes H, so converge misses and reports afresh; a
    reordered one does not, so the warm call hits like the miss that wrote it."""
    cfg = _rippled_cfg(tmp_path)
    run_cli(tmp_path, cfg, "pipeline")
    before = (tmp_path / "out" / "convergence.json").read_text()
    cfg["effham"]["p_grid"] = edit
    capsys.readouterr()
    run_cli(tmp_path, cfg, "pipeline")
    log = capsys.readouterr().out
    assert ("[cache] miss converge" in log) == stale
    assert ("[cache] hit converge" in log) != stale
    rerun = (tmp_path / "out" / "convergence.json").read_text()
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    run_cli(fresh, cfg, "pipeline")
    assert rerun == (fresh / "out" / "convergence.json").read_text()
    assert (rerun != before) == stale


def test_pipeline_converge_cache_keys_on_profile_text_not_path(tmp_path, capsys):
    """The same profile bytes at another path are the same solve: the warm
    call hits the converge report the cold one wrote."""
    cfg = _pipeline_cfg(tmp_path)
    run_cli(tmp_path, cfg, "pipeline")
    moved = tmp_path / "elsewhere" / "u0.csv"
    moved.parent.mkdir()
    moved.write_bytes(Path(cfg["converge"]["u0_file"]).read_bytes())
    cfg["homogenize"]["u0_file"] = cfg["converge"]["u0_file"] = str(moved)
    capsys.readouterr()
    rc, _ = run_cli(tmp_path, cfg, "pipeline")
    assert rc == 0
    assert "[cache] hit converge" in capsys.readouterr().out


def test_pipeline_runs_each_stage_once(tmp_path, monkeypatch):
    """A cold pipeline sweeps once and never reads back the cache it wrote; a
    warm one parses the cached table once; each looks up each cached stage
    once."""
    from fkhomog import rotation
    calls = []
    sweep, get_text = rotation.sweep, cli.Cache.get_text
    parse = rotation.EffectiveTable.from_csv.__func__

    def counting_sweep(*args, **kw):
        calls.append("sweep")
        return sweep(*args, **kw)

    def counting_parse(cls, text):
        calls.append("from_csv")
        return parse(cls, text)

    def counting_get(self, stage, payload):
        calls.append(f"get_text {stage}")
        return get_text(self, stage, payload)

    monkeypatch.setattr(rotation, "sweep", counting_sweep)
    monkeypatch.setattr(rotation.EffectiveTable, "from_csv", classmethod(counting_parse))
    monkeypatch.setattr(cli.Cache, "get_text", counting_get)
    cfg = _pipeline_cfg(tmp_path)
    assert run_cli(tmp_path, cfg, "pipeline")[0] == 0
    assert calls == ["get_text effham", "sweep", "get_text converge"]
    calls.clear()
    assert run_cli(tmp_path, cfg, "pipeline")[0] == 0
    assert calls == ["get_text effham", "from_csv", "get_text converge"]


WRONG_INPUTS = {
    "window too narrow for eps": ("converge", lambda c, t: c["converge"].update(
        window=[0.0, 1.0]), "window holds only"),
    "nan table_file entry": ("homogenize", lambda c, t: c["homogenize"].update(
        table_file=str(t)), "finite"),
    "L missing from the table": ("homogenize", lambda c, t: c["homogenize"].update(
        L=0.7), "no L = 0.7 slice"),
    "record time past T": ("homogenize", lambda c, t: c["homogenize"].update(
        record_times=[0.5, 1.5]), "record times"),
}


@pytest.mark.parametrize("pipeline", [False, True])
@pytest.mark.parametrize("case", sorted(WRONG_INPUTS))
def test_pipeline_exit_code_matches_standalone(tmp_path, capsys, case, pipeline):
    """A bad input exits 2 from pipeline as from its own command; pipeline
    also names the stage."""
    stage, edit, needle = WRONG_INPUTS[case]
    table = tmp_path / "table.csv"
    table.write_text("L,p,lambda,halfwidth,converged\n"
                     "0.5,4/5,0.4,0.001,1\n0.5,1/1,nan,nan,0\n0.5,5/4,0.6,0.001,1\n")
    cfg = _pipeline_cfg(tmp_path)
    edit(cfg, table)
    rc, _ = run_cli(tmp_path, cfg, "pipeline" if pipeline else stage)
    err = capsys.readouterr().err
    assert rc == cli.EXIT_VALIDATION
    assert needle in err
    assert (f"pipeline failed at stage {stage}" in err) == pipeline


def test_pipeline_numerical_failure_exits_numerical(tmp_path, capsys, monkeypatch):
    from fkhomog import chain, macro

    def blow_up(*args, **kw):
        raise chain.NumericalError("non-finite state")

    monkeypatch.setattr(macro, "convergence_study", blow_up)
    rc, _ = run_cli(tmp_path, _pipeline_cfg(tmp_path), "pipeline")
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NUMERICAL
    assert "pipeline failed at stage converge" in err and "non-finite state" in err


def test_pipeline_failing_model_exits_from_effham(tmp_path, capsys):
    """The structural check runs inside the effham stage: a heavy mass exits 2
    as the standalone effham does, and no table is written."""
    cfg = _pipeline_cfg(tmp_path)
    cfg["model"] = base_model(m0=0.05)
    for command in ("effham", "pipeline"):
        rc, out = run_cli(tmp_path, cfg, command)
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert "monotonicity assumptions ['a3'" in err and "critical mass" in err
        assert ("pipeline failed at stage effham" in err) == (command == "pipeline")
        assert not (out / "effective_table.csv").exists()


def test_pipeline_checks_the_model_in_its_stages_only(tmp_path, monkeypatch):
    """sweep and convergence_study each check the model on a cold run; a warm
    run whose stages both hit the cache checks nothing."""
    from fkhomog import model
    calls = []
    check = model.check_assumptions

    def counting(m, *args, **kw):
        calls.append(m)
        return check(m, *args, **kw)

    monkeypatch.setattr(model, "check_assumptions", counting)
    cfg = _pipeline_cfg(tmp_path)
    assert run_cli(tmp_path, cfg, "pipeline")[0] == 0
    assert len(calls) == 2
    calls.clear()
    assert run_cli(tmp_path, cfg, "pipeline")[0] == 0
    assert calls == []


def test_hull_checks_the_model_once(tmp_path, monkeypatch):
    """rotation_number checks the base model; continuing its run checks
    nothing again."""
    from fkhomog import chain, model
    calls = []
    check = model.check_assumptions

    def counting(m, *args, **kw):
        calls.append(m)
        return check(m, *args, **kw)

    monkeypatch.setattr(model, "check_assumptions", counting)
    monkeypatch.setattr(chain, "check_assumptions", counting)
    cfg = {"model": base_model(),
           "hull": {"p": [1, 1], "L": 2.0, "Z": 16, "snapshots": 64, "tol": 2e-3}}
    rc, _ = run_cli(tmp_path, cfg, "hull")
    assert rc == 0
    assert len(calls) == 1


def test_cache_write_is_atomic(tmp_path, monkeypatch, capsys):
    """A write cut short before the rename leaves nothing under the name a
    later lookup hits."""
    def cut_short(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr("os.replace", cut_short)
    cache = cli.Cache(tmp_path / "cache")
    with pytest.raises(OSError):
        cache.put_text("effham", "k", "L,p,lambda,halfwidth,converged\n")
    assert cache.get_text("effham", {})[1] is None
    assert capsys.readouterr().out.startswith("[cache] miss effham ")
    assert not (tmp_path / "cache" / "effham-k.txt").exists()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

BAD_CONFIGS = [
    ({}, "model"),
    ({"model": {}}, "force"),
    ({"model": {"m0": 0.01, "force": {"kind": "mystery"}}}, "kind"),
    ({"model": {"m0": -1, "force": {"kind": "classical_fk", "theta": [1.0]}}}, "m0"),
    ({"model": {"m0": 0.01, "force": {"kind": "classical_fk", "theta": [0.0]}}}, "theta"),
    ({"model": {"force": {"kind": "classical_fk", "theta": [1.0]}}}, "m0 or alpha0"),
    ({"model": base_model(), "simulate": {"p": [0, 1], "T": 1.0, "sample_dt": 0.1}}, "p"),
    ({"model": base_model(), "simulate": {"p": [1, 1], "T": -1.0, "sample_dt": 0.1}}, "T"),
    ({"model": base_model(), "converge": {"u0_file": "x", "eps_list": [0.1, 0.2],
                                          "T": 1.0, "window": [0, 1], "L": 0.0}}, "eps_list"),
    ({"model": base_model(), "unknown_block": {}}, "unknown"),
    ({"model": {"m0": 0.05, "force": {"kind": "classical_fk", "theta": [1.0],
                                      "value": 0.5}}}, "config.model.force.value"),
    ({"model": {"m0": 0.05, "force": {"kind": "constant", "value": 0.5,
                                      "theta": [1.0]}}}, "config.model.force.theta"),
    ({"model": {"m0": 0.05, "force": {"kind": "constant",
                                      "amplitude": 1.0}}}, "config.model.force.amplitude"),
    ({"model": {"n": 2, "m0": 0.05, "force": {"kind": "classical_fk",
                                              "theta": [1.0]}}}, "config.model.n = 2"),
    ({"model": {"m": 2, "m0": 0.05, "force": {"kind": "classical_fk",
                                              "theta": [1.0]}}}, "config.model.m = 2"),
]


@pytest.mark.parametrize("cfg,needle", BAD_CONFIGS)
def test_malformed_configs_rejected_with_path(tmp_path, capsys, cfg, needle):
    rc, _ = run_cli(tmp_path, cfg, "check")
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert needle in err


@pytest.mark.parametrize("cfg,key", [row for row in BAD_CONFIGS
                                     if row[1].startswith("config.model.force.")])
def test_force_key_of_the_other_kind_is_named(tmp_path, capsys, cfg, key):
    """A force key that belongs to the other kind exits 2 naming the key,
    before the model is built."""
    rc, _ = run_cli(tmp_path, cfg, "check")
    assert rc == cli.EXIT_VALIDATION
    assert f"error: {key}: " in capsys.readouterr().err


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                         st.floats(-2, 2, allow_nan=False), st.text(max_size=6))


@given(garbage=st.dictionaries(
    st.sampled_from(["model", "simulate", "effham", "seed", "out_dir", "junk"]),
    st.one_of(json_scalars, st.dictionaries(st.text(max_size=8), json_scalars,
                                            max_size=3)),
    max_size=4))
@settings(max_examples=60, deadline=None)
def test_fuzzed_configs_never_crash(garbage):
    """Malformed configs reject with exit 2; they never raise out of main."""
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(garbage))
        rc = cli.main(["check", "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_constant_exits_validation(tmp_path, capsys, constant):
    """json reads NaN and +-Infinity, which no schema bound rejects."""
    cfg = _pipeline_cfg(tmp_path)
    cfg["homogenize"]["T"] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"@"', constant))
    rc = cli.main(["homogenize", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    assert f"{constant} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400],
                         ids=["1e999", "-1e999", "int400"])
@pytest.mark.parametrize("command,key", [("simulate", "T"), ("effham", "T_cap")])
def test_config_number_that_overflows_a_float_exits_validation(tmp_path, capsys,
                                                               command, key, literal):
    """1e999 reads as inf and a 400-digit integer overflows a float: both are
    refused at load, naming the literal."""
    cfg = {"model": base_model(A=0.0),
           "simulate": {"p": [1, 1], "T": 5.0, "sample_dt": 0.5},
           "effham": {"p_grid": [[1, 1]], "L_grid": [0.8], "T_cap": 100.0}}
    cfg[command][key] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal))
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    assert f"{literal} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,block", [
    ("simulate", "simulate"), ("effham", "effham"), ("hull", "hull"),
    ("homogenize", "homogenize"), ("converge", "converge"), ("pipeline", "effham")])
def test_command_without_its_block_exits_validation(tmp_path, capsys, command, block):
    rc, out = run_cli(tmp_path, {"model": base_model()}, command)
    assert rc == cli.EXIT_VALIDATION
    assert f"error: config.{block}: block required\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("L_grid,code", [([0.0, 1e307], cli.EXIT_PARTIAL),
                                         ([1e307], cli.EXIT_NUMERICAL)])
def test_effham_exit_code_counts_the_entries_that_fail(tmp_path, capsys, L_grid, code):
    """A drive of 1e307 overflows its row: exit 4 while another entry stands,
    exit 3 when every entry failed."""
    cfg = {"model": {"m0": 0.05, "force": {"kind": "constant", "value": 0.5}},
           "effham": {"p_grid": [[1, 1]], "L_grid": L_grid, "tol": 1e-3}}
    with np.errstate(over="ignore", invalid="ignore"):
        rc, out = run_cli(tmp_path, cfg, "effham")
    assert rc == code
    assert "1 entries failed numerically" in capsys.readouterr().out
    table = json.loads((out / "effective_table.json").read_text())
    assert [f["L"] for f in table["failures"]] == [1e307]


def test_effham_blow_up_reports_itself_without_a_numpy_warning(tmp_path, capsys):
    """The march finds the ring that overflows and reports it; NumPy's own
    overflow warning would name no row, drive or tau."""
    cfg = {"model": {"m0": 0.05, "force": {"kind": "constant", "value": 0.5}},
           "effham": {"p_grid": [[1, 1]], "L_grid": [0.0, 1e307], "tol": 1e-3}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = run_cli(tmp_path, cfg, "effham")
    assert rc == cli.EXIT_PARTIAL
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert "1 entries failed numerically" in captured.out
    assert "RuntimeWarning" not in captured.err
    table = json.loads((out / "effective_table.json").read_text())
    assert [f["L"] for f in table["failures"]] == [1e307]


def test_config_file_not_utf8_is_validation_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    rc = cli.main(["check", "--config", str(path)])
    assert rc == cli.EXIT_VALIDATION
    assert "cannot read" in capsys.readouterr().err


def test_config_file_missing_is_validation_error(tmp_path, capsys):
    rc = cli.main(["check", "--config", str(tmp_path / "nope.json")])
    assert rc == cli.EXIT_VALIDATION
    assert "cannot read" in capsys.readouterr().err


def _perturbed_simulate(seed=None):
    cfg = {"model": base_model(),
           "simulate": {"p": [1, 1], "cells": 4, "T": 2.0, "sample_dt": 0.5,
                        "perturbation_scale": 0.05}}
    if seed is not None:
        cfg["seed"] = seed
    return cfg


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_negative_seed_override_exits_validation(tmp_path, capsys, command):
    """--seed is validated like the config seed it overrides."""
    rc, out = run_cli(tmp_path, _perturbed_simulate(), command, ["--seed", "-1"])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: config.seed:") and "Traceback" not in err
    assert not out.exists()


def test_seed_override_equals_the_config_seed(tmp_path):
    for sub in ("flag", "cfg", "zero"):
        (tmp_path / sub).mkdir()
    rc, out = run_cli(tmp_path / "flag", _perturbed_simulate(), "simulate",
                      ["--seed", "3"])
    assert rc == 0
    rc, ref = run_cli(tmp_path / "cfg", _perturbed_simulate(seed=3), "simulate")
    assert rc == 0
    rc, zero = run_cli(tmp_path / "zero", _perturbed_simulate(), "simulate")
    traj = (out / "trajectory.csv").read_bytes()
    assert traj == (ref / "trajectory.csv").read_bytes()
    assert traj != (zero / "trajectory.csv").read_bytes()
