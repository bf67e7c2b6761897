"""Rotation brackets, certified widths, and effective Hamiltonian tables."""

import math
from fractions import Fraction

import numpy as np
import pytest

import fkhomog as fk
from fkhomog.rotation import (EffectiveTable, LogTooShort, depinning_threshold,
                              monotone_in_L_violation, table_to_json)


def fkmodel(theta=(1.0,), A=1.0, L=0.0, margin=1.1):
    theta = list(theta)
    n = len(theta)
    alpha_min = max(2 * (theta[j] + theta[(j + 1) % n]) + 4 * math.pi * A
                    for j in range(n))
    return fk.build_classical_fk(theta, amplitude=A, drive=L,
                                 m0=1.0 / (2.0 * alpha_min * margin))


def test_lambda_pm_constant_force_exact():
    L = 0.8
    m = fk.build_constant_force(L, m0=0.05)
    ch = fk.init_linear(m, 1, cells=2)
    log = fk.run(ch, 40.0, 0.25)
    lo, hi = fk.lambda_pm(log, 10.0)
    assert lo <= hi
    assert hi == pytest.approx(L, abs=5e-3)
    assert lo == pytest.approx(L, abs=5e-3)


def test_lambda_pm_pinned_zero():
    m = fkmodel(L=0.0)
    ch = fk.init_linear(m, 1, cells=4)
    log = fk.run(ch, 40.0, 0.5)
    lo, hi = fk.lambda_pm(log, 10.0)
    assert lo == 0.0 and hi == 0.0          # integer lattice is a fixed point


def test_lambda_pm_refuses_short_log():
    m = fkmodel()
    ch = fk.init_linear(m, 1, cells=2)
    log = fk.run(ch, 5.0, 0.5)
    with pytest.raises(LogTooShort):
        fk.lambda_pm(log, 4.0)


def test_lambda_pm_bracket_ordering_random_models():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        theta = rng.uniform(0.5, 2.0, n)
        A = float(rng.uniform(0, 1))
        L = float(rng.uniform(-2, 2))
        m = fkmodel(theta, A=A, L=L, margin=float(rng.uniform(1.05, 1.5)))
        ch = fk.init_linear(m, Fraction(int(rng.integers(1, 3)), int(rng.integers(1, 3))))
        log = fk.run(ch, 10.0, 0.25)
        lo, hi = fk.lambda_pm(log, 2.0)
        assert lo <= hi


def test_rotation_number_constant_force():
    for p in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        L = 1.1
        m = fk.build_constant_force(L, m0=0.05)
        est = fk.rotation_number(m, p, tol=1e-6, T_cap=500.0)
        assert est.lambda_hat == pytest.approx(L, abs=1e-9)
        assert est.lambda_minus <= est.lambda_hat <= est.lambda_plus


def test_rotation_number_pinned_zero():
    m = fkmodel(L=0.0)
    est = fk.rotation_number(m, 1, tol=1e-6)
    assert est.lambda_hat == pytest.approx(0.0, abs=1e-12)
    assert est.converged


def test_rotation_number_certified_width_and_c4_bound():
    m = fkmodel(L=0.0)
    est = fk.rotation_number(m, 1, L_extra=2.0, tol=1e-3)
    # bracket within the a-priori band
    assert est.empirical_width * est.T <= est.ledger.C2 + 1e-6
    assert abs(est.lambda_hat) <= est.ledger.C4 + est.certified_halfwidth
    # history rows are nested brackets up to the recorded slack
    for a, b in zip(est.history, est.history[1:]):
        slack = a["slack"] + b["slack"] + 1e-12
        assert b["lambda_minus"] >= a["lambda_minus"] - slack
        assert b["lambda_plus"] <= a["lambda_plus"] + slack


def test_rotation_number_unconverged_flag():
    m = fkmodel(L=2.0)
    est = fk.rotation_number(m, 1, tol=1e-12, T_cap=16.0)
    assert not est.converged


def test_rotation_cross_integrator_agreement():
    """Euler lambda agrees with the rate measured on the RK4 oracle."""
    m = fkmodel(L=2.0, margin=1.3)
    tol = 2e-3
    est = fk.rotation_number(m, 1, tol=tol)
    ch = fk.init_linear(m, 1, cells=2)
    dt = fk.cfl_dt(m, 0.5)
    lr = fk.rk4_oracle(m, ch, 400.0, dt, sample_dt=0.5)
    lo, hi = fk.lambda_pm(lr, 150.0)
    lam_rk4 = 0.5 * (lo + hi)
    assert est.lambda_hat == pytest.approx(lam_rk4, abs=2 * tol + (hi - lo))


def test_tracked_particle_independence():
    """Per-type, per-variable window rates agree within C2/T."""
    m = fkmodel((1.0, 1.6), A=0.8, L=2.5, margin=1.2)
    est = fk.rotation_number(m, 1, tol=2e-3)
    ch = fk.init_linear(m, 1, cells=1)
    log = fk.run(ch, 4 * est.T, 0.5)
    T = est.T
    series = np.vstack([log.tracked_u, log.tracked_xi])
    K = int(round(T / log.sample_dt))
    rates = (series[:, K:] - series[:, :-K]) / (K * log.sample_dt)
    per_series = 0.5 * (rates.max(axis=1) + rates.min(axis=1))
    assert per_series.max() - per_series.min() <= 2 * est.ledger.C2 / T


def test_effective_hamiltonian_linear_chain_is_drive():
    m = fkmodel(A=0.0, L=0.0, margin=1.2)
    for L in (0.0, 0.9):
        for p in (Fraction(1, 2), Fraction(1)):
            lam = fk.effective_hamiltonian(m, p, L=L, tol=1e-6, T_cap=200.0)
            assert lam == pytest.approx(L, abs=1e-9)


def test_reflection_symmetry_of_drive():
    """The classical force is odd under U -> -U, L -> -L, so the rotation
    number is odd in L."""
    m = fkmodel(L=0.0)
    tol = 2e-3
    lp = fk.rotation_number(m, 1, L_extra=2.0, tol=tol).lambda_hat
    lm = fk.rotation_number(m, 1, L_extra=-2.0, tol=tol).lambda_hat
    assert lm == pytest.approx(-lp, abs=2 * tol)


def test_uniqueness_under_initial_perturbation():
    m = fkmodel(L=2.0, margin=1.2)
    rng = np.random.default_rng(9)
    tol = 2e-3
    a = fk.rotation_number(m, 1, tol=tol, cells=4)
    pert = 0.2 * rng.uniform(-1, 1, 4)
    b = fk.rotation_number(m, 1, tol=tol, cells=4, perturbation=pert)
    assert abs(a.lambda_hat - b.lambda_hat) <= a.halfwidth_best + b.halfwidth_best + a.slack + b.slack


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def test_sweep_single_entry_matches_scalar():
    # the bracket width floors at ~ L dt / T, so certify at 1e-3; the bracket
    # midpoint is far more accurate than the certified width
    m = fkmodel(A=0.0, margin=1.2)
    table = fk.sweep(m, [Fraction(1)], [0.7], tol=1e-3, T_cap=2000.0)
    assert table.lam.shape == (1, 1)
    assert table.lam[0, 0] == pytest.approx(0.7, abs=1e-9)
    assert table.converged.all()


def test_sweep_monotone_in_L_and_threads_deterministic():
    m = fkmodel(L=0.0, margin=1.2)
    Ls = [0.0, 1.0, 2.0]
    t1 = fk.sweep(m, [Fraction(1)], Ls, tol=2e-3, threads=1)
    t4 = fk.sweep(m, [Fraction(1)], Ls, tol=2e-3, threads=4)
    assert t1.to_csv() == t4.to_csv()
    assert monotone_in_L_violation(t1) <= 0.0
    assert "max_downward_jump_in_L" in t1.diagnostics


def test_drive_shift_symmetry_linear_chain_table():
    m = fkmodel(A=0.0, margin=1.2)
    table = fk.sweep(m, [Fraction(1, 2), Fraction(1), Fraction(2)],
                     [0.0, 0.5, 1.0], tol=1e-6, T_cap=200.0)
    for i, L in enumerate(table.L_grid):
        assert np.abs(table.lam[i, :] - L).max() < 1e-9


def test_depinning_threshold_bracketed():
    m = fkmodel(L=0.0, margin=1.2)
    table = fk.sweep(m, [Fraction(1)], [0.0, 0.5, 1.0, 1.5, 2.0], tol=2e-3)
    lo, hi = depinning_threshold(table, 1, tol=5e-3)
    assert 0.0 <= lo < hi <= 2.0
    # pinned below, sliding above
    assert table.column(1)[table.L_grid >= hi].min() > 5e-3


def test_table_csv_json_roundtrip():
    m = fkmodel(A=0.0, margin=1.2)
    table = fk.sweep(m, [Fraction(1, 2), Fraction(1)], [0.0, 1.0], tol=1e-6,
                     T_cap=100.0)
    text = table.to_csv()
    back = EffectiveTable.from_csv(text)
    assert back.p_grid == table.p_grid
    assert np.array_equal(back.lam, table.lam)
    assert back.to_csv() == text
    import json
    meta = json.loads(table_to_json(table))
    assert meta["p_grid"] == ["1/2", "1/1"]


def test_table_from_csv_rejects_cut_tables():
    text = ("L,p,lambda,halfwidth,converged\n"
            "0.0,1/2,0.0,0.001,1\n0.0,1/1,0.0,0.001,1\n"
            "1.0,1/2,0.5,0.001,1\n1.0,1/1,1.0,0.001,1\n")
    assert EffectiveTable.from_csv(text).lam.shape == (2, 2)
    with pytest.raises(ValueError, match="expected 5"):
        EffectiveTable.from_csv(text[:-6])
    with pytest.raises(ValueError, match="grid"):
        EffectiveTable.from_csv(text[:text.rstrip().rfind("\n") + 1])
    with pytest.raises(ValueError, match="grid"):
        EffectiveTable.from_csv(text + "1.0,1/1,1.0,0.001,1\n")
