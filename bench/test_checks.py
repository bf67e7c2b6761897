"""Each benchmark check accepts a correct output and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import fkhomog as fk  # noqa: E402

import checks  # noqa: E402


def failures(ops):
    return [op for op, ok, _ in ops if not ok]


@pytest.fixture(scope="module")
def depinned():
    """One-type classical ring at p = 1, L = 1.5: program estimate and the
    scalar-recursion reference."""
    alpha = (4.0 + 4.0 * math.pi) * 1.15
    model = fk.build_classical_fk([1.0], amplitude=1.0, m0=1.0 / (2.0 * alpha))
    est = fk.rotation_number(model, 1, L_extra=1.5, tol=2e-3, T_cap=800.0, cells=2)
    ref, ref_hw = checks.scalar_rotation(model.alpha0, 0.5 / model.alpha0, 1.0,
                                         [1.5], 2000.0)
    return model, est, ref, ref_hw


@pytest.mark.parametrize("shift", [0.0, 2.0, -2.0])
def test_reference_rejects_lambda_shifted_by_two_halfwidths(depinned, shift):
    _, est, ref, ref_hw = depinned
    lam = est.lambda_hat + shift * est.halfwidth_best
    ops = checks.matches_reference([lam], [est.halfwidth_best], ref, ref_hw)
    assert bool(failures(ops)) == (shift != 0.0)


def test_force_balance_rejects_shifted_lambda(depinned):
    model, est, _, _ = depinned
    driven = fk.with_extra_drive(model, 1.5)
    dt = fk.cfl_dt(driven, 0.5, check=False)
    log = fk.run(fk.init_linear(driven, 1, cells=2), est.T, dt, dt=dt, check=False)
    log = fk.extend(log, 40.0, snapshot_stride=1)
    fb, err = checks.force_balance([s[0] for s in log.snapshots],
                                   [s[1] for s in log.snapshots], 1.5, 1.0, 0.0)
    hw = est.halfwidth_best
    assert err < hw
    assert not failures(checks.balances_force(est.lambda_hat, hw, fb, err))
    for sign in (1.0, -1.0):
        assert failures(checks.balances_force(est.lambda_hat + 2 * sign * hw, hw, fb, err))


def test_converged_and_monotone_reject_perturbations():
    lam = np.array([0.0, 0.0, 0.5, 1.0])
    hw = np.full(4, 1e-3)
    assert not failures(checks.entries_converged([True] * 4))
    assert failures(checks.entries_converged([True, False, True, True]))
    assert not failures(checks.monotone_in_L(lam, hw))
    within = lam.copy()
    within[3] = 0.5 - 3.9e-3    # a drop inside 2 x (1e-3 + 1e-3) passes
    assert not failures(checks.monotone_in_L(within, hw))
    beyond = lam.copy()
    beyond[3] = 0.5 - 4.1e-3
    assert failures(checks.monotone_in_L(beyond, hw))


def test_errors_must_strictly_decrease():
    assert not failures(checks.errors_decrease([0.04, 0.02, 0.01]))
    assert failures(checks.errors_decrease([0.04, 0.02, 0.02]))
    assert failures(checks.errors_decrease([0.04, 0.05, 0.01]))
    assert failures(checks.errors_decrease([0.04, float("nan")]))


def test_slopes_in_range_rejects_a_steeper_profile():
    x = np.linspace(-1.0, 1.0, 21)
    u = x + 0.05 * np.sin(np.pi * x)
    q = np.diff(u) / np.diff(x)
    lo, hi = float(q.min()), float(q.max())
    assert not failures(checks.slopes_in_range(x, u, lo, hi))
    bumped = u.copy()
    bumped[10] += 0.01
    assert failures(checks.slopes_in_range(x, bumped, lo, hi))


def test_drive_bound_rejects_too_fast_entries():
    lam = np.array([[0.7, 0.7], [1.8, 1.8]])
    assert not failures(checks.drive_bound(lam, [1.0, 2.0], 1.1))
    lam[1, 0] = 3.2
    assert failures(checks.drive_bound(lam, [1.0, 2.0], 1.1))


def hull_strata(n_tau=4, Z=32):
    z = (np.arange(Z) + 0.5) / Z
    h1 = z + 0.05 * np.sin(2 * np.pi * z)
    # type 2 sits a quarter cell above type 1 (p = 1/2 per type step)
    h2 = z + 0.25 + 0.05 * np.sin(2 * np.pi * (z + 0.25))
    return np.array([[h1, h2]] * n_tau)


def test_hull_shape_rejects_decreasing_or_misordered_strata():
    h = hull_strata()
    assert not failures(checks.hull_shape(h, 0.5))
    dip = h.copy()
    dip[2, 0, 10] -= 0.2
    assert failures(checks.hull_shape(dip, 0.5))
    swapped = h[:, ::-1].copy()
    assert failures(checks.hull_shape(swapped, 0.5))


def test_cli_and_cache_checks_reject_failures():
    assert not failures(checks.cli_runs(0, 0))
    assert failures(checks.cli_runs(0, 4))
    files = {"a.csv": b"x\n1\n"}
    log = "[cache] hit effham 0123\n[cache] hit converge 4567\n"
    assert not failures(checks.warm_call_cached(log, ("effham", "converge"), files,
                                                dict(files)))
    assert failures(checks.warm_call_cached(log + "[cache] miss converge 89ab\n",
                                            ("effham", "converge"), files, dict(files)))
    assert failures(checks.warm_call_cached("[cache] hit effham 0123\n",
                                            ("effham", "converge"), files, dict(files)))
    assert failures(checks.warm_call_cached(log, ("effham", "converge"), files,
                                            {"a.csv": b"x\n2\n"}))


def test_scalar_reference_is_zero_when_pinned():
    ref, ref_hw = checks.scalar_rotation(19.0, 0.5 / 19.0, 1.0, [0.0, 0.5], 200.0)
    assert np.all(np.abs(ref) <= 1e-6) and np.all(ref_hw <= 1e-6)
