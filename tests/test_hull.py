"""Hull extraction, residuals, axioms, and reconstruction."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fkhomog as fk
from fkhomog.model import ClassicalFK
from fkhomog.chain import _transient_cut
from fkhomog.hull import (HullExtractionError, HullFunction, _isotonic_periodic,
                          _resample, _stratum, extract_hull, extract_hull_periodic,
                          hull_residual, hull_to_csv, hull_value, isotonic_fit,
                          reconstruct_traveling_wave, verify_hull_axioms)
from fkhomog.rotation import lambda_pm
from test_tabulated_parity import _model as _two_type_model


def fkmodel(theta=(1.0,), A=1.0, L=0.0, margin=1.1):
    theta = list(theta)
    n = len(theta)
    alpha_min = max(2 * (theta[j] + theta[(j + 1) % n]) + 4 * math.pi * A
                    for j in range(n))
    return fk.build_classical_fk(theta, amplitude=A, drive=L,
                                 m0=1.0 / (2.0 * alpha_min * margin))


# ---------------------------------------------------------------------------
# Isotonic regression
# ---------------------------------------------------------------------------

def test_isotonic_known_case():
    y = np.array([1.0, 3.0, 2.0, 4.0])
    out = isotonic_fit(y)
    assert np.allclose(out, [1.0, 2.5, 2.5, 4.0])


def test_isotonic_preserves_monotone_input():
    y = np.array([0.0, 0.5, 0.5, 2.0])
    assert np.array_equal(isotonic_fit(y), y)


def test_isotonic_weighted_mean():
    out = isotonic_fit(np.array([2.0, 0.0]), np.array([3.0, 1.0]))
    assert np.allclose(out, [1.5, 1.5])


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_isotonic_properties(vals):
    y = np.array(vals)
    out = isotonic_fit(y)
    assert np.all(np.diff(out) >= -1e-12)                 # monotone
    assert np.allclose(isotonic_fit(out), out)            # idempotent
    assert out.sum() == pytest.approx(y.sum(), abs=1e-9)  # block means preserved


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def make_identity_hull(Z=16, p=Fraction(1, 2), lam=0.3, n=1):
    zg = (np.arange(Z) + 0.5) / Z
    rows = np.tile(zg, (1, n, 1))
    return HullFunction(p=Fraction(p), lam=lam, z_grid=zg,
                        h=rows.copy(), g=rows.copy())


def test_extract_identity_hull_from_linear_chain():
    m = fkmodel(A=0.0, L=0.0, margin=1.2)
    ch = fk.init_linear(m, Fraction(2, 3), cells=2)
    log = fk.run(ch, 30.0, 0.05, snapshot_stride=1)
    hull = extract_hull(log, 0.0, Fraction(2, 3), Z=16)
    assert np.abs(hull.h - hull.z_grid).max() < 1e-12
    assert np.abs(hull.g - hull.z_grid).max() < 1e-12
    res = hull_residual(hull, m)
    assert res["r_h"] < 1e-10 and res["r_g"] < 1e-10


def test_extract_refuses_without_snapshots():
    m = fkmodel(A=0.0, margin=1.2)
    ch = fk.init_linear(m, 1, cells=2)
    log = fk.run(ch, 10.0, 0.5)
    with pytest.raises(HullExtractionError):
        extract_hull(log, 0.0, 1)


def _linear_log():
    m = fkmodel(A=0.0, margin=1.2)
    return fk.run(fk.init_linear(m, 1, cells=2), 10.0, 0.1, snapshot_stride=1)


@pytest.mark.parametrize("kw", [dict(Z=0), dict(Z=-3), dict(n_tau=0), dict(n_tau=-1)])
def test_extract_refuses_sizes_below_one(kw):
    (name, size), = kw.items()
    with pytest.raises(HullExtractionError, match=f"^{name} must be >= 1, got {size}$"):
        extract_hull(_linear_log(), 0.0, 1, **kw)


def test_extract_refuses_a_log_inside_the_transient():
    with pytest.raises(HullExtractionError, match="no snapshots past the relaxation"):
        extract_hull(_linear_log(), 0.0, 1, Z=8, transient=1e6)


def test_extract_refuses_unconverged_dynamics():
    # strongly driven but observed far too briefly: wide bracket
    m = fkmodel(L=3.0, margin=1.2)
    ch = fk.init_linear(m, 1, cells=2, perturbation=[0.0, 0.4])
    log = fk.run(ch, 1.0, 0.02, snapshot_stride=1)
    with pytest.raises(HullExtractionError):
        extract_hull(log, 0.0, 1, Z=8)


def test_extract_refuses_too_few_samples():
    m = fkmodel(A=0.0, margin=1.2)
    ch = fk.init_linear(m, 1, cells=1)
    log = fk.run(ch, 4.0, 0.5, snapshot_stride=1)
    with pytest.raises(HullExtractionError):
        extract_hull(log, 0.0, 1, Z=64)


def test_pinned_hull_profile_and_axioms():
    """Pinned chain at p = 1/3: the occupied phases sit off the sine zeros, so
    the equilibrium profile is deformed; h - id is nonconstant and bounded by
    2 ceil(C3)."""
    m = fkmodel(L=0.0, margin=1.2)
    p = Fraction(1, 3)
    ch = fk.init_linear(m, p, cells=2)
    log = fk.run(ch, 300.0, 0.25, snapshot_stride=4)
    hull = extract_hull(log, 0.0, p, Z=8, transient=250.0)
    led = fk.constants_ledger(m, p=float(p))
    rep = verify_hull_axioms(hull, led)
    assert rep.all_ok
    dev = hull.h - hull.z_grid
    assert dev.max() - dev.min() > 1e-3      # genuinely nonconstant
    res = hull_residual(hull, m)
    assert res["r_h"] < 1e-6                 # lambda = 0: residual is a0|g-h|


@pytest.fixture(scope="module")
def depinned():
    """A depinned one-type chain at p = 1, its rotation estimate and a
    40-unit snapshot log."""
    m = fkmodel(L=2.0)
    p = Fraction(1)
    est = fk.rotation_number(m, p, tol=1e-3, safety=0.1)
    dt = fk.cfl_dt(m, 0.1)
    ch = fk.init_linear(m, p, cells=1)
    log = fk.run(ch, 40.0, 5 * dt, dt=dt, snapshot_stride=1)
    return m, p, est, log


def test_depinned_hull_axioms_and_residual_refinement(depinned):
    m, p, est, log = depinned
    led = est.ledger
    res_prev = None
    for Z in (16, 32):
        hull = extract_hull(log, est.lambda_hat, p, Z=Z,
                            lambda_halfwidth=est.halfwidth_best)
        rep = verify_hull_axioms(hull, led)
        assert rep.monotone_ok and rep.ordering_ok and rep.displacement_ok
        res = hull_residual(hull, m)
        if res_prev is not None:
            for key in ("r_h", "r_g"):
                assert 1.5 <= res_prev[key] / res[key] <= 2.5
        res_prev = res


def _hull_residual_ref(hull, model):
    """Reference hull residuals, as computed before every layer shared one
    force evaluation: spring constants per type row for a classical model,
    one call per type on its raw neighbour windows for a tabulated one."""
    n, Z, m = hull.n, hull.Z, model.m
    h, g = hull.h[0], hull.g[0]
    win = np.empty((n, Z, 2 * m + 1))
    for t in range(n):
        for s in range(-m, m + 1):
            win[t, :, s + m] = hull_value(hull, t + 1 + s, hull.z_grid, "h")
    kind = model.kind
    if isinstance(kind, ClassicalFK):
        th = np.asarray(kind.theta)
        th_self = th[np.arange(n)][:, None]
        th_next = th[(np.arange(n) + 1) % n][:, None]
        c = win[..., m]
        F = th_next * (win[..., m + 1] - c) - th_self * (c - win[..., m - 1])
        if kind.amplitude != 0.0:
            F += kind.amplitude * np.sin(2.0 * math.pi * c)
        if model.drive != 0.0:
            F += model.drive
    else:
        F = np.array([np.asarray(kind.fn(np.full(Z, t + 1), 0.0, win[t]), dtype=float)
                      for t in range(n)])
        if model.drive != 0.0:
            F = F + model.drive
    lam, a0, dz = hull.lam, model.alpha0, 1.0 / hull.Z

    def d_z(rows):
        prev = np.roll(rows, 1, axis=1)
        prev[:, 0] -= 1.0
        return (rows - prev) / dz

    assert lam >= 0
    return {"r_h": float(np.abs(lam * d_z(h) - a0 * (g - h)).max()),
            "r_g": float(np.abs(lam * d_z(g) - (2.0 * F + a0 * (h - g))).max())}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hull_residual_bytes_match_reference(n):
    """hull_residual is bitwise the reference on a wavy n-type hull, for a
    classical model and for an elementwise batch force."""
    Z = 24
    zg = (np.arange(Z) + 0.5) / Z
    h = np.array([zg + 0.05 * np.sin(2 * math.pi * zg) + 0.1 * t for t in range(n)])
    hull = HullFunction(p=Fraction(2, 3), lam=0.37, z_grid=zg, h=h[None],
                        g=(h + 0.01 * np.cos(2 * math.pi * zg))[None])
    theta = (1.0, 2.0, 0.5)[:n]

    def fn(j, tau, w):
        th = np.asarray(theta)[(np.asarray(j) - 1) % n]
        c = w[..., 1]
        return th * (w[..., 2] - 2.0 * c + w[..., 0]) + 0.3 * np.sin(2 * math.pi * c)

    for model in (fkmodel(theta, A=0.8, L=0.6),
                  fk.build_tabulated(fn, n=n, m=1, m0=0.01, lip_V=10.0,
                                     f_at_zero_sup=0.0, batch=True)):
        got = hull_residual(hull, model)
        want = _hull_residual_ref(hull, model)
        assert {k: float(v).hex() for k, v in got.items()} == \
            {k: v.hex() for k, v in want.items()}


def test_isotonic_residual_shrinks_with_more_snapshots():
    m = fkmodel(L=2.0)
    p = Fraction(1)
    est = fk.rotation_number(m, p, tol=2e-3)
    ch = fk.init_linear(m, p, cells=1)
    dt = fk.cfl_dt(m, 0.5)
    rs = []
    for T in (12.0, 48.0):
        log = fk.run(ch, T, dt, dt=dt, snapshot_stride=1)
        hull = extract_hull(log, est.lambda_hat, p, Z=8)
        rs.append(hull.diagnostics["isotonic_residual"])
    assert rs[-1] <= rs[0] + 1e-12


def test_gh_gap_bounded_by_ledger():
    m = fkmodel(L=2.0, margin=1.2)
    p = Fraction(1)
    est = fk.rotation_number(m, p, tol=1e-3)
    ch = fk.init_linear(m, p, cells=1)
    dt = fk.cfl_dt(m, 0.5)
    log = fk.run(ch, 30.0, dt, dt=dt, snapshot_stride=1)
    hull = extract_hull(log, est.lambda_hat, p, Z=32,
                        lambda_halfwidth=est.halfwidth_best)
    grid_slack = 1.0 / hull.Z
    assert np.abs(hull.g - hull.h).max() <= est.ledger.C4 / m.alpha0 + grid_slack


# ---------------------------------------------------------------------------
# Axioms and access conventions
# ---------------------------------------------------------------------------

def test_identity_hull_axioms_and_values():
    hull = make_identity_hull()
    led = fk.constants_ledger(fkmodel(), p=0.5)
    rep = verify_hull_axioms(hull, led)
    assert rep.all_ok
    assert rep.monotone_worst >= 0.0
    assert hull_value(hull, 1, 0.25) == pytest.approx(0.25)
    # wrap lift
    assert hull_value(hull, 1, 1.25) == pytest.approx(1.25)
    assert hull_value(hull, 1, -0.75) == pytest.approx(-0.75)


@pytest.mark.parametrize("which", ["H", "x", ""])
def test_hull_value_refuses_an_unknown_profile(which):
    with pytest.raises(ValueError, match="which must be 'h' or 'g'"):
        hull_value(make_identity_hull(), 1, 0.25, which)


def test_stationary_readers_refuse_a_tau_dependent_hull():
    zg = (np.arange(8) + 0.5) / 8
    rows = np.tile(zg, (2, 1, 1))
    hull = HullFunction(p=Fraction(1), lam=0.3, z_grid=zg, h=rows, g=rows.copy())
    with pytest.raises(HullExtractionError, match="residuals need an autonomous "
                                                  "hull; this one has 2 tau strata"):
        hull_residual(hull, fkmodel())
    with pytest.raises(HullExtractionError, match="CSV files need an autonomous"):
        hull_to_csv(hull)


def test_hull_residual_differences_downwind_for_negative_lambda():
    """For lambda < 0, D_z is the forward difference across the +1 wrap."""
    Z = 16
    zg = (np.arange(Z) + 0.5) / Z
    h = zg + 0.05 * np.sin(2 * np.pi * zg)
    g = h + 0.02 * np.sin(4 * np.pi * zg) + 0.01 * zg
    lam, m = -0.5, fk.build_constant_force(0.0)
    hull = HullFunction(p=Fraction(1), lam=lam, z_grid=zg, h=h[None, None],
                        g=g[None, None])
    fwd = (np.append(h[1:], h[0] + 1.0) - h) * Z
    bwd = (h - np.insert(h[:-1], 0, h[-1] - 1.0)) * Z
    r_h = hull_residual(hull, m)["r_h"]
    assert r_h == pytest.approx(np.abs(lam * fwd - m.alpha0 * (g - h)).max(), rel=1e-12)
    assert r_h != pytest.approx(np.abs(lam * bwd - m.alpha0 * (g - h)).max(), rel=1e-3)


def test_hull_type_shift_convention():
    hull = make_identity_hull(p=Fraction(1, 2), n=2)
    z = 0.3
    # h_{j+n}(z) = h_j(z + p)
    assert hull_value(hull, 3, z) == pytest.approx(hull_value(hull, 1, z + 0.5))
    assert hull_value(hull, 0, z) == pytest.approx(hull_value(hull, 2, z - 0.5))


def test_corrupted_hull_reports_violation_with_index():
    hull = make_identity_hull(Z=16)
    hull.h[0, 0, 7] = hull.h[0, 0, 6] - 0.2  # deliberate decrease
    led = fk.constants_ledger(fkmodel(), p=0.5)
    rep = verify_hull_axioms(hull, led)
    assert not rep.monotone_ok
    name, k, j, idx = rep.monotone_witness
    assert name == "h" and k == 0 and j == 1 and idx in (6, 7)


def test_epsilon_scaling_of_hull():
    """eps h(z/eps) -> z at grid level: |eps h(z/eps) - z| <= eps max|h - id|."""
    m = fkmodel(L=0.0, margin=1.2)
    p = Fraction(1, 3)
    ch = fk.init_linear(m, p, cells=2)
    log = fk.run(ch, 300.0, 0.25, snapshot_stride=4)
    hull = extract_hull(log, 0.0, p, Z=8, transient=250.0)
    dev = float(np.abs(hull.h - hull.z_grid).max())
    for eps in (0.1, 0.01):
        for z in np.linspace(-1.0, 2.0, 23):
            val = eps * hull_value(hull, 1, z / eps)
            assert abs(val - z) <= eps * dev + 1e-12


def test_reconstruct_identity_and_shift_covariance():
    hull = make_identity_hull(p=Fraction(1, 2), lam=0.25)
    u, g = reconstruct_traveling_wave(hull, tau=2.0, y=3.0, j=1)
    assert u == pytest.approx(0.5 * 3.0 + 0.25 * 2.0)
    assert g == pytest.approx(u)
    # y -> y + 1/p adds exactly one
    u2, g2 = reconstruct_traveling_wave(hull, tau=2.0, y=3.0 + 2.0, j=1)
    assert u2 == pytest.approx(u + 1.0, abs=1e-12)


def test_reconstruction_tracks_simulation(depinned):
    m, p, est, log = depinned
    Z = 32
    hull = extract_hull(log, est.lambda_hat, p, Z=Z,
                        lambda_halfwidth=est.halfwidth_best)
    lifted = np.concatenate([hull.h[0, 0], [hull.h[0, 0][0] + 1.0]])
    cell_value = float(np.abs(np.diff(lifted)).max())
    errs = []
    for tau, U, Xi in log.snapshots[-100:]:
        for i in range(log.final_state.N):
            j = (i % m.n) + 1
            y = (i - (j - 1)) // m.n
            uh, _ = reconstruct_traveling_wave(hull, tau, y, j)
            errs.append(abs(U[i] - uh))
    assert max(errs) <= 3.0 * cell_value


def test_hull_csv_format():
    hull = make_identity_hull(Z=4, n=2)
    text = hull_to_csv(hull)
    lines = text.strip().splitlines()
    assert lines[0] == "j,z,h,g"
    assert len(lines) == 1 + 2 * 4
    j, z, h, g = lines[1].split(",")
    assert j == "1" and float(h) == float(z)


# ---------------------------------------------------------------------------
# tau-periodic forces
# ---------------------------------------------------------------------------

def tau_periodic_model(a=0.5, L=1.0, margin=1.2):
    """Linear springs plus a uniform tau-periodic drive a sin(2 pi tau) + L."""

    def fn(j, tau, w):
        w = np.asarray(w)
        elastic = w[..., 2] - 2.0 * w[..., 1] + w[..., 0]
        return elastic + a * math.sin(2 * math.pi * tau) + L

    from fkhomog.model import build_tabulated
    return build_tabulated(fn, n=1, m=1, m0=1.0 / (2.0 * 4.0 * margin),
                           lip_V=4.0, f_at_zero_sup=a + abs(L), batch=True)


def tau_periodic_log(m):
    ch = fk.init_linear(m, 1, cells=2)
    dt = fk.cfl_dt(m, 0.5, check=False)
    return fk.run(ch, 40.0, dt, dt=dt, snapshot_stride=1, check=False)


def test_stationary_path_refuses_tau_dependent_force():
    m = tau_periodic_model()
    ch = fk.init_linear(m, 1, cells=2)
    log = fk.run(ch, 20.0, 0.25, snapshot_stride=1)
    with pytest.raises(HullExtractionError, match="autonomous"):
        extract_hull(log, 1.0, 1, Z=8)


def test_periodic_extraction_oscillating_drive():
    """For a uniform tau-periodic drive the hull strata are flat in z but the
    offset oscillates with tau."""
    m = tau_periodic_model(a=0.5, L=1.0)
    est = fk.rotation_number(m, 1, tol=5e-3, T_cap=500.0)
    assert est.lambda_hat == pytest.approx(1.0, abs=2e-2)
    log = tau_periodic_log(m)
    hull = extract_hull_periodic(log, est.lambda_hat, 1, Z=8, n_tau=8)
    flat = max(float(np.ptp(hull.h[k][0] - hull.z_grid)) for k in range(8))
    offsets = np.array([float((hull.h[k][0] - hull.z_grid).mean()) for k in range(8)])
    assert flat < 0.05                       # each stratum is near-affine
    assert np.ptp(offsets) > 0.02              # but the offset moves with tau
    # every stratum satisfies the axioms
    assert verify_hull_axioms(hull, est.ledger).all_ok
    u, g = reconstruct_traveling_wave(hull, 0.3, 2.0, 1)
    assert u == pytest.approx(hull_value(hull, 1, 2.0 + est.lambda_hat * 0.3, tau=0.3),
                              abs=1e-12)


def test_periodic_extraction_refuses_empty_stratum():
    m = tau_periodic_model()
    ch = fk.init_linear(m, 1, cells=2)
    # sample exactly at integer tau spacing: only one stratum is ever visited
    log = fk.run(ch, 30.0, 1.0, dt=0.1, snapshot_stride=1, check=False)
    with pytest.raises(HullExtractionError, match="tau stratum"):
        extract_hull_periodic(log, 1.0, 1, Z=4, n_tau=8)


def test_tau_stratum_edge_absorbs_an_ulp():
    """A time an ulp below a stratum edge lies on that edge, for the binning
    of snapshots and the evaluation of the hull alike."""
    assert _stratum(246.74999999999997, 8) == _stratum(246.75, 8) == 6
    assert _stratum(246.99999999999997, 8) == _stratum(247.0, 8) == 0
    assert _stratum(246.7499, 8) == 5
    z = (np.arange(4) + 0.5) / 4
    h = np.array([[z + k] for k in range(8)])
    hull = HullFunction(p=Fraction(1), lam=0.0, z_grid=z, h=h, g=h.copy())
    assert hull_value(hull, 1, 0.5, tau=246.74999999999997) == \
        hull_value(hull, 1, 0.5, tau=246.75) == 6.5


def test_tau_stratum_of_an_array_is_the_scalar_rule_elementwise():
    """The extraction bins its stacked snapshot times in one call; each
    time lands where the scalar rule puts it, edges included."""
    tau = np.array([0.0, 246.74999999999997, 246.75, 246.7499, 246.99999999999997,
                    247.0, 3.125, 1e-10, 0.9999999999])
    want = [int(math.floor((t % 1.0 + 1e-9) * 8)) % 8 for t in tau.tolist()]
    assert _stratum(tau, 8).tolist() == want


def test_decrease_in_one_stratum_fails_the_axioms():
    z = (np.arange(16) + 0.5) / 16
    h = np.tile(z, (8, 2, 1)) + np.array([0.0, 0.25])[:, None]
    hull = HullFunction(p=Fraction(1), lam=0.0, z_grid=z, h=h, g=h.copy())
    led = fk.constants_ledger(fkmodel(), p=1.0)
    assert verify_hull_axioms(hull, led).all_ok
    hull.h[5, 1, 9] = hull.h[5, 1, 8] - 0.2
    rep = verify_hull_axioms(hull, led)
    assert not rep.monotone_ok
    assert rep.monotone_witness[:3] == ("h", 5, 2) and rep.monotone_witness[3] in (8, 9)


# ---------------------------------------------------------------------------
# Parity with the two extractions that the one extraction replaced
# ---------------------------------------------------------------------------

def _grid_snapshots_ref(snaps, model, p: Fraction, lam: float, Z: int,
                        z_grid: np.ndarray):
    """Pool lifted phase samples from snapshots and grid them per type: the
    per-stratum pass that the extraction made before it phased every
    snapshot at once, kept here unchanged as its reference."""
    n = model.n
    q, r = p.numerator, p.denominator
    N = snaps[0][1].size
    idx = np.arange(N)
    types = idx % n
    y = idx // n                      # integer cell index of each particle
    qk = (q * y) % r
    z_rat = qk / r                    # exact rational part of p*y mod 1
    z_int = (q * y) // r

    per_type = {t: ([], [], []) for t in range(n)}
    for tau, U, Xi in snaps:
        s = lam * tau
        w = z_rat + s
        fl = np.floor(w)
        z = w - fl
        lift = z_int + fl
        hs = U - lift
        gs = Xi - lift
        for t in range(n):
            sel = types == t
            per_type[t][0].append(z[sel])
            per_type[t][1].append(hs[sel])
            per_type[t][2].append(gs[sel])

    h = np.empty((n, Z))
    g = np.empty((n, Z))
    iso_residual = 0.0
    for t in range(n):
        z = np.concatenate(per_type[t][0])
        hv = np.concatenate(per_type[t][1])
        gv = np.concatenate(per_type[t][2])
        if z.size < Z:
            need = math.ceil(Z / max(1, z.size // max(1, len(snaps))))
            raise HullExtractionError(
                f"type {t + 1} supplies {z.size} phase samples < Z = {Z}; "
                f"need about {need} snapshots")
        order = np.argsort(z, kind="stable")
        z, hv, gv = z[order], hv[order], gv[order]
        viol_h = float(np.maximum(hv[:-1] - hv[1:], 0.0).max()) if z.size > 1 else 0.0
        viol_g = float(np.maximum(gv[:-1] - gv[1:], 0.0).max()) if z.size > 1 else 0.0
        iso_residual = max(iso_residual, viol_h, viol_g)
        # collapse repeated phases (pinned orbits revisit few of them) before
        # the weighted monotone projection
        z_u, inv, counts = np.unique(z, return_inverse=True, return_counts=True)
        hv = np.bincount(inv, weights=hv) / counts
        gv = np.bincount(inv, weights=gv) / counts
        wts = counts.astype(float)
        hv = _isotonic_periodic(hv, wts)
        gv = _isotonic_periodic(gv, wts)
        h[t] = _resample(z_u, hv, wts, Z, z_grid)
        g[t] = _resample(z_u, gv, wts, Z, z_grid)
    return h, g, iso_residual


def _settled_ref(log, transient=None):
    cut = _transient_cut(log.final_state.model, float(log.sample_times[0]), transient)
    return [s for s in log.snapshots if s[0] >= cut]


def _extract_hull_ref(log, lam, p, *, Z=64, lambda_halfwidth=0.0):
    """The autonomous extraction as a body of its own: (h, g, diagnostics),
    with h and g of shape (n, Z)."""
    p = Fraction(p)
    snaps = _settled_ref(log)
    model = log.final_state.model
    lo, hi = lambda_pm(log, max(log.span / 4.0, log.sample_dt))
    assert hi - lo <= 0.25 and model.is_autonomous
    if lambda_halfwidth > 0.0:
        tau_window = (1.0 / Z) / lambda_halfwidth
        t_end = snaps[-1][0]
        windowed = [s for s in snaps if s[0] >= t_end - tau_window]
        if windowed:
            snaps = windowed
    z_grid = (np.arange(Z) + 0.5) / Z
    h, g, iso = _grid_snapshots_ref(snaps, model, p, lam, Z, z_grid)
    return h, g, {"isotonic_residual": iso, "snapshots_used": len(snaps),
                  "lambda_halfwidth": lambda_halfwidth}


def _extract_hull_periodic_ref(log, lam, p, *, Z=32, n_tau=8):
    """The tau-stratified extraction as a body of its own: no convergence
    test, no window; (h, g, diagnostics) with h and g of shape (n_tau, n, Z)."""
    p = Fraction(p)
    snaps = _settled_ref(log)
    model = log.final_state.model
    bins = [[] for _ in range(n_tau)]
    for s in snaps:
        bins[_stratum(s[0], n_tau)].append(s)
    z_grid = (np.arange(Z) + 0.5) / Z
    h = np.empty((n_tau, model.n, Z))
    g = np.empty((n_tau, model.n, Z))
    worst_iso = 0.0
    for k, group in enumerate(bins):
        assert group
        h[k], g[k], iso = _grid_snapshots_ref(group, model, p, lam, Z, z_grid)
        worst_iso = max(worst_iso, iso)
    return h, g, {"isotonic_residual": worst_iso, "snapshots_used": len(snaps)}


def _assert_same_bytes(hull, ref):
    h, g, diag = ref
    assert hull.h.tobytes() == np.reshape(h, hull.h.shape).tobytes()
    assert hull.g.tobytes() == np.reshape(g, hull.g.shape).tobytes()
    assert json.dumps(hull.diagnostics, sort_keys=True) == json.dumps(diag, sort_keys=True)


def test_periodic_extraction_matches_reference_bytes():
    log = tau_periodic_log(tau_periodic_model(a=0.5, L=1.0))
    hull = extract_hull_periodic(log, 1.0, 1, Z=8, n_tau=8)
    h, g, diag = _extract_hull_periodic_ref(log, 1.0, 1, Z=8, n_tau=8)
    # the one extraction also records the (unused) lambda window
    _assert_same_bytes(hull, (h, g, dict(diag, lambda_halfwidth=0.0)))


def test_depinned_extraction_matches_reference_bytes(depinned):
    m, p, est, log = depinned
    for Z in (16, 32):
        hull = extract_hull(log, est.lambda_hat, p, Z=Z,
                            lambda_halfwidth=est.halfwidth_best)
        _assert_same_bytes(hull, _extract_hull_ref(log, est.lambda_hat, p, Z=Z,
                                                   lambda_halfwidth=est.halfwidth_best))


def test_two_type_extraction_matches_reference_bytes():
    m = fkmodel(theta=(1.0, 2.0), L=2.0)
    p = Fraction(1)
    est = fk.rotation_number(m, p, tol=2e-3)
    dt = fk.cfl_dt(m, 0.5)
    log = fk.run(fk.init_linear(m, p, cells=2), 30.0, dt, dt=dt, snapshot_stride=1)
    for hw in (0.0, est.halfwidth_best):
        hull = extract_hull(log, est.lambda_hat, p, Z=16, lambda_halfwidth=hw)
        _assert_same_bytes(hull, _extract_hull_ref(log, est.lambda_hat, p, Z=16,
                                                   lambda_halfwidth=hw))
    h, g, diag = _extract_hull_periodic_ref(log, est.lambda_hat, p, Z=16, n_tau=4)
    _assert_same_bytes(extract_hull_periodic(log, est.lambda_hat, p, Z=16, n_tau=4),
                       (h, g, dict(diag, lambda_halfwidth=0.0)))


# ---------------------------------------------------------------------------
# Byte pins of the extraction, recorded before it became one array pass
# ---------------------------------------------------------------------------

def _two_type_periodic_model():
    """The tau-periodic two-type m = 2 batch force of the tabulated parity
    pins, driven at L = 2."""
    return fk.with_extra_drive(_two_type_model(), 2.0)


def _two_type_periodic_log():
    """The two-type model marched at p = 3/2 past its transient, then 20
    units with a snapshot every Euler step."""
    driven = _two_type_periodic_model()
    dt = fk.cfl_dt(driven, 0.5, check=False)
    log = fk.run(fk.init_linear(driven, Fraction(3, 2), cells=1),
                 10.0 / driven.alpha0 + 20.0, dt, dt=dt, check=False)
    return fk.extend(log, 20.0, snapshot_stride=1)


def _hull_digests(hull):
    return {name: hashlib.sha256(data).hexdigest() for name, data in (
        ("h", hull.h.tobytes()), ("g", hull.g.tobytes()),
        ("z_grid", hull.z_grid.tobytes()),
        ("diagnostics", json.dumps(hull.diagnostics, sort_keys=True).encode()))}


# case: sha256 of the bytes of h, g and z_grid and of the diagnostics JSON
HULL_PINS = {
    "two_type_periodic": {
        "h": "6189c35d258aea44de562b6976b51696da9b78fe2b557e71676ed0b33297417f",
        "g": "fa93fcd83151b8134783ded701e9c329ac4fde84c97975952a955bc1a13618a3",
        "z_grid": "3285628dfaf21fbb1309344cd190962a18f1879911b56defbef8fdfe5881f552",
        "diagnostics": "c0f243dd0d2d4f1284ebd089d86eceba3725256ac581aa2d48c33896b508c9dc",
    },
    "classical_windowed": {
        "h": "f3cfd2989340485ac42ca21f6c1e8e1159e489153ce72b8dcab152e8b31605cc",
        "g": "2fad9e997ce96ad28f44c3be9cf72490606a01c9832b1b3054b76f06bc5f4f05",
        "z_grid": "3285628dfaf21fbb1309344cd190962a18f1879911b56defbef8fdfe5881f552",
        "diagnostics": "a37ce0f72beb6fab81f00b2e931c7de8178fdadeef9329763a91d57bfb7f5ff9",
    },
}


def test_two_type_periodic_extraction_is_pinned():
    hull = extract_hull(_two_type_periodic_log(), 1.82, Fraction(3, 2), Z=32, n_tau=8)
    assert _hull_digests(hull) == HULL_PINS["two_type_periodic"]


def test_classical_windowed_extraction_is_pinned():
    """n = 2 classical at p = 1/2, one stratum, windowed by a lambda
    half-width of 0.005 (tau window 6.25)."""
    m = fkmodel(theta=(1.0, 2.0), L=2.0)
    p = Fraction(1, 2)
    dt = fk.cfl_dt(m, 0.5)
    log = fk.run(fk.init_linear(m, p, cells=2), 30.0, dt, dt=dt, snapshot_stride=1)
    hull = extract_hull(log, 1.71, p, Z=32, lambda_halfwidth=0.005)
    assert _hull_digests(hull) == HULL_PINS["classical_windowed"]


def test_extraction_refusals_are_pinned():
    log = _two_type_periodic_log()
    with pytest.raises(HullExtractionError) as exc:
        extract_hull(log, 1.82, Fraction(3, 2), Z=4096, n_tau=8)
    assert str(exc.value) == ("type 1 supplies 174 phase samples < Z = 4096; "
                              "need about 2048 snapshots")
    # snapshots every quarter unit fill the even strata of eight only
    driven = _two_type_periodic_model()
    dt = fk.cfl_dt(driven, 0.5, check=False)
    sparse = fk.run(fk.init_linear(driven, Fraction(3, 2), cells=1), 30.0, 0.25,
                    dt=dt, snapshot_stride=1, check=False)
    with pytest.raises(HullExtractionError) as exc:
        extract_hull(sparse, 1.82, Fraction(3, 2), Z=8, n_tau=8)
    assert str(exc.value) == ("tau stratum 1/8 received no snapshots; sample "
                              "faster or longer")
