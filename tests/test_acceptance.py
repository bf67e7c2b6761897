"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, straight from the statements they verify; every
expected value is either analytically forced, verified upstream, or computed
by an independent oracle in this file.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import fkhomog as fk
from fkhomog.chain import _euler_coeff
from fkhomog.hull import extract_hull, hull_residual, verify_hull_axioms
from fkhomog.macro import HamiltonianInterp, Profile
from oracles import (gradient_sandwich_probe, reconstruct_traveling_wave,
                     rk4_oracle, ring_force)


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def safe_fk(theta=(1.0,), A=1.0, L=0.0, margin=1.1, require_a6=False):
    """Classical model whose mass sits `margin` times inside the a3 bound
    (and the a6 bound, with require_a6)."""
    theta = list(theta)
    n = len(theta)
    alpha_min = max(2 * (theta[j] + theta[(j + 1) % n]) + 4 * math.pi * A
                    for j in range(n))
    if require_a6:
        alpha_min = max(alpha_min, max(4 * t + 4 * math.pi * A for t in theta))
    return fk.build_classical_fk(theta, amplitude=A, drive=L,
                                 m0=1.0 / (2.0 * alpha_min * margin))


def random_monotone_fk(rng, require_a6=True):
    n = int(rng.integers(1, 4))
    theta = rng.uniform(0.4, 2.0, n)
    A = float(rng.uniform(0.0, 1.0))
    L = float(rng.uniform(-1.0, 1.0))
    margin = float(rng.uniform(1.05, 1.4))
    return safe_fk(theta, A, L, margin=margin, require_a6=require_a6)


def comparison_pairs():
    """The 50 random ordered pairs of acceptance 01, as (model, chain a,
    lift of U, lift of Xi): the upper chain is a plus the lifts."""
    rng = np.random.default_rng(20240801)
    for trial in range(50):
        m = random_monotone_fk(rng, require_a6=False)
        den = int(rng.integers(1, 4))
        num = int(rng.integers(1, 2 * den + 1))
        p = Fraction(num, den)
        max_cells = max(1, 60 // (m.n * den))
        cells = int(rng.integers(1, max_cells + 1))
        a = fk.init_linear(m, p, cells=cells)
        assert a.N <= 60
        lift_u = rng.uniform(0.0, 0.3, a.N)
        lift_x = lift_u + rng.uniform(0.0, 0.2, a.N)
        yield m, a, lift_u, lift_x


def test_01_comparison_principle():
    """50 random ordered chain pairs, 1e4 Euler steps at dt = 1/alpha0:
    zero ordering violations between the pairs."""
    worst = 0.0
    for m, a, lift_u, lift_x in comparison_pairs():
        dt = 1.0 / m.alpha0
        c, beta = _euler_coeff(m, dt)
        Ua, Xa = a.U.copy(), a.Xi.copy()
        Ub, Xb = a.U + lift_u, a.Xi + lift_x
        # one ring force each: a classical result lives until the next call
        force_a, force_b = ring_force(m, a.N, a.Q), ring_force(m, a.N, a.Q)
        for _ in range(10_000):
            Fa = force_a(0.0, Ua)
            Fb = force_b(0.0, Ub)
            Ua, Xa = c * Ua + beta * Xa, c * Xa + beta * Ua + 2 * dt * Fa
            Ub, Xb = c * Ub + beta * Xb, c * Xb + beta * Ub + 2 * dt * Fb
        worst = max(worst, float((Ua - Ub).max()), float((Xa - Xb).max()))
    report(1, worst <= 0.0,
           f"comparison violation over 50 pairs x 1e4 steps = {worst:.3g}")


def test_02_particle_ordering():
    """init_linear runs (delta = 0 and delta > 0) keep U, Xi nondecreasing in
    i at every logged time."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for delta in (0.0, 0.5, 1.0):
        for _ in range(3):
            m = random_monotone_fk(rng, require_a6=True)
            p = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            ch = fk.init_linear(m, p, cells=2)
            log = fk.run(ch, 15.0, 0.5, delta=delta, a0=1.0, snapshot_stride=1)
            inv = fk.monitor_invariants(log)
            worst = max(worst, inv.ordering_violation)
    report(2, worst == 0.0, f"worst ordering violation = {worst:.3g}")


def _gap_osc_suite():
    rng = np.random.default_rng(99)
    out = []
    for _ in range(10):
        m = random_monotone_fk(rng, require_a6=True)
        p = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        led = fk.constants_ledger(m, p=float(p))
        ch = fk.init_linear(m, p, cells=2)
        log = fk.run(ch, 30.0, 0.5, snapshot_stride=1)
        inv = fk.monitor_invariants(log, led)
        out.append((m, led, inv))
    return out


SUITE = None


def _suite():
    global SUITE
    if SUITE is None:
        SUITE = _gap_osc_suite()
    return SUITE


def test_03_u_xi_gap_bound():
    """After the transient, max|U - Xi| <= C4/alpha0 on 10 random monotone
    classical configurations."""
    worst = -math.inf
    for m, led, inv in _suite():
        worst = max(worst, inv.u_xi_gap - led.C4 / m.alpha0)
    report(3, worst <= 0.0, f"worst gap excess over C4/alpha0 = {worst:.3g}")


def test_04_space_oscillation_bound():
    """After the transient, max|U_{i+nk} - U_i - p k| <= 1 on the same suite."""
    worst = max(inv.space_osc for _, _, inv in _suite())
    report(4, worst <= 1.0, f"worst space oscillation = {worst:.4f} (bound 1)")


def test_05_rotation_bracket_certification():
    """Every rotation run: width * T <= C2 (+ slack), and brackets computed at
    T and 2T nest within the recorded sampling slack."""
    cases = [
        (fk.build_constant_force(1.2, m0=0.03), Fraction(1), 0.0),
        (safe_fk([1.0], 0.0, 0.0), Fraction(1, 2), 0.7),
        (safe_fk([1.0], 1.0, 0.0), Fraction(1), 0.0),
        (safe_fk([1.0], 1.0, 0.0), Fraction(1), 2.0),
        (safe_fk([1.0, 1.7], 0.6, 0.0, require_a6=True), Fraction(2, 3), 1.5),
    ]
    worst_width = -math.inf
    worst_nest = -math.inf
    for model, p, L in cases:
        est = fk.rotation_number(model, p, L_extra=L, tol=1e-3, T_cap=1500.0)
        for row in est.history:
            width_T = (row["lambda_plus"] - row["lambda_minus"]) * row["T"]
            worst_width = max(worst_width,
                              width_T - est.ledger.C2 - row["slack"] * row["T"])
        for a, b in zip(est.history, est.history[1:]):
            slack = a["slack"] + b["slack"] + 1e-12
            worst_nest = max(worst_nest, a["lambda_minus"] - b["lambda_minus"] - slack,
                             b["lambda_plus"] - a["lambda_plus"] - slack)
    ok = worst_width <= 0.0 and worst_nest <= 0.0
    report(5, ok, f"width*T - C2 worst = {worst_width:.3g}, "
                  f"nesting excess worst = {worst_nest:.3g}")


def test_06_exact_effective_hamiltonians():
    worst_const = 0.0
    for p in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        m = fk.build_constant_force(0.9, m0=0.03)
        est = fk.rotation_number(m, p, tol=1e-4, T_cap=500.0)
        worst_const = max(worst_const, abs(est.lambda_hat - 0.9))

    worst_lin = 0.0
    m_lin = safe_fk([1.0], 0.0, 0.0, margin=1.2)
    for L in (0.0, 0.5, 1.0):
        for p in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            est = fk.rotation_number(m_lin, p, L_extra=L, tol=1e-4, T_cap=500.0)
            worst_lin = max(worst_lin, abs(est.lambda_hat - L))

    m_pin = safe_fk([1.0], 1.0, 0.0)
    pin = abs(fk.rotation_number(m_pin, 1, tol=1e-6).lambda_hat)

    ok = worst_const <= 1e-8 and worst_lin <= 1e-8 and pin <= 1e-6
    report(6, ok, f"|F-L| const = {worst_const:.2g} (<=1e-8), "
                  f"linear = {worst_lin:.2g} (<=1e-8), pinned = {pin:.2g} (<=1e-6)")


DEPINNING_TABLE = None


def _depinning_table():
    global DEPINNING_TABLE
    if DEPINNING_TABLE is None:
        m = safe_fk([1.0], 1.0, 0.0, margin=1.15)
        L_grid = [0.25 * k for k in range(13)]
        DEPINNING_TABLE = (m, fk.sweep(m, [Fraction(1)], L_grid, tol=2e-3,
                                       T_cap=800.0, cells=2))
    return DEPINNING_TABLE


def test_07_lambda_bounded_by_C4():
    """|F(L, p)| <= C4 for every table entry, C4 from the per-entry ledger."""
    _, table = _depinning_table()
    worst = -math.inf
    for idx, ref in enumerate(table.ledger_refs):
        i, j = divmod(idx, len(table.p_grid))
        worst = max(worst, abs(table.lam[i, j]) - ref["C4"])
    report(7, worst <= 0.0, f"worst |lambda| - C4 = {worst:.3g}")


def test_08_monotone_in_L():
    """Classical FK, p = 1, L = 0..3 step 0.25: the lambda column is
    nondecreasing up to twice the certified half-widths."""
    _, table = _depinning_table()
    lam = table.lam[:, 0]
    hw = table.halfwidths[:, 0]
    worst = -math.inf
    for i in range(lam.size - 1):
        worst = max(worst, (lam[i] - lam[i + 1]) - 2.0 * (hw[i] + hw[i + 1]))
    ok = worst <= 0.0 and table.converged.all()
    report(8, ok, f"worst downward step beyond 2x half-widths = {worst:.3g}; "
                  f"lambda range [{lam.min():.3f}, {lam.max():.3f}]")


def _depinned_hull_setup():
    m = safe_fk([1.0], 1.0, 2.0)
    p = Fraction(1)
    est = fk.rotation_number(m, p, tol=1e-3, safety=0.1, T_cap=1500.0)
    dt = fk.cfl_dt(m, 0.1)
    ch = fk.init_linear(m, p, cells=1)
    log = fk.run(ch, 40.0, 5 * dt, dt=dt, snapshot_stride=1)
    return m, p, est, log


def test_09_hull_axioms_and_residual_refinement():
    m, p, est, log = _depinned_hull_setup()
    ratios = []
    prev = None
    axiom_ok = True
    disp_ok = True
    for Z in (16, 32):
        hull = extract_hull(log, est.lambda_hat, p, Z=Z,
                            lambda_halfwidth=est.halfwidth_best)
        rep = verify_hull_axioms(hull, est.ledger)
        axiom_ok &= rep.monotone_ok and rep.ordering_ok
        disp_ok &= rep.displacement_ok
        res = hull_residual(hull, m)
        if prev is not None:
            ratios += [prev["r_h"] / res["r_h"], prev["r_g"] / res["r_g"]]
        prev = res
    refine_ok = all(1.5 <= r <= 2.5 for r in ratios)
    ok = axiom_ok and disp_ok and refine_ok
    report(9, ok, f"axioms ok = {axiom_ok}, |h-id| bound ok = {disp_ok}, "
                  f"Z->2Z residual ratios = {[f'{r:.2f}' for r in ratios]}")


def test_10_closed_loop_reconstruction():
    m, p, est, log = _depinned_hull_setup()
    Z = 32
    hull = extract_hull(log, est.lambda_hat, p, Z=Z,
                        lambda_halfwidth=est.halfwidth_best)
    lifted = np.concatenate([hull.h[0, 0], [hull.h[0, 0][0] + 1.0]])
    cell_value = float(np.abs(np.diff(lifted)).max())
    N = log.final_state.N
    worst = 0.0
    for tau, U, Xi in log.snapshots[-100:]:
        for i in range(N):
            j = (i % m.n) + 1
            y = (i - (j - 1)) // m.n
            uh, _ = reconstruct_traveling_wave(hull, tau, y, j)
            worst = max(worst, abs(U[i] - uh))
    ok = worst <= 3.0 * cell_value
    report(10, ok, f"reconstruction error {worst:.4f} <= 3 cells = {3 * cell_value:.4f}")


def test_11_delta_gradient_bound():
    """delta-runs keep the one-cell forward difference of Xi at or under
    (p + 2 L_F / delta) x 1.05."""
    m = safe_fk([1.0], 1.0, 2.0)
    worst_ratio = 0.0
    for delta in (0.25, 0.5, 1.0):
        ch = fk.init_linear(m, 1, cells=4)
        log = fk.run(ch, 25.0, 0.5, delta=delta, a0=0.0, snapshot_stride=1)
        inv = fk.monitor_invariants(log)
        bound = 1.0 + 2.0 * m.lip_V / delta
        worst_ratio = max(worst_ratio, inv.delta_gradient / bound)
    report(11, worst_ratio <= 1.05, f"worst gradient/bound ratio = {worst_ratio:.4f}")


def test_12_eps_gradient_sandwich():
    """100 random (t, x, z) probes per run satisfy the floor/ceil sandwich,
    evaluated at the displacement the lattice actually resolves."""
    m = safe_fk([1.0], 1.0, 2.0, margin=1.2)
    u0 = Profile.from_callable(
        lambda x: x + 0.18 * math.sin(2 * math.pi * x / 10.0) * 10.0 / (2 * math.pi),
        -5.0, 5.0, 513)
    K0 = 1.25
    ok = True
    detail = []
    for eps in (0.1, 0.05):
        field = fk.rescale_micro(m, 0.0, eps, u0, T=0.5, window=(-5.0, 5.0),
                                 t_record=[0.25, 0.5], K0=K0)
        rep = gradient_sandwich_probe(field, K0=K0, n_type=m.n,
                                      rng=np.random.default_rng(123), n_probes=100)
        ok &= rep["ok"]
        detail.append(f"eps={eps}: slack=({rep['slack_lower']:.3g},{rep['slack_upper']:.3g})")
    report(12, ok, "; ".join(detail))


def test_13_homogenization_convergence():
    """Depinned classical FK, eps_k = 0.1 / 2^k, k = 0..3, T = 1: sup errors
    on t in [0.5, 1] strictly decrease (rates reported, none asserted)."""
    m = safe_fk([1.0], 1.0, 0.0)
    L = 2.0
    pgrid = [Fraction(4, 5), Fraction(9, 10), Fraction(1), Fraction(9, 8),
             Fraction(5, 4)]
    table = fk.sweep(m, pgrid, [L], tol=1e-3, T_cap=1000.0)
    H = HamiltonianInterp.from_table(table, L)
    u0 = Profile.from_callable(
        lambda x: x + 0.18 * math.sin(2 * math.pi * x / 10.0) * 10.0 / (2 * math.pi),
        -5.0, 5.0, 513)
    eps_list = [0.1 * 2.0 ** (-k) for k in range(4)]
    rep = fk.convergence_study(m, L, u0, eps_list, 1.0, (-5.0, 5.0), H)
    decreasing = all(a > b for a, b in zip(rep.errors, rep.errors[1:]))
    report(13, decreasing,
           f"errors = {[f'{e:.4f}' for e in rep.errors]}, "
           f"measured rates = {[f'{r:.2f}' for r in rep.rates]} (reported, not asserted)")


def test_14_ledger_identity():
    """C3 = C2 + 1 and the closed form agree exactly on 100 random tuples."""
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        theta = rng.uniform(0.1, 4.0, n)
        m = fk.build_classical_fk(theta, amplitude=float(rng.uniform(0, 2)),
                                  drive=float(rng.uniform(-3, 3)),
                                  m0=float(rng.uniform(0.001, 0.2)))
        p = Fraction(int(rng.integers(1, 17)), int(rng.integers(1, 17)))
        ok &= fk.ledger_identity_exact(m, p, M0=float(rng.uniform(0, 1)))
    report(14, ok, "closed-form C3 identity exact on 100 random tuples")


def test_15_oracle_equivalence():
    """Euler vs RK4 over tau in [0, 50] on three classical configurations:
    sup error <= 5 dt, halving within 20% when dt halves."""
    configs = [
        ([1.0], 1.0, 2.0, 0.01),
        ([2.0], 1.0, 2.0, 0.01),
        ([1.0], 0.5, 2.0, 0.02),
    ]
    dt = 0.002
    ok = True
    details = []
    for theta, A, L, m0 in configs:
        m = fk.build_classical_fk(theta, amplitude=A, drive=L, m0=m0)
        ch = fk.init_linear(m, 1, cells=4)

        def sup_err(step):
            le = fk.run(ch, 50.0, 0.5, dt=step)
            lr = rk4_oracle(m, ch, 50.0, step, sample_dt=0.5)
            return max(np.abs(le.tracked_u - lr.tracked_u).max(),
                       np.abs(le.tracked_xi - lr.tracked_xi).max())

        e1, e2 = sup_err(dt), sup_err(dt / 2.0)
        ratio = e1 / e2
        case_ok = e1 <= 5.0 * dt and 1.6 <= ratio <= 2.4
        ok &= case_ok
        details.append(f"{theta}/{A}/{L}: err={e1:.4f} (<= {5 * dt}), ratio={ratio:.2f}")
    report(15, ok, "; ".join(details))
