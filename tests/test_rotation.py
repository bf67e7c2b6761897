"""Rotation brackets, certified widths, and effective Hamiltonian tables."""

import math
from fractions import Fraction

import numpy as np
import pytest

import fkhomog as fk
import fkhomog.chain as chn
from fkhomog.chain import NumericalError
from fkhomog.model import ModelError
from fkhomog.rotation import (EffectiveTable, LogTooShort, depinning_threshold,
                              monotone_in_L_violation, table_to_json, _solve_table)
from oracles import rk4_oracle
from test_acceptance import safe_fk as fkmodel


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
    lr = rk4_oracle(m, ch, 400.0, dt, sample_dt=0.5)
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
            lam = fk.rotation_number(m, p, L_extra=L, tol=1e-6, T_cap=200.0).lambda_hat
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
    # determinism: the sweep equals per-entry runs bit for bit
    m = fkmodel(L=0.0, margin=1.2)
    Ls = [0.0, 1.0, 2.0]
    t1 = _assert_sweep_equals_entries(m, [Fraction(1)], Ls, tol=2e-3)
    assert monotone_in_L_violation(t1) <= 0.0
    assert "max_downward_jump_in_L" in t1.diagnostics


def _assert_sweep_equals_entries(model, p_grid, L_grid, **kw):
    """sweep (one ensemble for the whole table) against one
    rotation_number call per entry: tables, half-widths, flags, ledger refs
    and failure messages must agree bit for bit."""
    table = fk.sweep(model, p_grid, L_grid, **kw)
    # sweep tabulates the distinct grid values in ascending order
    p_grid, L_grid = sorted(set(map(Fraction, p_grid))), sorted(set(map(float, L_grid)))
    nL, nP = len(L_grid), len(p_grid)
    lam, hw = np.full((nL, nP), np.nan), np.full((nL, nP), np.nan)
    conv = np.zeros((nL, nP), dtype=bool)
    refs, failures = [], []
    for i, L in enumerate(L_grid):
        for j, p in enumerate(p_grid):
            try:
                est = fk.rotation_number(model, p, L_extra=float(L), **kw)
            except NumericalError as exc:
                refs.append({})
                failures.append({"L": float(L), "p": str(Fraction(p)),
                                 "error": str(exc)})
                continue
            lam[i, j], hw[i, j], conv[i, j] = (est.lambda_hat, est.halfwidth_best,
                                               est.converged)
            refs.append({"C2": est.ledger.C2, "C4": est.ledger.C4,
                         "K1": est.ledger.K1, "T": est.T})
    assert table.lam.tobytes() == lam.tobytes()
    assert table.halfwidths.tobytes() == hw.tobytes()
    assert np.array_equal(table.converged, conv)
    assert table.ledger_refs == refs
    assert table.failures == failures
    return table


def test_sweep_equals_entries_depinning_grid():
    m = fkmodel(L=0.0, margin=1.15)
    table = _assert_sweep_equals_entries(m, [Fraction(1)], [0.25 * k for k in range(13)],
                                         tol=2e-3, T_cap=800.0, cells=2)
    assert table.converged.all()
    # the entries retire at different doublings
    assert len({ref["T"] for ref in table.ledger_refs}) > 1


def test_sweep_equals_entries_two_types_mixed_rings():
    m = fkmodel((1.0, 1.6), A=0.8, L=0.3, margin=1.2)
    p_grid = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    _assert_sweep_equals_entries(m, p_grid, [-1.0, 0.0, 2.5], tol=2e-3, T_cap=200.0)
    # one L: every p-group is a single row
    _assert_sweep_equals_entries(m, p_grid, [1.5], tol=2e-3, T_cap=200.0)


#: the p grid of the eps_pipeline benchmark table (m0 at 1/1.1 of critical, L = 2)
_EPS_PIPELINE_P = [Fraction(4, 5), Fraction(9, 10), Fraction(1), Fraction(9, 8),
                   Fraction(5, 4)]


def test_sweep_equals_entries_mixed_rings_one_table():
    """Seven slopes on six ring sizes in one table, cells = 2 (N from 2 to
    20); p = 1 and p = 2 share N = 2 but not the twist Q."""
    m = fkmodel(margin=1.1)
    p_grid = _EPS_PIPELINE_P + [Fraction(1, 3), Fraction(2)]
    table = _assert_sweep_equals_entries(m, p_grid, [0.0, 0.5, 2.0], tol=2e-3,
                                         T_cap=2000.0, cells=2)
    assert table.converged.all()
    assert len({ref["T"] for ref in table.ledger_refs}) > 2


def test_sweep_equals_entries_mixed_rings_failing_rows():
    """Rows of two ring sizes fail in different check blocks (p = 1/2, L = 1
    in the first, p = 1, L = 1 in the second); failures and their messages
    are the per-entry ones, in row-major (L, p) order."""
    m = _blow_up_model()
    with np.errstate(over="ignore", invalid="ignore"):
        table = _assert_sweep_equals_entries(
            m, [Fraction(1, 2), Fraction(1)], [-0.5, 0.0, 0.5, 1.0, 40.0],
            tol=1e-3, T_cap=100.0)
    assert [(f["L"], f["p"]) for f in table.failures] == [
        (0.5, "1/2"), (0.5, "1"), (1.0, "1/2"), (1.0, "1"), (40.0, "1/2"), (40.0, "1")]
    assert table.converged[:2].all()


def test_table_solver_logs_hold_their_own_ring():
    """Every log the table solver yields holds its row's ring alone and
    reproduces its bracket; a failing row's last finite state is its own
    ring too."""
    m = fkmodel((1.0, 1.6), A=0.8, L=0.3, margin=1.2)
    pairs = [(L, p) for L in (-1.0, 2.5) for p in (Fraction(1, 2), Fraction(3, 2),
                                                    Fraction(1), Fraction(2, 3))]
    seen = set()
    for i, est in _solve_table(m, pairs, 2e-3, 200.0, cells=2):
        seen.add(i)
        ring = fk.init_linear(m, pairs[i][1], cells=2)
        assert est.log.final_state.U.shape == est.log.final_state.Xi.shape == (ring.N,)
        assert (est.log.final_state.N, est.log.final_state.Q) == (ring.N, ring.Q)
        assert fk.lambda_pm(est.log, est.T) == (est.lambda_minus, est.lambda_plus)
    assert seen == set(range(len(pairs)))
    with np.errstate(over="ignore", invalid="ignore"):
        errors = dict(_solve_table(_blow_up_model(), [(40.0, Fraction(1)),
                                                      (40.0, Fraction(1, 3))],
                                   1e-3, 100.0))
    assert [err.snapshot[0].shape for err in errors.values()] == [(1,), (3,)]


def test_table_estimates_own_their_logs():
    """Rows that retire at one stage march in one buffer, yet every
    estimate's log owns its arrays: no two share memory, and keeping one
    estimate keeps no stage buffer alive."""
    m = fkmodel(L=0.0, margin=1.15)
    pairs = [(0.25 * k, p) for k in range(8) for p in (Fraction(1), Fraction(1, 2))]
    ests = [est for _, est in _solve_table(m, pairs, 2e-3, 800.0, cells=2)]
    assert len(ests) == len(pairs) > len({est.T for est in ests}) > 1
    held = [(est.log.sample_times, est.log.tracked, est.log.final_state.U,
             est.log.final_state.Xi) for est in ests]
    for arrays in held:
        assert all(x.base is None for x in arrays)
    for i, a in enumerate(held):
        for b in held[i + 1:]:
            assert not any(np.shares_memory(x, y) for x in a for y in b)


def test_sweep_marches_the_table_once(monkeypatch):
    """The eps_pipeline table takes as many fused classical steps as its
    longest entry has Euler steps (2T / sample_dt), not one march per p
    column."""
    calls = []
    affine_step = chn._affine_step

    def counted(*args, **kwargs):
        calls.append(1)
        return affine_step(*args, **kwargs)

    monkeypatch.setattr(chn, "_affine_step", counted)
    m = fkmodel(margin=1.1)
    table = fk.sweep(m, _EPS_PIPELINE_P, [2.0], tol=2e-3)
    h = fk.cfl_dt(m, 0.5, check=False)
    steps = [round(2.0 * ref["T"] / h) for ref in table.ledger_refs]
    assert len(set(steps)) > 1
    assert len(calls) == max(steps) < sum(steps)


@pytest.mark.parametrize("call", [
    lambda m: fk.sweep(m, [1], [math.nan]),
    lambda m: fk.sweep(m, [1], [math.inf]),
    lambda m: fk.sweep(m, [1], [0.0, -math.inf]),
    lambda m: fk.rotation_number(m, 1, math.nan),
])
def test_non_finite_drive_fails_loudly(call):
    with pytest.raises(ModelError, match="drive must be finite"):
        call(fkmodel(margin=1.2))


_THETA2 = np.array([1.0, 0.6])


def _two_type_m2_force(j, tau, w):
    """n = 2, m = 2 batch force with a tau-periodic drive."""
    w = np.asarray(w, dtype=float)
    j = np.asarray(j)
    c = w[..., 2]
    return (_THETA2[j % 2] * (w[..., 3] - c) - _THETA2[(j - 1) % 2] * (c - w[..., 1])
            + 0.2 * (w[..., 4] - c) - 0.2 * (c - w[..., 0])
            + 0.8 * np.sin(2 * math.pi * c) + 0.3 * np.sin(2 * math.pi * tau))


def test_sweep_equals_entries_tabulated_batch_tau_periodic():
    lip = 2.0 * (_THETA2.sum() + 0.4) + 2 * math.pi * 0.8
    m = fk.build_tabulated(_two_type_m2_force, n=2, m=2, m0=0.03, lip_V=lip,
                           f_at_zero_sup=0.3, batch=True)
    _assert_sweep_equals_entries(m, [Fraction(1), Fraction(3, 2)], [0.0, 2.0],
                                 tol=2e-3, T_cap=200.0)


@pytest.mark.parametrize("p,L", [(Fraction(3, 2), 2.0), (Fraction(1), 1.0)])
def test_tau_periodic_bracket_is_that_of_one_run(p, L):
    """Every doubling stage counts its samples from the chain's start, so the
    bracket of a tau-periodic entry is lambda_pm of one plain run of 2T."""
    lip = 2.0 * (_THETA2.sum() + 0.4) + 2 * math.pi * 0.8
    m = fk.build_tabulated(_two_type_m2_force, n=2, m=2, m0=0.03, lip_V=lip,
                           f_at_zero_sup=0.3, batch=True)
    est = fk.rotation_number(m, p, L_extra=L, tol=2e-3, T_cap=200.0)
    assert len(est.history) > 1
    h = fk.cfl_dt(m, 0.5, check=False)
    driven = fk.with_extra_drive(m, L)
    log = fk.run(fk.init_linear(driven, p), 2.0 * est.T, h, dt=h, check=False)
    lo, hi = fk.lambda_pm(log, est.T)
    assert (lo, hi) == (est.lambda_minus, est.lambda_plus)
    assert fk.sweep(m, [p], [L], tol=2e-3, T_cap=200.0).lam[0, 0] == 0.5 * (lo + hi)


def _estimate_case(kind):
    """(model, p, L): the README model at L = 2, or the tau-periodic entry of
    test_tau_periodic_bracket_is_that_of_one_run."""
    if kind == "classical":
        m = fk.build_classical_fk([1.0], amplitude=1.0, m0=0.025)
        return m, Fraction(1), 2.0, dict(tol=2e-3, T_cap=2000.0)
    lip = 2.0 * (_THETA2.sum() + 0.4) + 2 * math.pi * 0.8
    m = fk.build_tabulated(_two_type_m2_force, n=2, m=2, m0=0.03, lip_V=lip,
                           f_at_zero_sup=0.3, batch=True)
    return m, Fraction(3, 2), 2.0, dict(tol=2e-3, T_cap=200.0)


@pytest.mark.parametrize("kind", ["classical", "tau_periodic"])
def test_estimate_log_is_the_certified_run(kind):
    """est.log is the run of 2T the bracket was read from, and extending it
    by S samples gives one fresh run of 2T + S, snapshots included."""
    m, p, L, kw = _estimate_case(kind)
    est = fk.rotation_number(m, p, L_extra=L, **kw)
    assert fk.lambda_pm(est.log, est.T) == (est.lambda_minus, est.lambda_plus)
    assert est.log.snapshots == [] and est.log.final_state.tau == 2.0 * est.T
    h = fk.cfl_dt(m, 0.5, check=False)
    S = 40
    ext = fk.extend(est.log, S * h, snapshot_stride=1)
    one = fk.run(fk.init_linear(fk.with_extra_drive(m, L), p), 2.0 * est.T + S * h,
                 h, dt=h, snapshot_stride=1, check=False)
    assert np.array_equal(ext.sample_times, one.sample_times)
    assert np.array_equal(ext.tracked, one.tracked)
    assert len(ext.snapshots) == S
    for (ta, Ua, Xa), (tb, Ub, Xb) in zip(ext.snapshots, one.snapshots[-S:]):
        assert ta == tb and np.array_equal(Ua, Ub) and np.array_equal(Xa, Xb)
    assert ext.final_state.tau == one.final_state.tau
    assert np.array_equal(ext.final_state.U, one.final_state.U)
    assert np.array_equal(ext.final_state.Xi, one.final_state.Xi)


def test_sweep_equals_entries_per_window_callable():
    def fn(j, tau, w):
        return (0.9 * (w[2] - 2 * w[1] + w[0]) + 0.5 * math.sin(2 * math.pi * w[1])
                + 0.2 * math.cos(2 * math.pi * tau))

    m = fk.build_tabulated(fn, n=1, m=1, m0=0.01, lip_V=3.6 + math.pi,
                           f_at_zero_sup=0.2, batch=False)
    _assert_sweep_equals_entries(m, [Fraction(1), Fraction(1, 2)], [0.0, 0.7, 1.5],
                                 tol=5e-3, T_cap=100.0)


def _blow_up_model():
    def fn(j, tau, w):
        # a flat ring below U = 3, an exploding force above it
        w = np.asarray(w, dtype=float)
        c = w[..., 1]
        return 0.5 * (w[..., 2] - 2 * c + w[..., 0]) + np.where(c > 3.0, 1e300 * c, 0.0)

    return fk.build_tabulated(fn, n=1, m=1, m0=0.05, lip_V=2.0, f_at_zero_sup=0.0,
                              batch=True)


def test_sweep_isolates_rows_that_blow_up():
    m = _blow_up_model()
    Ls = [-0.5, 0.0, 0.5, 40.0]
    with np.errstate(over="ignore", invalid="ignore"):
        table = _assert_sweep_equals_entries(m, [Fraction(1)], Ls, tol=1e-3,
                                             T_cap=100.0)
        with pytest.raises(NumericalError, match="blew up at tau") as ei:
            fk.rotation_number(m, 1, L_extra=0.5, tol=1e-3, T_cap=100.0)
    # the rows that climb past U = 3 fail (L = 0.5 in the second check block,
    # L = 40 in the first); the others run on untouched
    assert np.isnan(table.lam[2:, 0]).all() and not table.converged[2:, 0].any()
    assert table.ledger_refs[2:] == [{}, {}]
    assert [f["L"] for f in table.failures] == [0.5, 40.0]
    assert table.failures[0]["error"] == str(ei.value)
    assert table.lam[0, 0] == pytest.approx(-0.5, abs=1e-3)
    assert table.lam[1, 0] == 0.0 and table.converged[:2, 0].all()
    # the failed rows are not read as pinned
    assert depinning_threshold(table, 1) == (0.0, math.inf)
    # the error carries the last finite sampled state
    U, Xi = ei.value.snapshot
    assert np.isfinite(U).all() and np.isfinite(Xi).all()


@pytest.mark.parametrize("L", [0.5, 40.0])
def test_block_replay_reports_the_lone_run_state(L):
    """A row that blows up is replayed from its check block's starting
    copy: its error carries the state of a lone run of its driven ring one
    sample before the failing sample k, and a lone run of k samples fails at
    the same tau (L = 0.5 fails in the second check block, L = 40 in the
    first)."""
    m = _blow_up_model()
    h = fk.cfl_dt(m, 0.5, check=False)
    ring = fk.init_linear(fk.with_extra_drive(m, L), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as ei:
            fk.rotation_number(m, 1, L_extra=L, tol=1e-3, T_cap=100.0)
        k = round(ei.value.tau / h)
        log = fk.run(ring, (k - 1) * h, h, check=False)
        with pytest.raises(NumericalError) as lone:
            fk.run(ring, k * h, h, check=False)
    assert ei.value.tau == k * h
    assert (k > chn.CHECK_BLOCK) == (L == 0.5) and k <= 2 * chn.CHECK_BLOCK
    assert log.sample_times.size == k
    U, Xi = ei.value.snapshot
    assert U.tobytes() == log.final_state.U.tobytes()
    assert Xi.tobytes() == log.final_state.Xi.tobytes()
    assert lone.value.tau == ei.value.tau


def test_sweep_on_permuted_grids_equals_sorted_sweep():
    """One layout: a sweep tabulates its grids ascending whatever their order,
    so the readers that assume ascending grids agree on both tables."""
    m = fkmodel(L=0.0, margin=1.2)
    kw = dict(tol=2e-3, T_cap=200.0)
    ps = [Fraction(5, 4), Fraction(4, 5), Fraction(1)]
    table = fk.sweep(m, ps, [2.0, 0.0, 3.0, 1.0], **kw)
    ref = fk.sweep(m, sorted(ps), [0.0, 1.0, 2.0, 3.0], **kw)
    _assert_same_table(table, ref)
    assert monotone_in_L_violation(table) == monotone_in_L_violation(ref) <= 0.0
    for p in ps:
        assert depinning_threshold(table, p, tol=5e-3) == depinning_threshold(ref, p, tol=5e-3)
    assert depinning_threshold(table, 1, tol=5e-3)[0] > -math.inf
    assert table.diagnostics == ref.diagnostics
    assert table.diagnostics["max_downward_jump_in_L"] == 0.0
    assert table.diagnostics["min_p_spacing"] == pytest.approx(0.2)


def test_sweep_lists_failures_in_ascending_order():
    m = _blow_up_model()
    with np.errstate(over="ignore", invalid="ignore"):
        table = fk.sweep(m, [1], [40.0, -0.5, 0.5, 0.0], tol=1e-3, T_cap=100.0)
        ref = fk.sweep(m, [1], [-0.5, 0.0, 0.5, 40.0], tol=1e-3, T_cap=100.0)
    _assert_same_table(table, ref)
    assert [f["L"] for f in table.failures] == [0.5, 40.0]


def test_sweep_tabulates_a_repeated_value_once():
    m = fkmodel(A=0.0, margin=1.2)
    table = fk.sweep(m, [Fraction(1), Fraction(2, 2)], [1.0, 0.0, 1.0], tol=1e-6,
                     T_cap=100.0)
    assert table.p_grid == [Fraction(1)] and table.L_grid.tolist() == [0.0, 1.0]
    assert table.lam.shape == (2, 1) and len(table.ledger_refs) == 2


def _assert_same_table(table, ref):
    assert table.p_grid == ref.p_grid
    assert table.L_grid.tobytes() == ref.L_grid.tobytes()
    for name in ("lam", "halfwidths", "converged"):
        assert getattr(table, name).tobytes() == getattr(ref, name).tobytes()
    assert table.ledger_refs == ref.ledger_refs
    assert table.failures == ref.failures


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


def test_depinning_threshold_reads_only_finite_entries():
    """A failed (NaN) entry is never read as pinned: only finite entries
    bracket the threshold, and finite columns bracket as before."""
    def column(lam):
        return EffectiveTable._from_entries(
            [((L, Fraction(1)), (x, 0.0, True, {}))
             for L, x in zip([0.0, 0.5, 1.0], lam)])

    nan = math.nan
    assert depinning_threshold(column([0.0, nan, 0.3]), 1) == (0.0, 1.0)
    assert depinning_threshold(column([nan, nan, 0.3]), 1) == (-math.inf, 1.0)
    assert depinning_threshold(column([nan] * 3), 1) == (-math.inf, math.inf)
    assert depinning_threshold(column([0.0, 0.0, nan]), 1) == (0.5, math.inf)
    assert depinning_threshold(column([0.0, 0.0, 0.3]), 1) == (0.5, 1.0)
    assert depinning_threshold(column([0.2, 0.0, 0.3]), 1) == (-math.inf, 0.0)
    assert depinning_threshold(column([0.0, 0.0, 0.0]), 1) == (1.0, math.inf)


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
    # diagnostics follow from the entries, so a parsed table carries them too
    assert back.diagnostics == table.diagnostics == meta["diagnostics"]
    assert set(back.diagnostics) == {"max_downward_jump_in_L", "max_p_increment",
                                     "min_p_spacing"}


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


@pytest.mark.parametrize("row,needle", [("nan,1/1,1.0,0.001,1", "finite"),
                                        ("inf,1/1,1.0,0.001,1", "finite"),
                                        ("2.0,1/0,1.0,0.001,1", "'2.0,1/0,1.0,0.001,1'")])
def test_table_from_csv_rejects_bad_keys(row, needle):
    """A non-finite drive or a zero denominator is a ValueError naming it."""
    text = ("L,p,lambda,halfwidth,converged\n"
            "0.0,1/1,0.0,0.001,1\n1.0,1/1,0.5,0.001,1\n")
    with pytest.raises(ValueError, match=needle):
        EffectiveTable.from_csv(text + row + "\n")


@pytest.mark.parametrize("T_cap", [math.nan, math.inf])
def test_non_finite_T_cap_is_refused_before_any_march(monkeypatch, T_cap):
    """2T > T_cap is never true for these, so a row that misses tol (tol = 0
    here) would march forever."""
    def no_march(*args, **kw):
        raise AssertionError("marched")

    monkeypatch.setattr("fkhomog.rotation._advance", no_march)
    m = fkmodel()
    with pytest.raises(ValueError, match="T_cap must be finite"):
        fk.rotation_number(m, 1, L_extra=2.0, tol=0.0, T_cap=T_cap)
    with pytest.raises(ValueError, match="T_cap must be finite"):
        fk.sweep(m, [1], [0.0, 2.0], tol=0.0, T_cap=T_cap)
