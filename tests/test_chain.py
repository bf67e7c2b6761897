"""Twisted chains, the monotone Euler integrator, and the RK4 oracle."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fkhomog as fk
from fkhomog import chain as chn
from fkhomog.chain import (CHECK_BLOCK, NumericalError, TwistedChain,
                           snapshot_to_csv, trajectory_to_csv, _advance, _clock,
                           _euler_coeff, _euler_update, _euler_views, _flat_gather,
                           _neighbours, _start_log, _state_ordering_violation)
from fkhomog.macro import _march_plan
from fkhomog.model import ClassicalFK, ModelError, _drive, _force, _plan
from oracles import rk4_oracle, ring_force
from test_acceptance import comparison_pairs, safe_fk as fkmodel
from test_rotation import _blow_up_model


# ---------------------------------------------------------------------------
# init_linear
# ---------------------------------------------------------------------------

def test_init_linear_unit_slope():
    m = fkmodel()
    ch = fk.init_linear(m, 1, cells=10)
    assert ch.N == 10 and ch.Q == 10
    assert np.allclose(ch.U, np.arange(10), atol=0)
    assert ch.p == Fraction(1)


def test_init_linear_two_types():
    m = fkmodel((1.0, 2.0))
    ch = fk.init_linear(m, Fraction(3, 5), cells=2)
    assert ch.N == 20 and ch.Q == 6
    assert ch.U[1] - ch.U[0] == pytest.approx(0.3)
    assert ch.p == Fraction(3, 5)
    assert Fraction(m.n * ch.Q, ch.N) == ch.p


def test_init_linear_seam_ordering():
    m = fkmodel()
    # N = 1 with a large shift: still ordered across the seam (U0 + Q > U0)
    ch = fk.init_linear(m, 1, cells=1, perturbation=[0.4])
    assert ch.N == 1
    assert ch.U[0] == pytest.approx(0.4)
    # breaking the seam is rejected: spacing p = 1 with jump > 1
    with pytest.raises(ModelError):
        fk.init_linear(m, 1, cells=2, perturbation=[0.0, 1.5])


def test_init_linear_rejects_bad_slope():
    m = fkmodel()
    with pytest.raises(ModelError):
        fk.init_linear(m, Fraction(-1, 2))
    with pytest.raises(ModelError):
        fk.init_linear(m, 1, cells=0)


def test_init_linear_rejects_a_bad_perturbation():
    m = fkmodel()
    with pytest.raises(ModelError, match="perturbation must have length N = 2"):
        fk.init_linear(m, 1, cells=2, perturbation=[0.0])
    # U = (0, -0.5, 2): out of order inside the ring, not at the seam
    with pytest.raises(ModelError, match="initial U not strictly increasing at i=0"):
        fk.init_linear(m, 1, cells=3, perturbation=[0.0, -1.5, 0.0])


def test_twisted_chain_refuses_inconsistent_data():
    m2 = fkmodel((1.0, 2.0))
    ch = fk.init_linear(m2, Fraction(1, 2), cells=2)
    with pytest.raises(ModelError, match="positive multiple of n"):
        TwistedChain(3, 1, np.arange(3.0), np.arange(3.0), 0.0, Fraction(2, 3), m2)
    with pytest.raises(ModelError, match="twist/slope mismatch"):
        TwistedChain(ch.N, ch.Q + 1, ch.U, ch.Xi, 0.0, ch.p, m2)
    with pytest.raises(ModelError, match="state arrays must have shape"):
        TwistedChain(ch.N, ch.Q, ch.U[:-1], ch.Xi, 0.0, ch.p, m2)


@pytest.mark.parametrize("sample_dt", [0.0, -0.5])
def test_run_refuses_a_nonpositive_sample_spacing(sample_dt):
    ch = fk.init_linear(fkmodel(), 1, cells=2)
    with pytest.raises(ModelError, match="sample_dt must be positive"):
        fk.run(ch, 1.0, sample_dt)


# ---------------------------------------------------------------------------
# CFL and single steps
# ---------------------------------------------------------------------------

def test_cfl_dt_formula():
    m = fk.build_classical_fk([1.0], amplitude=0.0, drive=0.0, m0=0.05)
    assert fk.cfl_dt(m, 1.0) == pytest.approx(0.1)
    a0 = 4.0 + 4.0 * math.pi
    m2 = fk.build_classical_fk([1.0], amplitude=1.0, drive=0.0, m0=1 / (2 * a0))
    assert fk.cfl_dt(m2, 0.5) == pytest.approx(0.5 / a0)
    with pytest.raises(ModelError):
        fk.cfl_dt(m, 1.5)


def test_cfl_refuses_non_monotone_model():
    m = fk.build_classical_fk([1.0], amplitude=1.0, drive=0.0, m0=0.05)
    with pytest.raises(ModelError):
        fk.cfl_dt(m)


@pytest.mark.parametrize("a0", [60.0, 50.0])
def test_cfl_dt_refuses_negative_delta(a0):
    """A negative delta would lengthen the step (a0 = 60 gave -0.1 at
    alpha0 = 50) or divide by zero (a0 = 50); it is refused."""
    m = fk.build_classical_fk([1.0], amplitude=0.0, m0=0.01)
    assert m.alpha0 == 50.0
    with pytest.raises(ModelError, match="delta must be nonnegative"):
        fk.cfl_dt(m, delta=-1.0, a0=a0, check=False)


def test_step_fixed_point_zero_force():
    m = fk.build_constant_force(0.0, m0=0.05)
    ch = TwistedChain(4, 4, np.full(4, 2.5) + np.arange(4), np.full(4, 2.5) + np.arange(4),
                      0.0, Fraction(1), m)
    out = fk.step(ch, fk.cfl_dt(m, 0.5))
    assert np.array_equal(out.U, ch.U)
    assert np.array_equal(out.Xi, ch.Xi)
    assert out.tau == pytest.approx(fk.cfl_dt(m, 0.5))


def test_step_constant_force_travels_at_L():
    """Adding the two equations gives (U+Xi)' = 2F, so the steady speed is L."""
    L = 1.3
    m = fk.build_constant_force(L, m0=0.05)
    ch = fk.init_linear(m, 1, cells=4)
    log = fk.run(ch, 30.0, 0.5)
    t = log.sample_times
    drift = log.tracked_u[0] - log.tracked_u[0][0] - L * t
    # transient bounded by the u-xi relaxation scale
    assert np.abs(drift[t > 5 / m.alpha0]).max() < 0.1


def test_step_flags_super_cfl_dt():
    m = fkmodel()
    ch = fk.init_linear(m, 1, cells=4)
    with pytest.warns(UserWarning):
        fk.step(ch, 2.0 / m.alpha0)


def test_run_flags_super_cfl_dt():
    m = fkmodel()
    ch = fk.init_linear(m, 1, cells=4)
    dt = 2.0 / m.alpha0
    with pytest.warns(UserWarning, match="CFL"):
        fk.run(ch, 5 * dt, dt, dt=dt, check=False)


def test_run_flags_super_cfl_dt_at_zero_duration():
    """The clock is cut, and its step checked, before any sample is taken;
    the warning names the line that called run."""
    m = fkmodel()
    ch = fk.init_linear(m, 1, cells=4)
    dt = 2.0 / m.alpha0
    with pytest.warns(UserWarning, match="CFL") as rec:
        log = fk.run(ch, 0.0, dt, dt=dt, check=False)
    assert rec[0].filename == __file__
    assert log.sample_times.size == 1
    with pytest.raises(ModelError):
        fk.run(ch, 0.0, dt, delta=-1.0, check=False)


def test_cfl_warning_names_the_caller_of_step_run_and_extend():
    """Each super-CFL call warns at its own line, step's included."""
    m = fkmodel()
    ch = fk.init_linear(m, 1, cells=4)
    dt = 2.0 / m.alpha0
    with pytest.warns(UserWarning, match="CFL") as rec:
        fk.step(ch, dt)
        log = fk.run(ch, 2 * dt, dt, dt=dt, check=False)
        fk.extend(log, 2 * dt)
    assert len(rec) == 3
    assert [w.filename for w in rec] == [__file__] * 3
    assert len({w.lineno for w in rec}) == 3


def test_delta_tightens_cfl_warning():
    """The delta term lowers the monotone bound to 1/(alpha0 + delta a0^+):
    dt = 1/alpha0 is fine without it and flagged with it, in step and run."""
    m = fkmodel(L=1.0)
    ch = fk.init_linear(m, 1, cells=4)
    delta, a0 = 0.5, 2.0
    dt = 1.0 / m.alpha0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fk.step(ch, dt)
        fk.step(ch, dt, delta=delta, a0=-1.0)
        safe = fk.cfl_dt(m, delta=delta, a0=a0)
        fk.run(ch, 4 * safe, safe, dt=safe, delta=delta, a0=a0, check=False)
    assert safe == 1.0 / (m.alpha0 + delta * a0)
    with pytest.warns(UserWarning, match="CFL"):
        fk.step(ch, dt, delta=delta, a0=a0)
    with pytest.warns(UserWarning, match="CFL"):
        fk.run(ch, 4 * dt, dt, dt=dt, delta=delta, a0=a0, check=False)


def test_negative_delta_rejected():
    m = fkmodel(L=1.0)
    ch = fk.init_linear(m, 1, cells=4)
    with pytest.raises(ModelError):
        fk.step(ch, fk.cfl_dt(m, 0.5), delta=-0.5, a0=1.0)
    with pytest.raises(ModelError):
        fk.run(ch, 1.0, 0.5, delta=-0.5, a0=1.0, check=False)


def test_step_detects_blowup():
    m = fk.build_constant_force(1e200, m0=0.05)
    ch = fk.init_linear(m, 1, cells=4)
    with pytest.raises(NumericalError) as ei, np.errstate(over="ignore"):
        ch2 = fk.step(ch, 0.05)
        with pytest.warns(UserWarning, match="CFL bound"):
            fk.step(ch2, 1e160)
    assert ei.value.tau is not None


def test_run_zero_duration_returns_initial_sample():
    m = fkmodel()
    ch = fk.init_linear(m, 1, cells=4)
    log = fk.run(ch, 0.0, 0.5)
    assert log.sample_times.size == 1
    assert np.array_equal(log.final_state.U, ch.U)


def test_run_matches_repeated_steps_bitwise():
    m = fkmodel(L=2.0)
    ch = fk.init_linear(m, 1, cells=4)
    for delta in (0.0, 0.5):
        dt = fk.cfl_dt(m, 0.5, delta=delta, a0=1.0)
        log = fk.run(ch, 10 * dt, dt, dt=dt, delta=delta, a0=1.0)
        cur = ch
        for _ in range(10):
            cur = fk.step(cur, dt, delta=delta, a0=1.0)
        assert np.array_equal(log.final_state.U, cur.U)
        assert np.array_equal(log.final_state.Xi, cur.Xi)


def test_extend_is_bitwise_continuation():
    m = fkmodel(L=2.0)
    ch = fk.init_linear(m, 1, cells=4)
    log_a = fk.run(ch, 20.0, 0.25)
    log_b = fk.extend(fk.run(ch, 8.0, 0.25), 12.0)
    assert np.array_equal(log_a.tracked_u, log_b.tracked_u)
    assert np.array_equal(log_a.final_state.Xi, log_b.final_state.Xi)


def _extend_case(kind):
    """A chain and its CFL step: classical, or the tau-periodic two-type
    tabulated force of the force-profile tests."""
    if kind == "classical":
        m = fkmodel(L=2.0)
    else:
        m = fk.build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=10.0,
                               f_at_zero_sup=0.3, batch=True)
    return fk.init_linear(m, 1, cells=2), fk.cfl_dt(m, check=False)


def _assert_logs_equal(a, b):
    assert np.array_equal(a.sample_times, b.sample_times)
    assert np.array_equal(a.tracked, b.tracked)
    assert len(a.snapshots) == len(b.snapshots)
    for (ta, Ua, Xa), (tb, Ub, Xb) in zip(a.snapshots, b.snapshots):
        assert ta == tb
        assert np.array_equal(Ua, Ub) and np.array_equal(Xa, Xb)
    assert a.final_state.tau == b.final_state.tau
    assert np.array_equal(a.final_state.U, b.final_state.U)
    assert np.array_equal(a.final_state.Xi, b.final_state.Xi)


@pytest.mark.parametrize("kind", ["classical", "tau_periodic"])
@pytest.mark.parametrize("h", [0.25, 0.1, "cfl"])
def test_extend_equals_one_longer_run(kind, h):
    """extend counts its samples from the log's first one: times, series,
    snapshots and final state are those of one run of the summed length."""
    ch, cfl = _extend_case(kind)
    dt = cfl if h == "cfl" else None
    h = cfl if h == "cfl" else h
    ext = fk.extend(fk.run(ch, 8.0, h, dt=dt, snapshot_stride=1, check=False),
                    12.0, snapshot_stride=1)
    one = fk.run(ch, (ext.sample_times.size - 1) * h, h, dt=dt,
                 snapshot_stride=1, check=False)
    _assert_logs_equal(ext, one)


def test_extend_strides_count_from_the_first_sample():
    """A 10-sample run extended with stride 4 holds the snapshots of one run
    with stride 4: samples 0, 4, ..., 20, not 10 + 4k."""
    ch, _ = _extend_case("classical")
    ext = fk.extend(fk.run(ch, 2.5, 0.25, snapshot_stride=4), 2.5,
                    snapshot_stride=4)
    one = fk.run(ch, 5.0, 0.25, snapshot_stride=4)
    _assert_logs_equal(ext, one)
    assert [t for t, _, _ in ext.snapshots] == [0.25 * k for k in range(0, 21, 4)]


def test_marches_leave_the_caller_state_as_it_was():
    """Every march writes its own copy of the state it starts from: one
    certified log extended twice gives one log bitwise and keeps its bytes,
    and run leaves its chain's arrays as they were."""
    m = fkmodel(L=2.0)
    log = fk.rotation_number(m, Fraction(1, 2), tol=2e-3, T_cap=200.0,
                             cells=2).log
    held = (log.final_state.U, log.final_state.Xi, log.tracked)
    before = [x.tobytes() for x in held]
    a, b = (fk.extend(log, 20 * log.sample_dt, snapshot_stride=1)
            for _ in range(2))
    assert [x.tobytes() for x in held] == before
    assert a.sample_times.tobytes() == b.sample_times.tobytes()
    assert a.tracked.tobytes() == b.tracked.tobytes()
    assert len(a.snapshots) == len(b.snapshots) == 20
    for (ta, Ua, Xa), (tb, Ub, Xb) in zip(a.snapshots, b.snapshots):
        assert ta == tb and Ua.tobytes() == Ub.tobytes() and Xa.tobytes() == Xb.tobytes()
    assert a.final_state.U.tobytes() == b.final_state.U.tobytes()
    assert a.final_state.Xi.tobytes() == b.final_state.Xi.tobytes()
    ch = fk.init_linear(m, 1, cells=2)
    U, Xi = ch.U.tobytes(), ch.Xi.tobytes()
    ref = fk.run(ch, 5.0, 0.25)
    assert ch.U.tobytes() == U and ch.Xi.tobytes() == Xi
    # integer state arrays march as their float values
    ints = TwistedChain(ch.N, ch.Q, ch.U.astype(int), ch.Xi.astype(int), 0.0,
                        ch.p, m)
    assert ints.U.tolist() == ch.U.tolist()
    _assert_logs_equal(fk.run(ints, 5.0, 0.25), ref)


def test_advance_marches_each_log_as_it_would_alone():
    """_advance marches logs of different slopes, ring sizes and drives as
    one ensemble: each log that survives is bitwise its lone extend, and
    each ring that blows up (in the first, second and third check block
    after sample 4) fails with the error of its lone extend."""
    m = _blow_up_model()
    h = fk.cfl_dt(m, 0.5, check=False)
    rows = [(0.5, Fraction(1, 2)), (-0.5, Fraction(1, 3)), (40.0, Fraction(1)),
            (0.0, Fraction(2)), (0.25, Fraction(2, 3))]
    logs = [fk.run(fk.init_linear(fk.with_extra_drive(m, L), p), 4 * h, h,
                   dt=h, check=False) for L, p in rows]
    S = 200
    with np.errstate(over="ignore", invalid="ignore"):
        marched, errors = _advance(logs, S, _clock(m, h, h))
        assert sorted(errors) == [0, 2, 4]
        assert [(round(errors[b].tau / h) - 5) // CHECK_BLOCK
                for b in (2, 0, 4)] == [0, 1, 2]
        for b, log in enumerate(logs):
            if b in errors:
                assert marched[b] is None
                with pytest.raises(NumericalError) as lone:
                    fk.extend(log, S * h)
                assert errors[b].tau == lone.value.tau
                assert [x.tobytes() for x in errors[b].snapshot] == \
                    [x.tobytes() for x in lone.value.snapshot]
                continue
            got, want = marched[b], fk.extend(log, S * h)
            assert got.sample_times.tobytes() == want.sample_times.tobytes()
            assert got.tracked.tobytes() == want.tracked.tobytes()
            assert got.final_state.tau == want.final_state.tau
            assert got.final_state.U.tobytes() == want.final_state.U.tobytes()
            assert got.final_state.Xi.tobytes() == want.final_state.Xi.tobytes()
            assert got.final_state.model == want.final_state.model


def test_pinned_lattice_is_stationary():
    """U_i = i is an equilibrium of the undriven unit-amplitude chain; nearby
    data relax onto constants."""
    m = fkmodel(L=0.0)
    rng = np.random.default_rng(3)
    pert = 0.05 * rng.uniform(-1, 1, 8)
    ch = fk.init_linear(m, 1, cells=8, perturbation=pert)
    log = fk.run(ch, 80.0, 1.0)
    tail = log.tracked_u[0][log.sample_times > 60.0]
    assert np.abs(np.diff(tail)).max() < 1e-8


# ---------------------------------------------------------------------------
# Force evaluation: one window vs the whole ring
# ---------------------------------------------------------------------------

def _ring_windows(U, Q, m):
    """Window (U_{i-m}, ..., U_{i+m}) of every particle, twist applied, built
    index by index."""
    N = U.size
    return [[U[(i + k) % N] + Q * ((i + k) // N) for k in range(-m, m + 1)]
             for i in range(N)]


def _wavy_force(j, tau, w):
    """n = 2, m = 2 springs, onsite potential and a tau-periodic drive; j may
    be an int or an array of ints."""
    w = np.asarray(w, dtype=float)
    th = np.array([1.0, 0.6])
    j = np.asarray(j)
    c = w[..., 2]
    return (th[j % 2] * (w[..., 3] - c) - th[(j - 1) % 2] * (c - w[..., 1])
            + 0.2 * (w[..., 4] - 2.0 * c + w[..., 0])
            + 0.8 * np.sin(2 * math.pi * c) + 0.3 * np.sin(2 * math.pi * tau))


@pytest.mark.parametrize("theta", [(1.0,), (1.0, 2.0), (0.5, 1.5, 1.0)])
def test_eval_force_matches_force_profile_classical(theta):
    m = fkmodel(theta, A=0.7, L=0.4)
    rng = np.random.default_rng(len(theta))
    ch = fk.init_linear(m, Fraction(2, 3), cells=2,
                        perturbation=0.05 * rng.uniform(-1, 1, 3 * m.n * 2))
    F = ring_force(m, ch.N, ch.Q)(0.0, ch.U)
    wins = _ring_windows(ch.U, ch.Q, m.m)
    assert [fk.eval_force(m, i + 1, 0.0, w) for i, w in enumerate(wins)] == F.tolist()


@pytest.mark.parametrize("batch", [True, False])
def test_eval_force_matches_force_profile_tabulated(batch):
    m = fk.build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=10.0,
                           f_at_zero_sup=0.3, batch=batch)
    ch = fk.init_linear(m, Fraction(3, 2), cells=2)
    U = ch.U + 0.05 * np.sin(np.arange(ch.N))
    tau = 0.37
    F = ring_force(m, ch.N, ch.Q)(tau, U)
    wins = _ring_windows(U, ch.Q, m.m)
    assert [fk.eval_force(m, i + 1, tau, w) for i, w in enumerate(wins)] == F.tolist()


def _force_profile_ref(model, tau, U, Q, drive=None):
    """Reference ring force, as it was computed before every layer shared one
    force evaluation: up/dn neighbour arrays and per-particle spring
    patterns for a classical model; for a tabulated one the ring gather with
    +0.0 off the centre (the twist across the seam) and -0.0 at it."""
    N = U.shape[-1]
    kind = model.kind
    if isinstance(kind, ClassicalFK):
        th = np.asarray(kind.theta, dtype=float)
        t = np.arange(N) % model.n
        th_self, th_next = th[t], th[(t + 1) % model.n]
        up = np.empty_like(U)
        up[..., :-1] = U[..., 1:]
        up[..., -1] = U[..., 0] + Q
        dn = np.empty_like(U)
        dn[..., 1:] = U[..., :-1]
        dn[..., 0] = U[..., -1] - Q
        F = th_next * (up - U) - th_self * (U - dn)
        if kind.amplitude != 0.0:
            F += kind.amplitude * np.sin(2.0 * math.pi * U)
        if drive is not None:
            F += drive
        elif model.drive != 0.0:
            F += model.drive
        return F
    m = model.m
    pos = np.arange(N)[:, None] + np.arange(-m, m + 1)
    shift = (Q * (pos // N)).astype(float)
    shift[:, m] = -0.0
    windows = (U[..., pos % N] + shift).reshape(-1, 2 * m + 1)
    jj = np.tile(np.arange(N) % model.n + 1, windows.shape[0] // N)
    if kind.batch:
        F = np.asarray(kind.fn(jj, float(tau), windows), dtype=float)
    else:
        F = np.array([kind.fn(int(j), float(tau), w) for j, w in zip(jj, windows)])
    F = F.reshape(U.shape)
    if drive is None:
        return F + model.drive if model.drive != 0.0 else F
    return F + drive


def _signed_zero_force(j, tau, w):
    """A batch or per-window force that tells -0.0 from +0.0 in every slot."""
    w = np.asarray(w, dtype=float)
    sign = np.copysign(1.0, w) @ (0.1 * (1.0 + np.arange(w.shape[-1])))
    return _wavy_force(j, tau, w) + 1e-3 * sign + np.asarray(j) * 1e-4


def _states_with_signed_zeros(rng, B, N, Q):
    """B states on a ring of N: random values with -0.0 and +0.0 entries,
    at both ends (the seam) and inside."""
    U = rng.uniform(-0.5, 0.5, (B, N)) + Q * np.arange(N) / N
    U[:, 0] = -0.0
    U[0, -1] = -0.0
    U[1 % B, -1] = 0.0
    if N > 2:
        U[:, N // 2] = -0.0
    return U


FORCE_PROFILE_CASES = {
    # classical n = 1, 2, 3 with per-row drives; one row's total drive is 0
    "classical_n1": lambda: (fkmodel(A=0.7, L=0.4), 0.0, 3, [0.0, -0.4, 1.25]),
    "classical_n2": lambda: (fkmodel((1.0, 2.0), A=0.7, L=0.0), 0.0, 4,
                             [0.0, 0.3, -2.0]),
    "classical_n3": lambda: (fkmodel((0.5, 1.5, 1.0), A=0.0, L=-0.2), 0.0, 2,
                             [0.2, 0.0, 0.7, 1.1]),
    "classical_n1_Q0": lambda: (fkmodel(A=0.7), 0.0, 0, [0.0, 0.5]),
    "tabulated_batch_tau": lambda: (
        fk.build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=10.0,
                           f_at_zero_sup=0.3, batch=True), 0.37, 3, [0.0, 0.6]),
    "tabulated_per_window": lambda: (
        fk.build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=10.0,
                           f_at_zero_sup=0.3), 0.81, 2, [0.0, -0.3]),
    "signed_zero_batch": lambda: (
        fk.build_tabulated(_signed_zero_force, n=2, m=2, m0=0.02, lip_V=10.0,
                           f_at_zero_sup=0.3, batch=True), 0.25, 0, [0.0, 1.0]),
    "signed_zero_per_window": lambda: (
        fk.build_tabulated(_signed_zero_force, n=1, m=2, m0=0.02, lip_V=10.0,
                           f_at_zero_sup=0.3), 0.5, 1, [0.0, 0.2]),
}


@pytest.mark.parametrize("case", sorted(FORCE_PROFILE_CASES))
def test_force_profile_bytes_match_reference(case):
    """The ring force on rings holding -0.0 and +0.0 entries, with the
    model's drive and with each row's extra drive, is bitwise the
    reference."""
    model, tau, Q, Ls = FORCE_PROFILE_CASES[case]()
    rng = np.random.default_rng(sum(map(ord, case)))
    for N in (model.n, 2 * model.n, 6 * model.n):
        U = _states_with_signed_zeros(rng, len(Ls), N, Q)
        for row, L in zip(U, Ls):
            driven = fk.with_extra_drive(model, L)
            got = ring_force(driven, N, Q)(tau, row)
            assert got.tobytes() == _force_profile_ref(driven, tau, row, Q).tobytes()
        got = ring_force(model, N, Q)(tau, U[0])
        assert got.tobytes() == _force_profile_ref(model, tau, U[0], Q).tobytes()


@pytest.mark.parametrize("drive", [0.0, 0.3])
def test_force_profile_never_returns_the_callables_array(drive):
    """A batch callable that returns an array it keeps gets back from the
    force on a flat gather's windows a result that shares no memory with
    it."""
    kept = {}

    def fn(j, tau, w):
        F = kept.setdefault("F", np.empty(j.shape))
        F[:] = _wavy_force(j, tau, w)
        return F

    model = fk.with_extra_drive(fk.build_tabulated(
        fn, n=2, m=2, m0=0.02, lip_V=10.0, f_at_zero_sup=0.3, batch=True), drive)
    chain = fk.init_linear(model, Fraction(1, 2), cells=2)
    gather = _flat_gather(model, [(chain.N, chain.Q)])
    W = chain.U.take(gather.idx)
    np.add(W, gather.shift, W)
    assert not np.shares_memory(_force(model, 0.0, *_plan(model, W, gather.types)),
                                kept["F"])


@pytest.mark.parametrize("theta", [(1.0,), (1.0, 2.0), (0.5, 1.5, 1.0)])
def test_flat_gather_windows_match_reference_per_ring(theta):
    """The window-last windows of a flat gather over mixed rings (N = n, 2n,
    5n), differenced by the one classical formula on their plan,
    give each ring bitwise the reference force, with +-0.0 at the seams and a
    zero total drive stored as -0.0."""
    model = fkmodel(theta, A=0.7, L=0.25)
    n = model.n
    rings = [(n, 1), (2 * n, 3), (5 * n, 0), (2 * n, 2)]
    gather = _flat_gather(model, rings)
    rng = np.random.default_rng(len(theta))
    U = np.concatenate([_states_with_signed_zeros(rng, 2, N, Q)[1] for N, Q in rings])
    for lo in gather.bounds[:-1]:
        U[lo] = -0.0
    U[gather.bounds[2] - 1] = 0.0
    Ls = [0.5, -0.25, 0.0, 1.0]       # ring 1's total drive is 0
    d = np.array([_drive(fk.with_extra_drive(model, L)) for L in Ls])
    assert np.signbit(d[1]) and d[1] == 0.0
    drive = np.repeat(d, [N for N, _ in rings])
    W = U.take(gather.idx)
    np.add(W, gather.shift, W)
    F = _force(model, 0.3, *_plan(model, W, gather.types), drive).copy()
    for b, (N, Q) in enumerate(rings):
        ring = slice(gather.bounds[b], gather.bounds[b + 1])
        want = _force_profile_ref(model, 0.3, U[ring].copy(), Q, d[b])
        assert F[ring].tobytes() == want.tobytes()


def test_tabulated_march_hands_the_callable_fresh_windows():
    """Every call of a batch callable in a march gets a fresh C-order
    (K, 2m+1) array, sharing memory with no earlier one; a callable that
    writes into it changes no byte of the march."""
    seen = []

    def checked(writes):
        def fn(j, tau, w):
            assert w.shape == (j.size, 5) and w.flags.c_contiguous
            assert not any(np.shares_memory(w, v) for v in seen)
            seen[:] = [w]
            F = _signed_zero_force(j, tau, w)
            if writes:
                w[...] = np.nan
            return F
        return fk.build_tabulated(fn, n=2, m=2, m0=0.02, lip_V=10.0,
                                  f_at_zero_sup=0.3, batch=True)

    logs = []
    for writes in (False, True):
        model = checked(writes)
        chains = [fk.init_linear(fk.with_extra_drive(model, L), Fraction(1, 2), cells=c)
                  for L, c in ((0.0, 1), (0.4, 3))]
        clock = _clock(model, 0.05, 0.02)
        marched, errors = _advance([_start_log(ch, clock) for ch in chains], 20, clock)
        assert not errors
        logs.append(marched)
    for a, b in zip(*logs):
        assert a.tracked.tobytes() == b.tracked.tobytes()
        assert a.final_state.U.tobytes() == b.final_state.U.tobytes()
        assert a.final_state.Xi.tobytes() == b.final_state.Xi.tobytes()


def test_run_evaluates_the_force_once_per_euler_step(monkeypatch):
    """A run of S samples cut into n_sub = 3 Euler steps each makes exactly
    3 S step evaluations of either kind: a classical run 3 S fused steps
    and no force call, a tabulated one 3 S force calls and no fused step.
    The tracked samples, written per check block, add none and drop none."""
    calls = {}

    def counting(name):
        inner = getattr(chn, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return counted

    for name in ("_affine_step", "_force"):
        monkeypatch.setattr(chn, name, counting(name))
    tabulated = fk.build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=10.0,
                                   f_at_zero_sup=0.3, batch=True)
    S = CHECK_BLOCK + 13
    for m, evaluation in ((fkmodel((1.0, 2.0)), "_affine_step"), (tabulated, "_force")):
        calls.update(_affine_step=0, _force=0)
        h = fk.cfl_dt(m, 0.5, check=False)
        log = fk.run(fk.init_linear(m, Fraction(2, 3), cells=2), S * 2.5 * h, 2.5 * h,
                     dt=h, check=False)
        assert log.tracked.shape == (4, S + 1)
        assert calls.pop(evaluation) == 3 * S
        assert list(calls.values()) == [0]


def _textbook_march(chain, S, clock):
    """(tracked, U, Xi) of S samples marched one ring at a time with the
    reference force and the Euler update as written on paper, the delta
    term of a clock with delta > 0 added last."""
    n, model = chain.model.n, chain.model
    drive = _drive(model)
    U, Xi = chain.U.copy(), chain.Xi.copy()
    tracked = [np.concatenate([U[:n], Xi[:n]])]
    for k in range(1, S + 1):
        for j in range(clock.n_sub):
            t = chain.tau + (k - 1) * clock.sample_dt + j * clock.dt
            F = _force_profile_ref(model, t, U, chain.Q, drive)
            extra = (chn._delta_term(model, U, Xi, chain.Q, clock.delta, clock.a0)
                     if clock.delta > 0 else 0.0)
            U, Xi = (clock.c * U + clock.beta * Xi,
                     clock.c * Xi + clock.beta * U + (2.0 * clock.dt) * F
                     + clock.dt * extra)
        tracked.append(np.concatenate([U[:n], Xi[:n]]))
    return np.array(tracked).T, U, Xi


@pytest.mark.parametrize("batch", [True, False])
def test_tabulated_advance_matches_textbook_march(batch):
    """A tabulated _advance over mixed rings (n = 2, m = 2; Q = 0 and seams
    at -0.0 and +0.0; zero and nonzero total drives) marches every ring
    bitwise as the textbook per-step march on the reference force, across
    check blocks and with three Euler steps per sample."""
    model = fk.build_tabulated(_signed_zero_force, n=2, m=2, m0=0.02, lip_V=10.0,
                               f_at_zero_sup=0.3, batch=batch)
    rng = np.random.default_rng(23)
    chains = []
    for (N, Q), L in zip([(2, 1), (4, 3), (10, 0), (4, 2), (6, 5)],
                         [0.0, 0.6, -0.3, 0.0, 1.2]):
        U, Xi = _states_with_signed_zeros(rng, 2, N, Q)
        driven = fk.with_extra_drive(model, L)
        chains.append(TwistedChain(N, Q, U, Xi + 0.01, 0.25, Fraction(2 * Q, N), driven))
    clock = _clock(model, 0.006, 0.0025)
    assert clock.n_sub == 3
    S = CHECK_BLOCK + 9
    marched, errors = _advance([_start_log(ch, clock) for ch in chains], S, clock)
    assert not errors
    for ch, log in zip(chains, marched):
        tracked, U, Xi = _textbook_march(ch, S, clock)
        assert log.tracked.tobytes() == tracked.tobytes()
        assert log.final_state.U.tobytes() == U.tobytes()
        assert log.final_state.Xi.tobytes() == Xi.tobytes()


def _mixed_classical_rings(seed):
    """Two-type classical chains (theta 1, 1.7) on mixed rings, Q = 0 and
    seams at -0.0 and +0.0, with zero and nonzero total drives, and a clock
    of three Euler steps per sample."""
    model = fkmodel((1.0, 1.7), A=0.8)
    rng = np.random.default_rng(seed)
    chains = []
    for (N, Q), L in zip([(2, 1), (4, 3), (10, 0), (4, 2), (6, 5)],
                         [0.0, 0.6, -0.3, 0.0, 1.2]):
        U, Xi = _states_with_signed_zeros(rng, 2, N, Q)
        driven = fk.with_extra_drive(model, L)
        chains.append(TwistedChain(N, Q, U, Xi + 0.01, 0.25, Fraction(2 * Q, N), driven))
    clock = _clock(model, 0.006, 0.0025)
    assert clock.n_sub == 3
    return model, chains, clock


def test_classical_ring_marches_alone_as_in_the_ensemble():
    """The fused classical step sums each entry's terms in one fixed order:
    every ring of a mixed ensemble, marched across check blocks, is bitwise
    the same ring marched alone."""
    _, chains, clock = _mixed_classical_rings(29)
    S = 2 * CHECK_BLOCK + 9
    marched, errors = _advance([_start_log(ch, clock) for ch in chains], S, clock)
    assert not errors
    for ch, log in zip(chains, marched):
        (alone,), errors = _advance([_start_log(ch, clock)], S, clock)
        assert not errors
        assert log.tracked.tobytes() == alone.tracked.tobytes()
        assert log.final_state.U.tobytes() == alone.final_state.U.tobytes()
        assert log.final_state.Xi.tobytes() == alone.final_state.Xi.tobytes()


#: the bound of the fused classical march against the textbook order, relative
#: to 1 + the largest textbook value, over 603 Euler steps (measured: <= 3.1e-14)
FUSED_REL_BOUND = 1e-12


@pytest.mark.parametrize("delta,a0", [(0.0, 0.0), (0.5, 1.0), (2.0, -0.5)])
def test_classical_advance_stays_near_the_textbook_march(delta, a0):
    """The fused classical step regroups the textbook update's sums, so a
    march differs from the textbook per-step march on the reference force
    by rounding only: within FUSED_REL_BOUND relative, with and without the
    delta term (a march with delta holds one ring)."""
    model, chains, _ = _mixed_classical_rings(31)
    clock = _clock(model, 0.006, 0.0025, delta, a0)
    S = 3 * CHECK_BLOCK + 9
    if delta > 0:
        marched = [_advance([_start_log(ch, clock)], S, clock)[0][0] for ch in chains]
    else:
        marched, errors = _advance([_start_log(ch, clock) for ch in chains], S, clock)
        assert not errors
    for ch, log in zip(chains, marched):
        tracked, U, Xi = _textbook_march(ch, S, clock)
        bound = FUSED_REL_BOUND * (1.0 + max(np.abs(tracked).max(), np.abs(U).max(),
                                             np.abs(Xi).max()))
        assert np.abs(log.tracked - tracked).max() <= bound
        assert np.abs(log.final_state.U - U).max() <= bound
        assert np.abs(log.final_state.Xi - Xi).max() <= bound


def test_classical_blow_up_is_replayed_alone(monkeypatch):
    """Rings driven toward overflow inside a classical ensemble fail in the
    first, second and fourth check block; each is replayed alone, with the
    error of its lone march, and every other ring, a huge finite one among
    them, is bitwise its lone march."""
    model = fkmodel((1.0, 1.7), A=0.8)
    clock = _clock(model, 0.006, 0.0025)
    rows = [(0.5, Fraction(1, 2)), (1e308, Fraction(1)), (-0.5, Fraction(2, 3)),
            (4e307, Fraction(1, 2)), (0.0, Fraction(2)), (2e307, Fraction(1, 3)),
            (1e307, Fraction(3, 2))]
    logs = [_start_log(fk.init_linear(fk.with_extra_drive(model, L), p), clock)
            for L, p in rows]
    gathered = []
    flat_gather = chn._flat_gather

    def recorded(model, rings):
        gathered.append(tuple(rings))
        return flat_gather(model, rings)

    monkeypatch.setattr(chn, "_flat_gather", recorded)
    S = 4 * CHECK_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        marched, errors = _advance(logs, S, clock)
        assert sorted(errors) == [1, 3, 5]
        assert [round(errors[b].tau / clock.sample_dt) // CHECK_BLOCK
                for b in (1, 3, 5)] == [0, 1, 3]
        for b in errors:
            ring = (logs[b].final_state.N, logs[b].final_state.Q)
            assert (ring,) in gathered
        for b, log in enumerate(logs):
            (lone,), lone_errors = _advance([log], S, clock)
            if b in errors:
                assert marched[b] is None and lone is None
                assert errors[b].tau == lone_errors[0].tau
                assert [x.tobytes() for x in errors[b].snapshot] == \
                    [x.tobytes() for x in lone_errors[0].snapshot]
                continue
            assert not lone_errors
            assert marched[b].tracked.tobytes() == lone.tracked.tobytes()
            assert marched[b].final_state.U.tobytes() == lone.final_state.U.tobytes()
            assert marched[b].final_state.Xi.tobytes() == lone.final_state.Xi.tobytes()
    assert np.abs(marched[6].tracked).max() > 1e307


@pytest.mark.parametrize("result", [
    lambda j, w: np.zeros((len(w), 1)),
    lambda j, w: np.zeros(len(w) - 1),
    lambda j, w: np.zeros(2 * len(w)),
])
def test_tabulated_march_rejects_a_wrong_shape_result(result):
    model = fk.build_tabulated(lambda j, tau, w: result(j, w), n=2, m=2, m0=0.02,
                               lip_V=0.0, f_at_zero_sup=0.0, batch=True)
    chain = fk.init_linear(model, Fraction(1, 2), cells=2)
    with pytest.raises(ModelError, match=r"for 8 windows; expected \(8,\)"):
        fk.run(chain, 1.0, 0.1, check=False)


@pytest.mark.parametrize("batch", [True, False])
def test_tabulated_run_calls_the_user_once_per_euler_step(batch):
    """A run of S samples cut into n_sub = 3 Euler steps each calls a batch
    callable exactly 3 S times, and a per-window one once per window of each
    of those steps."""
    calls = []

    def fn(j, tau, w):
        calls.append(1)
        return _wavy_force(j, tau, w)

    model = fk.build_tabulated(fn, n=2, m=2, m0=0.02, lip_V=10.0,
                               f_at_zero_sup=0.3, batch=batch)
    chain = fk.init_linear(model, Fraction(3, 2), cells=2)
    h = fk.cfl_dt(model, 0.5, check=False)
    S = CHECK_BLOCK + 13
    log = fk.run(chain, S * 2.5 * h, 2.5 * h, dt=h, check=False)
    assert log.tracked.shape == (4, S + 1)
    assert len(calls) == 3 * S * (1 if batch else chain.N)


def test_tabulated_types_are_read_only_in_a_march():
    """Every step of a march hands a batch callable the same 1-based types:
    a write to them raises instead of shifting the types of later steps.
    The ring force and eval_force hand it a fresh array on every call,
    which it may overwrite."""
    def fn(j, tau, w):
        j += 1
        return _wavy_force(j, tau, w)

    def shifted(j, tau, w):
        return _wavy_force(j + 1, tau, w)

    model, ref = (fk.build_tabulated(f, n=2, m=2, m0=0.02, lip_V=10.0,
                                     f_at_zero_sup=0.3, batch=True) for f in (fn, shifted))
    chain = fk.init_linear(model, Fraction(1, 2), cells=2)
    with pytest.raises(ValueError, match="read-only"):
        fk.run(chain, 1.0, 0.1, check=False)
    assert (ring_force(model, chain.N, chain.Q)(0.0, chain.U).tobytes()
            == ring_force(ref, chain.N, chain.Q)(0.0, chain.U).tobytes())
    assert fk.eval_force(model, 1, 0.0, chain.U[:5]) == fk.eval_force(ref, 1, 0.0, chain.U[:5])


def _neighbor_ref(U, Q, k):
    """U_{i+k} along the last axis with the twist added as an integer (k != 0)."""
    idx = np.arange(U.shape[-1]) + k
    return U[..., idx % U.shape[-1]] + Q * (idx // U.shape[-1])


def _ordering_violation_ref(U, Xi, Q):
    worst = 0.0
    for v in (U, Xi):
        if v.size > 1:
            worst = max(worst, float(np.maximum(v[:-1] - v[1:], 0.0).max()))
        worst = max(worst, max(0.0, float(v[-1] - (v[0] + Q))))
    return worst


def test_neighbours_match_integer_twist_reference():
    """The gathered U_{i+k}, U_{i-k} equal the integer-twist reference in value
    (N = k included) and keep a -0.0 neighbour off the seam as -0.0, where
    the integer 0 of the reference turns it into +0.0.  The ordering
    violation read through them is bitwise the seam-special-cased one."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        N = k * int(rng.integers(1, 5))
        Q = int(rng.integers(-3, 6))
        U = _states_with_signed_zeros(rng, 2, N, Q)
        fwd, bwd = _neighbours(U, Q, k)
        assert np.array_equal(fwd, _neighbor_ref(U, Q, k))
        assert np.array_equal(bwd, _neighbor_ref(U, Q, -k))
        assert np.array_equal(np.signbit(fwd[:, :N - k]), np.signbit(U[:, k:]))
        U[0] += np.sort(rng.uniform(-1.0, 1.0, N))
        got = _state_ordering_violation(U[0], U[1], Q)
        assert repr(got) == repr(_ordering_violation_ref(U[0], U[1], Q))


# ---------------------------------------------------------------------------
# Monotonicity: comparison, ordering, gradient frame
# ---------------------------------------------------------------------------

def _random_model_and_pair(rng):
    n = int(rng.integers(1, 4))
    theta = rng.uniform(0.4, 2.0, n)
    A = float(rng.uniform(0.0, 1.0))
    L = float(rng.uniform(-1.0, 1.0))
    alpha_min = max(4 * theta[j] + 4 * math.pi * A for j in range(n))
    alpha_min = max(alpha_min, max(2 * (theta[j] + theta[(j + 1) % n])
                                   + 4 * math.pi * A for j in range(n)))
    m = fk.build_classical_fk(theta, amplitude=A, drive=L,
                              m0=1.0 / (2.0 * alpha_min * 1.05))
    den = int(rng.integers(1, 4))
    num = int(rng.integers(1, 4))
    cells = int(rng.integers(1, max(2, 60 // (n * den) + 1)))
    p = Fraction(num, den)
    a = fk.init_linear(m, p, cells=cells)
    lift = rng.uniform(0.0, 0.3, a.N)
    b = TwistedChain(a.N, a.Q, a.U + lift, a.Xi + lift + rng.uniform(0, 0.2),
                     a.tau, a.p, m)
    return m, a, b


def test_comparison_preserved_sample():
    """Ordered pairs stay ordered under the CFL-limit Euler map (a few pairs
    here; the 50-pair quantified version lives in the acceptance suite)."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        m, a, b = _random_model_and_pair(rng)
        dt = 1.0 / m.alpha0
        c, beta = _euler_coeff(m, dt)
        Ua, Xa, Ub, Xb = a.U, a.Xi, b.U, b.Xi
        # one ring force each: a classical result lives until the next call
        force_a, force_b = ring_force(m, a.N, a.Q), ring_force(m, b.N, b.Q)
        worst = 0.0
        for _ in range(2000):
            Fa = force_a(0.0, Ua)
            Fb = force_b(0.0, Ub)
            Ua, Xa = c * Ua + beta * Xa, c * Xa + beta * Ua + 2 * dt * Fa
            Ub, Xb = c * Ub + beta * Xb, c * Xb + beta * Ub + 2 * dt * Fb
            worst = max(worst, float((Ua - Ub).max()), float((Xa - Xb).max()))
        assert worst <= 0.0


def test_fused_step_keeps_comparison_to_rounding():
    """The 50 ordered pairs of acceptance 01 marched by run, whose classical
    march takes the fused affine step, 1 000 steps at dt = 1/alpha0, read
    at every step: a pair may invert by rounding only, at most 2 ulp of its
    largest |entry|.  10 pairs invert, each by at most 1 ulp, once the two
    orbits merge; the textbook order of acceptance 01 inverts none."""
    for m, a, lift_u, lift_x in comparison_pairs():
        b = TwistedChain(a.N, a.Q, a.U + lift_u, a.Xi + lift_x, a.tau, a.p, m)
        dt = 1.0 / m.alpha0
        la, lb = (fk.run(ch, 1000 * dt, dt, dt=dt, snapshot_stride=1, check=False)
                  for ch in (a, b))
        assert len(la.snapshots) == len(lb.snapshots) == 1001
        worst = scale = 0.0
        for (_, Ua, Xa), (_, Ub, Xb) in zip(la.snapshots, lb.snapshots):
            worst = max(worst, float((Ua - Ub).max()), float((Xa - Xb).max()))
            scale = max(scale, *(float(np.abs(v).max()) for v in (Ua, Xa, Ub, Xb)))
        assert worst <= 2 * np.spacing(scale)


def test_ordering_preserved_under_run_and_delta():
    for delta in (0.0, 0.5):
        m = fkmodel((1.0, 1.5), A=0.8, L=1.0, margin=1.2)
        # a6 needs alpha0 >= 4 max(theta) + 4 pi A; check we are in that regime
        rep = fk.check_assumptions(m)
        assert rep.a6.holds
        ch = fk.init_linear(m, Fraction(2, 3), cells=3)
        log = fk.run(ch, 20.0, 0.5, delta=delta, a0=0.5, snapshot_stride=1)
        inv = fk.monitor_invariants(log)
        assert inv.ordering_violation == 0.0


def test_gradient_frame_same_type_differences():
    """Same-type position differences stay inside the floor/ceil frame set by
    the initial data (integer-shift comparison argument)."""
    m = fkmodel(L=1.5)
    rng = np.random.default_rng(11)
    N = 12
    pert = 0.2 * rng.uniform(-1, 1, N)
    ch = fk.init_linear(m, 1, cells=N, perturbation=pert)
    k = 3 * m.n
    d0 = np.array([_shifted_diff(ch.U, ch.Q, i, k) for i in range(N)])
    lo, hi = math.floor(d0.min()), math.ceil(d0.max())
    log = fk.run(ch, 30.0, 0.5, snapshot_stride=2)
    for tau, U, Xi in log.snapshots:
        d = np.array([_shifted_diff(U, ch.Q, i, k) for i in range(N)])
        assert d.min() >= lo - 1e-9
        assert d.max() <= hi + 1e-9


def _shifted_diff(U, Q, i, k):
    N = U.size
    return U[(i + k) % N] + Q * ((i + k) // N) - U[i]


def test_twist_equivariance_double_ring():
    m = fkmodel((1.0, 2.0), A=0.5, L=0.7)
    c1 = fk.init_linear(m, Fraction(2, 3), cells=2)
    c2 = fk.init_linear(m, Fraction(2, 3), cells=4)
    l1 = fk.run(c1, 5.0, 0.25)
    l2 = fk.run(c2, 5.0, 0.25)
    assert np.abs(l1.final_state.U - l2.final_state.U[:c1.N]).max() < 1e-12
    assert np.abs(l1.final_state.Xi - l2.final_state.Xi[:c1.N]).max() < 1e-12


def test_integer_shift_commutes_with_flow():
    m = fkmodel(L=0.5)
    ch = fk.init_linear(m, Fraction(2, 3), cells=2)
    shifted = TwistedChain(ch.N, ch.Q, ch.U + 1.0, ch.Xi + 1.0, 0.0, ch.p, m)
    la = fk.run(ch, 5.0, 0.25)
    lb = fk.run(shifted, 5.0, 0.25)
    assert np.abs(lb.final_state.U - (la.final_state.U + 1.0)).max() < 1e-12


@pytest.mark.parametrize("with_extra", [False, True])
def test_euler_update_in_place_matches_fresh_arrays(with_extra):
    """Written into U and Xi through two scratch rows, the update is bitwise
    the textbook expression on fresh arrays, signed zeros and non-finite
    entries included, and F and extra are left as they were."""
    rng = np.random.default_rng(7)
    U = rng.normal(size=64) * 1e3
    Xi = U + rng.normal(size=64)
    F = rng.normal(size=64)
    U[:4] = [-0.0, 0.0, np.inf, np.nan]
    Xi[:4] = [-0.0, -0.0, 1.0, 2.0]
    F[4:6] = [-0.0, np.inf]
    extra = rng.normal(size=64) if with_extra else None
    F_before = F.tobytes()
    extra_before = None if extra is None else extra.tobytes()
    for c, beta, dt in [(0.5, 0.5, 0.01), (0.0, 1.0, 0.125), (0.875, 0.125, 1e-3)]:
        U2, Xi2 = S2 = np.stack([U, Xi])
        with np.errstate(invalid="ignore"):      # 0 * inf at c = 0
            want_U = c * U + beta * Xi
            want_Xi = c * Xi + beta * U + (2.0 * dt) * F
            if extra is not None:
                want_Xi += dt * extra
            _euler_update(_euler_views(S2), F, c, beta, dt, extra)
        assert want_U.tobytes() == U2.tobytes()
        assert want_Xi.tobytes() == Xi2.tobytes()
    assert F.tobytes() == F_before
    assert (None if extra is None else extra.tobytes()) == extra_before


@pytest.mark.parametrize("with_extra", [False, True])
def test_euler_update_on_a_strided_slice_writes_only_the_slice(with_extra):
    """On the active slice S[:, lo:hi] of a wider stacked state, with scratch
    cut from a wider buffer (as a rescaled run steps), the update is bitwise
    the textbook expression on the slice, signed zeros and non-finite
    entries included, and no entry outside the slice is written."""
    rng = np.random.default_rng(11)
    S = rng.normal(size=(2, 96)) * 1e3
    S[:, ::7] = [[-0.0], [np.nan]]
    lo, hi = 20, 60
    S[0, lo:lo + 6] = [-0.0, 0.0, np.inf, -np.inf, np.nan, -0.0]
    S[1, lo:lo + 6] = [-0.0, -0.0, 1.0, 2.0, -0.0, np.inf]
    F = rng.normal(size=hi - lo)
    F[:3] = [-0.0, np.inf, np.nan]
    extra = rng.normal(size=hi - lo) if with_extra else None
    work = np.empty((2, 2, 96))
    for c, beta, dt in [(0.5, 0.5, 0.01), (0.0, 1.0, 0.125), (0.875, 0.125, 1e-3)]:
        S2 = S.copy()
        U, Xi = S[:, lo:hi]
        with np.errstate(invalid="ignore"):
            want_U = c * U + beta * Xi
            want_Xi = c * Xi + beta * U + (2.0 * dt) * F
            if extra is not None:
                want_Xi += dt * extra
            _euler_update(_euler_views(S2[:, lo:hi], work[..., :hi - lo]), F, c,
                          beta, dt, extra)
        assert S2[0, lo:hi].tobytes() == want_U.tobytes()
        assert S2[1, lo:hi].tobytes() == want_Xi.tobytes()
        for outside in (np.s_[:, :lo], np.s_[:, hi:]):
            assert S2[outside].tobytes() == S[outside].tobytes()


# ---------------------------------------------------------------------------
# delta-perturbed dynamics
# ---------------------------------------------------------------------------

def test_step_delta_zero_is_step_bitwise():
    m = fkmodel(L=1.0)
    ch = fk.init_linear(m, Fraction(1, 2), cells=3)
    dt = fk.cfl_dt(m, 0.5)
    a = fk.step(ch, dt)
    b = fk.step(ch, dt, delta=0.0, a0=1.0)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.Xi, b.Xi)


def test_step_delta_flat_state_term_value():
    """On the exact traveling line Xi = p i/n + c the correction is
    delta * a0 * p uniformly (a_i = 0, q_i = p)."""
    m = fk.build_constant_force(0.0, m0=0.05)
    p = Fraction(3, 4)
    ch = fk.init_linear(m, p, cells=2)
    dt = fk.cfl_dt(m, 0.25)
    delta, a0 = 0.5, 2.0
    plain = fk.step(ch, dt)
    pert = fk.step(ch, dt, delta=delta, a0=a0)
    expect = dt * delta * a0 * float(p)
    assert np.allclose(pert.Xi - plain.Xi, expect, atol=1e-14)
    assert np.array_equal(pert.U, plain.U)


def test_step_delta_gradient_bound():
    m = fkmodel(L=2.0)
    bound_slack = 1.05
    for delta in (0.25, 1.0):
        ch = fk.init_linear(m, 1, cells=4)
        log = fk.run(ch, 25.0, 0.5, delta=delta, a0=0.0, snapshot_stride=1)
        inv = fk.monitor_invariants(log)
        bound = float(ch.p) + 2.0 * m.lip_V / delta
        assert inv.delta_gradient <= bound * bound_slack


# ---------------------------------------------------------------------------
# Invariant monitor
# ---------------------------------------------------------------------------

def test_monitor_fresh_state_all_zero():
    m = fkmodel((1.0, 2.0))
    ch = fk.init_linear(m, Fraction(1, 2), cells=3)
    led = fk.constants_ledger(m, p=0.5)
    inv = fk.monitor_invariants(ch, led)
    assert inv.ordering_violation == 0.0
    assert inv.u_xi_gap == 0.0
    assert inv.space_osc == 0.0
    assert not inv.gap_exceeded and not inv.osc_exceeded


@pytest.mark.parametrize("array", ["U", "Xi"])
def test_monitor_refuses_a_non_finite_state(array):
    """max() would drop the NaN and report the state clean."""
    m = fkmodel()
    ch = fk.init_linear(m, 1, cells=4)
    getattr(ch, array)[2] = np.nan
    with pytest.raises(NumericalError, match="tau = 0.0") as exc:
        fk.monitor_invariants(ch)
    assert exc.value.tau == 0.0
    log = fk.run(fk.init_linear(m, 1, cells=4), 2.0, 0.5, snapshot_stride=1)
    tau, U, Xi = log.snapshots[2]
    (U if array == "U" else Xi)[1] = np.nan
    with pytest.raises(NumericalError) as exc:
        fk.monitor_invariants(log)
    assert exc.value.tau == tau and f"tau = {tau}" in str(exc.value)


def test_monitor_bounds_after_long_run():
    m = fkmodel(L=2.0, margin=1.2)
    ch = fk.init_linear(m, 1, cells=6)
    led = fk.constants_ledger(m, p=1.0)
    log = fk.run(ch, 40.0, 0.5, snapshot_stride=1)
    inv = fk.monitor_invariants(log, led)
    assert inv.u_xi_gap <= led.C4 / m.alpha0
    assert inv.space_osc <= 1.0
    assert not inv.gap_exceeded and not inv.osc_exceeded


# ---------------------------------------------------------------------------
# RK4 oracle
# ---------------------------------------------------------------------------

def test_rk4_matches_scalar_closed_form():
    """F = L from rest: U'(tau) = L (1 - exp(-tau/m0))."""
    L = 1.5
    m = fk.build_constant_force(L, m0=0.02)
    ch = fk.init_linear(m, 1, cells=2)
    log = rk4_oracle(m, ch, 2.0, 0.001)
    t = log.sample_times
    closed = ch.U[0] + L * (t - m.m0 * (1.0 - np.exp(-t / m.m0)))
    assert np.abs(log.tracked_u[0] - closed).max() < 1e-8


def test_rk4_euler_agreement_richardson():
    m = fk.build_classical_fk([1.0], amplitude=1.0, drive=2.0, m0=0.01)
    ch = fk.init_linear(m, 1, cells=4)

    def sup_err(dt):
        le = fk.run(ch, 20.0, 0.5, dt=dt)
        lr = rk4_oracle(m, ch, 20.0, dt, sample_dt=0.5)
        return max(np.abs(le.tracked_u - lr.tracked_u).max(),
                   np.abs(le.tracked_xi - lr.tracked_xi).max())

    e1, e2 = sup_err(0.002), sup_err(0.001)
    assert e1 < 5 * 0.002
    assert 1.5 < e1 / e2 < 2.5


@pytest.mark.parametrize("ratio,n_sub", [
    (1.0, 1), (2.5, 3), (21.536, 22), (250.0, 250),
    (np.nextafter(250.0, np.inf), 250), (np.nextafter(250.0, 0.0), 250)])
def test_one_substep_rule(ratio, n_sub):
    """run, the RK4 oracle and the macro march plan cut a sample spacing h
    into the same n_sub steps of the same dt <= h / ratio: the ceiling of
    the ratio, up to a relative 1e-12."""
    m = fk.build_constant_force(0.5, m0=1.0)
    ch = fk.init_linear(m, 1, cells=2)
    h = 0.5
    dt = h / ratio
    (_, plan_n, plan_dt, _), = _march_plan([h], h, dt)
    euler = fk.run(ch, h, h, dt=dt, check=False).dt
    rk4 = rk4_oracle(m, ch, h, dt, sample_dt=h).dt
    assert plan_n == n_sub
    assert repr(euler) == repr(rk4) == repr(plan_dt) == repr(h / n_sub)


def test_rk4_never_steps_longer_than_asked():
    m = fk.build_constant_force(0.5, m0=1.0)
    ch = fk.init_linear(m, 1, cells=2)
    log = rk4_oracle(m, ch, 1.0, 0.1, sample_dt=0.25)
    assert log.dt == 0.25 / 3
    assert log.dt == fk.run(ch, 1.0, 0.25, dt=0.1, check=False).dt


def test_rk4_xi_reconstruction_near_euler():
    m = fk.build_classical_fk([1.0], amplitude=1.0, drive=2.0, m0=0.01)
    ch = fk.init_linear(m, 1, cells=4)
    dt = 0.002
    le = fk.run(ch, 10.0, 0.5, dt=dt)
    lr = rk4_oracle(m, ch, 10.0, dt, sample_dt=0.5)
    assert np.abs(le.tracked_xi - lr.tracked_xi).max() < 10 * dt


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def test_snapshot_csv_roundtrip_format():
    m = fkmodel()
    ch = fk.init_linear(m, 1, cells=3)
    text = snapshot_to_csv(ch)
    lines = text.strip().splitlines()
    assert lines[0] == "i,U,Xi"
    assert len(lines) == ch.N + 1
    i, U, Xi = lines[1].split(",")
    assert int(i) == 0 and float(U) == ch.U[0]


def test_trajectory_csv_deterministic():
    m = fkmodel(L=1.0)
    ch = fk.init_linear(m, 1, cells=3)
    a = trajectory_to_csv(fk.run(ch, 5.0, 0.5))
    b = trajectory_to_csv(fk.run(ch, 5.0, 0.5))
    assert a == b
    assert a.splitlines()[0] == "tau,j,U_j,Xi_j"


def test_run_warns_but_proceeds_for_non_monotone_model():
    """Heavy masses are not certified, but exploration is allowed."""
    m = fk.build_classical_fk([1.0], amplitude=1.0, drive=0.0, m0=0.05)
    ch = fk.init_linear(m, 1, cells=4)
    with pytest.warns(UserWarning, match="not comparison-certified"):
        log = fk.run(ch, 1.0, 0.1)
    assert log.final_state.tau == pytest.approx(1.0)
