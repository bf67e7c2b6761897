"""Homogenized HJ solver, hyperbolic rescaling, and the eps study."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import fkhomog as fk
from fkhomog.chain import (NumericalError, _euler_coeff, _window_gather,
                           force_profile)
from fkhomog.macro import (COMPACT_TIMES, A0Report, ConvergenceReport,
                           HamiltonianInterp, MacroError, Profile, _march_plan,
                           gradient_sandwich_probe)
from fkhomog.model import ModelError, _shift_row


def fkmodel(theta=(1.0,), A=1.0, L=0.0, margin=1.1):
    theta = list(theta)
    n = len(theta)
    alpha_min = max(2 * (theta[j] + theta[(j + 1) % n]) + 4 * math.pi * A
                    for j in range(n))
    return fk.build_classical_fk(theta, amplitude=A, drive=L,
                                 m0=1.0 / (2.0 * alpha_min * margin))


def wavy_profile(p=1.0, amp=0.18, span=(-5.0, 5.0), n=513):
    width = span[1] - span[0]

    def f(x):
        return p * x + amp * math.sin(2 * math.pi * x / width) * width / (2 * math.pi)

    return Profile.from_callable(f, span[0], span[1], n)


# ---------------------------------------------------------------------------
# Profiles and (A0)
# ---------------------------------------------------------------------------

def test_profile_affine_extension():
    u0 = Profile(x=np.array([0.0, 1.0, 2.0]), u=np.array([0.0, 1.0, 3.0]))
    assert u0.value(-1.0) == pytest.approx(-1.0)      # left slope 1
    assert u0.value(3.0) == pytest.approx(5.0)        # right slope 2
    assert u0.edge_slopes == (1.0, 2.0)


def test_profile_csv_roundtrip():
    u0 = wavy_profile(n=17)
    back = Profile.from_csv(u0.to_csv())
    assert np.array_equal(back.x, u0.x)
    assert np.array_equal(back.u, u0.u)


def test_check_A0_identity_pass():
    u0 = Profile.linear(1.0, 0.0, 2.0, n=9)
    rep = fk.check_A0(u0, 1.0)
    assert rep.ok
    assert rep.min_slope == pytest.approx(1.0)
    assert rep.max_slope == pytest.approx(1.0)


def test_check_A0_band_pass_and_gap():
    u0 = wavy_profile(p=1.0, amp=0.4)
    rep = fk.check_A0(u0, 2.0)
    assert rep.ok
    xi0 = Profile(x=u0.x, u=u0.u + 0.05)
    rep2 = fk.check_A0(u0, 2.0, xi0=xi0, M0=1.0, eps=0.1)
    assert rep2.ok and rep2.gap == pytest.approx(0.05)
    rep3 = fk.check_A0(u0, 2.0, xi0=xi0, M0=0.1, eps=0.1)
    assert not rep3.ok and not rep3.gap_ok


def test_check_A0_flat_segment_fails_with_witness():
    u0 = Profile(x=np.array([0.0, 1.0, 2.0, 3.0]),
                 u=np.array([0.0, 1.0, 1.0, 2.0]))
    rep = fk.check_A0(u0, 2.0)
    assert not rep.ok
    assert rep.witness is not None
    lo, hi, slope = rep.witness
    assert (lo, hi) == (1.0, 2.0) and slope == 0.0


# ---------------------------------------------------------------------------
# Hamiltonian interpolant
# ---------------------------------------------------------------------------

def test_interp_exact_at_nodes_and_lipschitz():
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.1, 0.4, 0.2])
    assert H(1.0) == 0.4
    assert H(0.75) == pytest.approx(0.25)
    assert H.lip_est == pytest.approx(max(0.3 / 0.5, 0.2 / 1.0))
    assert H.covers(0.6, 1.8)
    assert not H.covers(0.4, 1.0)


def test_interp_rejects_non_finite_data():
    with pytest.raises(MacroError, match="finite"):
        HamiltonianInterp.from_points([0.5, 1.0, 1.5], [0.4, np.nan, 1.6])
    with pytest.raises(MacroError, match="finite"):
        HamiltonianInterp.from_points([0.5, np.inf], [0.4, 1.6])


def test_interp_from_table_slice():
    m = fkmodel(A=0.0, margin=1.2)
    table = fk.sweep(m, [Fraction(1, 2), Fraction(1)], [0.0, 1.0], tol=1e-5,
                     T_cap=100.0)
    H = HamiltonianInterp.from_table(table, 1.0)
    assert H(0.5) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(MacroError):
        HamiltonianInterp.from_table(table, 0.123)


# ---------------------------------------------------------------------------
# solve_hj
# ---------------------------------------------------------------------------

def test_solve_hj_constant_hamiltonian_translates():
    H = HamiltonianInterp.from_points([0.5, 2.0], [0.7, 0.7])
    u0 = wavy_profile()
    out = fk.solve_hj(H, u0, T=1.0, dx=0.05)
    expect = u0.value(out.x_grid) + 0.7
    # artificial viscosity smears curvature: nu t max|u''| dx bound
    nu = H.lip_est / 2.0
    curv = 0.18 * 2 * math.pi / 10.0
    assert np.abs(out.at(1.0) - expect).max() <= nu * 1.0 * curv * 0.05 + 1e-9


def test_solve_hj_affine_exact():
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.5, 1.0, 2.0])  # H(p) = p
    u0 = Profile.linear(1.0, -2.0, 2.0, n=5)
    out = fk.solve_hj(H, u0, T=1.0, dx=0.1, record_times=[0.5, 1.0])
    assert np.abs(out.at(1.0) - (out.x_grid + 1.0)).max() < 1e-12
    assert np.abs(out.at(0.5) - (out.x_grid + 0.5)).max() < 1e-12


def test_solve_hj_records_only_the_asked_rows():
    """Record times that leave out T give their rows alone, bitwise those of
    marching to each time; T is still marched to, and any other time is a
    MacroError."""
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.0, 0.3, 0.4])
    u0 = wavy_profile(amp=0.2)
    out = fk.solve_hj(H, u0, T=1.0, dx=0.1, record_times=[0.5, 0.25, 0.5])
    assert out.t_grid.tolist() == [0.25, 0.5]
    assert out.values.shape == (2, out.x_grid.size)
    for t in (0.25, 0.5):
        alone = fk.solve_hj(H, u0, T=t, dx=0.1)
        assert out.at(t).tobytes() == alone.at(t).tobytes()
    assert out.meta["K0"] == u0.slope_frame()
    with pytest.raises(MacroError, match="not recorded"):
        out.at(1.0)
    assert fk.solve_hj(H, u0, T=1.0, dx=0.1, record_times=[]).values.shape == \
        (0, out.x_grid.size)


def test_solve_hj_comparison_of_ordered_profiles():
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.0, 0.3, 0.4])
    rng = np.random.default_rng(2)
    for _ in range(20):
        base = wavy_profile(amp=float(rng.uniform(0.05, 0.3)))
        lift = float(rng.uniform(0.01, 1.0))
        hi = Profile(x=base.x, u=base.u + lift)
        a = fk.solve_hj(H, base, T=0.5, dx=0.1)
        b = fk.solve_hj(H, hi, T=0.5, dx=0.1)
        assert np.all(b.values - a.values >= -1e-12)


def test_solve_hj_slope_confinement():
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.0, 0.2, 0.5])
    u0 = wavy_profile(amp=0.3)
    rep = fk.check_A0(u0, 2.0)
    assert rep.ok
    out = fk.solve_hj(H, u0, T=1.0, dx=0.05)
    smin, smax = out.meta["slope_range_seen"]
    assert smin >= 1.0 / 2.0 - 0.05
    assert smax <= 2.0 + 0.05


def test_solve_hj_additive_constant_commutes_exactly():
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.0, 0.3, 0.4])
    u0 = wavy_profile(amp=0.2)
    shifted = Profile(x=u0.x, u=u0.u + 2.0)
    a = fk.solve_hj(H, u0, T=0.5, dx=0.1)
    b = fk.solve_hj(H, shifted, T=0.5, dx=0.1)
    assert np.allclose(b.values, a.values + 2.0, atol=1e-12)


def test_solve_hj_translation_covariance():
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.0, 0.3, 0.4])
    u0 = wavy_profile(amp=0.2)
    dx = 0.1
    moved = Profile(x=u0.x + dx, u=u0.u)
    a = fk.solve_hj(H, u0, T=0.5, dx=dx)
    b = fk.solve_hj(H, moved, T=0.5, dx=dx)
    assert np.allclose(a.values, b.values, atol=1e-12)
    assert np.allclose(b.x_grid, a.x_grid + dx)


# ---------------------------------------------------------------------------
# rescale_micro
# ---------------------------------------------------------------------------

def test_rescale_micro_linear_chain_quantization_error():
    m = fkmodel(A=0.0, L=0.0, margin=1.2)
    p = 1.0
    u0 = Profile.linear(p, -6.0, 6.0)
    eps = 0.05
    field = fk.rescale_micro(m, 0.0, eps, u0, T=0.5, window=(-6.0, 6.0),
                             t_record=[0.0, 0.5])
    xs = field.x_grid
    for t in (0.0, 0.5):
        err = np.abs(field.at(t) - p * xs).max()
        assert err <= p * eps + 1e-12


def test_rescale_micro_barrier_bound():
    """|u_eps(t, x) - u0(x)| <= (K1 + p) t + quantization, from the barrier
    constant of the unscaled problem."""
    m = fkmodel(L=1.0, margin=1.2)
    u0 = wavy_profile(p=1.0, amp=0.15)
    eps = 0.05
    T = 0.5
    field = fk.rescale_micro(m, 0.0, eps, u0, T=T, window=(-5.0, 5.0),
                             t_record=[T])
    led = fk.constants_ledger(m, p=1.0, K0=2.0)
    xs = field.x_grid
    err = np.abs(field.at(T) - u0.value(xs)).max()
    assert err <= led.K1 * T + 2 * eps


def test_rescale_micro_gradient_sandwich():
    m = fkmodel(L=2.0, margin=1.2)
    u0 = wavy_profile(p=1.0, amp=0.2)
    eps = 0.05
    field = fk.rescale_micro(m, 0.0, eps, u0, T=0.5, window=(-5.0, 5.0),
                             t_record=[0.25, 0.5])
    rep = gradient_sandwich_probe(field, K0=2.0, n_type=m.n,
                                  rng=np.random.default_rng(0), n_probes=100)
    assert rep["ok"]


def test_rescale_micro_refuses_undersized_window():
    m = fkmodel(A=0.0, margin=1.2)
    u0 = Profile.linear(1.0, 0.0, 1.0)
    with pytest.raises(MacroError):
        fk.rescale_micro(m, 0.0, 0.1, u0, T=0.1, window=(0.0, 1.0))


def _no_march(*args, **kw):
    raise AssertionError("a run that should be refused was marched")


def test_rescale_micro_refuses_oversized_pad(monkeypatch):
    monkeypatch.setattr(fk.macro, "_force", _no_march)
    m = fkmodel(A=0.0, margin=1.2)
    u0 = Profile.linear(1.0, -6.0, 6.0)
    with pytest.raises(MacroError, match=r"pad needs 7680241 particles "
                                         r"\(> 5000000\) at eps = 0.05"):
        fk.rescale_micro(m, 0.0, 0.05, u0, T=4e4, window=(-6.0, 6.0))


def test_rescale_micro_integer_lift_commutes():
    """Shifting u0 by eps k shifts the field by eps k exactly (discrete
    integer-addition invariance)."""
    m = fkmodel(L=1.3, margin=1.2)
    u0 = wavy_profile(p=1.0, amp=0.15)
    eps = 0.05
    k = 3
    shifted = Profile(x=u0.x, u=u0.u + eps * k)
    f1 = fk.rescale_micro(m, 0.0, eps, u0, T=0.3, window=(-5.0, 5.0), t_record=[0.3])
    f2 = fk.rescale_micro(m, 0.0, eps, shifted, T=0.3, window=(-5.0, 5.0), t_record=[0.3])
    assert np.allclose(f2.values, f1.values + eps * k, atol=1e-12)


def _march_whole_array(model, U, Xi, n_steps, dt, start=0.0):
    """n_steps Euler steps of dt from the clock value start, in place on the
    whole arrays U and Xi, through the ring force (twist 0), the m particles
    at each end frozen."""
    m = model.m
    c, beta = _euler_coeff(model, dt)
    inner = slice(m, U.size - m)
    for k in range(n_steps):
        F = force_profile(model, start + k * dt, U, 0)[inner]
        u, xi = U[inner], Xi[inner]
        U[inner], Xi[inner] = c * u + beta * xi, c * xi + beta * u + (2.0 * dt) * F


def _rescale_micro_full(model, L, eps, u0, T, window, *, xi0=None,
                        t_record=None, safety=0.5):
    """Reference march for rescale_micro: every Euler step advances the whole
    padded array through the ring force (twist 0), the m particles at each
    end frozen.  Returns (t_grid, values, meta)."""
    model2 = fk.with_extra_drive(model, L)
    m = model2.m
    i_lo = math.floor(window[0] / eps)
    n_obs = math.floor(window[1] / eps) - i_lo + 1
    dt_max = safety / model2.alpha0
    plan = _march_plan(t_record if t_record is not None else [T], T, dt_max, eps)
    total = sum(n_sub for _, n_sub, _, _ in plan)
    pad = m * (total + 1)
    pad += (i_lo - pad) % model2.n
    N = n_obs + 2 * pad
    x = eps * np.arange(i_lo - pad, i_lo + n_obs + pad)
    U = u0.value(x) / eps
    Xi = U.copy() if xi0 is None else xi0.value(x) / eps
    vals = []
    for _, n_sub, dt, start in plan:
        _march_whole_array(model2, U, Xi, n_sub, dt, start)
        vals.append(eps * U[pad:pad + n_obs].copy())
    meta = {"pad": pad, "n_steps": total, "dt": dt_max, "N_total": N,
            "K0": u0.slope_frame(), "L": L, "eps": eps}
    return np.array([t for t, *_ in plan]), np.array(vals), meta


def _window_force(j, tau, w):
    """Nearest-neighbour springs theta = 1 plus a pinning sine, one window
    per call."""
    return (w[2] - w[1]) - (w[1] - w[0]) + 0.5 * math.sin(2 * math.pi * w[1])


def _window_model():
    return fk.build_tabulated(_window_force, n=1, m=1, m0=1.0 / (2.0 * 12.0),
                              lip_V=4.0 + math.pi, f_at_zero_sup=0.0)


def _two_type_batch_model():
    """n = 2, m = 2 batch force with a tau-periodic drive."""
    theta = np.array([1.0, 0.6])

    def fn(j, tau, w):
        j = np.asarray(j)
        c = w[..., 2]
        return (theta[j % 2] * (w[..., 3] - c) - theta[(j - 1) % 2] * (c - w[..., 1])
                + 0.2 * (w[..., 4] - c) - 0.2 * (c - w[..., 0])
                + 0.8 * np.sin(2 * math.pi * c) + 0.3 * np.sin(2 * math.pi * tau))

    return fk.build_tabulated(fn, n=2, m=2, m0=0.03,
                              lip_V=2.0 * (1.6 + 0.4) + 2 * math.pi * 0.8,
                              f_at_zero_sup=0.3, batch=True)


TRIM_CASES = {
    "classical_n1": lambda: (fkmodel(L=1.0, margin=1.2), 0.5, 0.05,
                             wavy_profile(amp=0.15), 0.3, (-5.0, 5.0), None),
    # i_lo = -99 is not a multiple of n = 2
    "classical_n2_drive": lambda: (fkmodel(theta=(1.0, 0.6), L=0.7, margin=1.2),
                                   1.1, 0.05, wavy_profile(amp=0.15), 0.3,
                                   (-4.93, 4.0), None),
    "tabulated_m2_batch": lambda: (_two_type_batch_model(), 0.4, 0.1,
                                   wavy_profile(amp=0.15), 0.2, (-5.0, 5.0), None),
    "per_window": lambda: (_window_model(), 0.3, 0.1, wavy_profile(amp=0.15),
                           0.1, (-5.0, 5.0), None),
    "record_times": lambda: (fkmodel(L=1.0, margin=1.2), 0.5, 0.05,
                             wavy_profile(amp=0.15), 0.3, (-5.0, 5.0),
                             [0.0, 0.1, 0.1, 0.25, 0.3]),
}


@pytest.mark.parametrize("case", sorted(TRIM_CASES))
def test_rescale_micro_trimmed_equals_full_window_march(case):
    """Stepping only the shrinking light cone of the window leaves every
    recorded value bitwise that of stepping the whole padded array."""
    model, L, eps, u0, T, window, t_record = TRIM_CASES[case]()
    field = fk.rescale_micro(model, L, eps, u0, T, window, t_record=t_record)
    t_ref, v_ref, meta_ref = _rescale_micro_full(model, L, eps, u0, T, window,
                                                 t_record=t_record)
    if case == "classical_n2_drive":
        assert round(field.x_grid[0] / eps) % 2 == 1
    assert field.t_grid.tobytes() == t_ref.tobytes()
    assert field.values.shape == v_ref.shape
    assert field.values.tobytes() == v_ref.tobytes()
    # the reference pads m (S + 1), past the claimed cone; the run pads
    # m ceil(S / 2), widened to a type boundary
    meta = dict(field.meta)
    meta.pop("particle_steps")
    S, n, m = meta["n_steps"], model.n, model.m
    pad = m * ((S + 1) // 2)
    pad += (round(field.x_grid[0] / eps) - pad) % n
    assert (meta.pop("pad"), meta.pop("N_total")) == (pad, v_ref.shape[1] + 2 * pad)
    assert meta == {k: v for k, v in meta_ref.items() if k not in ("pad", "N_total")}


@pytest.mark.parametrize("S", [1, 2, 5, 6])
@pytest.mark.parametrize("model", [lambda: fkmodel(L=1.0, margin=1.2),
                                   _two_type_batch_model], ids=["m1", "m2"])
def test_euler_map_moves_influence_m_sites_per_two_steps(model, S):
    """The cone rescale_micro's pad and slices are cut to, pinned from both
    sides on a whole-array march: a NaN in U(0) at distance m floor(S / 2)
    from the window reaches it after S steps and one site further does not;
    for Xi(0) the distance is m floor((S - 1) / 2)."""
    model = model()
    m, n_obs = model.m, 10
    pad = m * (S + 2)
    N = n_obs + 2 * pad
    for row, reach in ((0, m * (S // 2)), (1, m * ((S - 1) // 2))):
        for d, hits in ((reach, True), (reach + 1, False)):
            for at in (pad - d, pad + n_obs - 1 + d):
                state = np.tile(0.9 * np.arange(N), (2, 1))
                state[row, at] = np.nan
                U, Xi = state
                _march_whole_array(model, U, Xi, S, 0.5 / model.alpha0)
                assert np.isnan(U[pad:pad + n_obs]).any() == hits, (row, d, at)


def test_rescale_micro_counts_particle_steps():
    m = fkmodel(L=1.0, margin=1.2)
    field = fk.rescale_micro(m, 0.5, 0.05, wavy_profile(amp=0.15), T=0.3,
                             window=(-5.0, 5.0))
    meta = field.meta
    S, n_obs = meta["n_steps"], field.values.shape[1]
    assert meta["particle_steps"] < meta["N_total"] * S
    # a step with k steps after it advances n_obs + 2 m floor(k / 2) particles
    assert meta["particle_steps"] == S * n_obs + 2 * m.m * ((S - 1) ** 2 // 4)


def test_rescale_micro_two_type_classical_field_is_pinned():
    """The rescaled field of a two-type classical chain (theta 1, 0.6,
    L = 2, eps 0.0125, T = 1, particles -80..80) keeps the sha256 of its
    t, x and u bytes, recorded while the slices looked their spring
    constants up once each."""
    field = fk.rescale_micro(fkmodel(theta=(1.0, 0.6)), 2.0, 0.0125,
                             wavy_profile(amp=0.15), 1.0, (-1.0, 1.0))
    assert field.values.shape == (1, 161)
    h = hashlib.sha256()
    for a in (field.t_grid, field.x_grid, field.values):
        h.update(a.tobytes())
    assert h.hexdigest() == \
        "8078609994b2b8df4b089483d917050af8fa79cb587e83b32e70f29d4fdeda9c"


def test_rescale_micro_records_no_rows_for_empty_t_record():
    """No record time gives no row: values of shape (0, n_obs), as solve_hj
    gives (0, nx)."""
    m = fkmodel(L=1.0, margin=1.2)
    field = fk.rescale_micro(m, 0.5, 0.05, wavy_profile(amp=0.15), T=0.3,
                             window=(-5.0, 5.0), t_record=[])
    assert field.x_grid.size == 201
    assert field.values.shape == (0, 201)
    assert field.t_grid.size == 0 and field.meta["particle_steps"] == 0


def test_rescale_micro_never_builds_wrap_around_windows():
    """The open array is never closed into a ring: a per-window force that
    refuses windows with a backward jump (a drop of more than 2, far beyond
    the unit-cell windows the assumption check samples) is never called on
    one."""
    def fn(j, tau, w):
        if np.any(np.diff(w) < -2.0):
            raise ValueError(f"window with a backward jump: {w}")
        return _window_force(j, tau, w)

    model = fk.build_tabulated(fn, n=1, m=1, m0=1.0 / (2.0 * 12.0),
                               lip_V=4.0 + math.pi, f_at_zero_sup=0.0)
    field = fk.rescale_micro(model, 0.0, 0.1, wavy_profile(amp=0.15), T=0.2,
                             window=(-5.0, 5.0))
    assert np.all(np.isfinite(field.values))


def test_rescale_micro_adds_at_most_one_cache_entry_per_call():
    """Active slices of every length must not each key the caches of the
    force (the N-keyed ring gather, the window shift row)."""
    cases = [(fkmodel(L=1.0, margin=1.2), 0.1), (fkmodel(L=1.0, margin=1.2), 0.05),
             (fkmodel(theta=(1.0, 0.6), margin=1.2), 0.05),
             (_two_type_batch_model(), 0.1)]
    caches = (_window_gather, _shift_row)
    for model, eps in cases:
        before = [f.cache_info() for f in caches]
        fk.rescale_micro(model, 0.5, eps, wavy_profile(amp=0.15), T=0.2,
                         window=(-5.0, 5.0))
        after = [f.cache_info() for f in caches]
        for b, a in zip(before, after):
            assert a.misses - b.misses <= 1
            assert a.currsize - b.currsize <= 1


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_convergence_linear_chain_quantization_dominated():
    m = fkmodel(A=0.0, L=0.0, margin=1.2)
    u0 = Profile.linear(1.0, -5.0, 5.0)
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.0, 0.0, 0.0])
    rep = fk.convergence_study(m, 0.0, u0, [0.1, 0.05, 0.025], 1.0,
                               (-5.0, 5.0), H)
    for eps, err in zip(rep.eps_list, rep.errors):
        assert err <= (1.0 + 0.1) * eps
    assert rep.errors[0] > rep.errors[1] > rep.errors[2]
    assert rep.scheme_floor >= 0.0


def test_convergence_errors_nonnegative_and_rates_reported():
    m = fkmodel(A=0.0, L=0.0, margin=1.2)
    u0 = Profile.linear(1.0, -5.0, 5.0)
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.0, 0.0, 0.0])
    rep = fk.convergence_study(m, 0.0, u0, [0.1, 0.05], 1.0, (-5.0, 5.0), H)
    assert len(rep.rates) == 1
    assert all(e >= 0 for e in rep.errors)
    import json
    d = json.loads(rep.to_json())
    assert d["eps"] == [0.1, 0.05]


def _non_periodic_model():
    """A tabulated force that is not 1-periodic in the window: fails (A4)."""
    return fk.build_tabulated(lambda j, tau, w: 0.1 * np.asarray(w)[..., 1], n=1, m=1,
                              m0=0.05, lip_V=0.1, f_at_zero_sup=0.0, batch=True)


def test_failing_tabulated_model_refused_by_every_entry_point():
    model = _non_periodic_model()
    u0 = Profile.linear(1.0, -5.0, 5.0)
    H = HamiltonianInterp.from_points([0.5, 2.0], [0.0, 0.0])
    with pytest.raises(ModelError, match="a4"):
        fk.rotation_number(model, 1, L_extra=0.5)
    with pytest.raises(ModelError, match="a4"):
        fk.sweep(model, [1], [0.0, 0.5])
    with pytest.raises(ModelError, match="a4"):
        fk.rescale_micro(model, 0.5, 0.1, u0, 0.2, (-5.0, 5.0))
    with pytest.raises(ModelError, match="a4"):
        fk.convergence_study(model, 0.5, u0, [0.1, 0.05], 0.2, (-5.0, 5.0), H)


def test_convergence_study_checks_the_model_once(monkeypatch):
    """One sampled check per study, not one per eps level."""
    calls = []
    check = fk.model.check_assumptions

    def counting(model, *args, **kw):
        calls.append(model)
        return check(model, *args, **kw)

    monkeypatch.setattr(fk.model, "check_assumptions", counting)
    model = fk.build_constant_force(0.5, m0=0.05)
    u0 = Profile.linear(1.0, -5.0, 5.0)
    H = HamiltonianInterp.from_points([0.5, 2.0], [0.5, 0.5])
    rep = fk.convergence_study(model, 0.25, u0, [0.1, 0.05, 0.025], 0.2,
                               (-5.0, 5.0), H)
    assert len(rep.errors) == 3
    assert calls == [model]


def test_convergence_rejects_nondecreasing_eps():
    m = fkmodel(A=0.0, margin=1.2)
    u0 = Profile.linear(1.0, -5.0, 5.0)
    H = HamiltonianInterp.from_points([0.5, 2.0], [0.0, 0.0])
    with pytest.raises(MacroError):
        fk.convergence_study(m, 0.0, u0, [0.05, 0.1], 1.0, (-5.0, 5.0), H)


def _study_reference(model, L, u0, eps_list, T, window, H):
    """The eps study with every level marched on the whole window by
    rescale_micro, its rows then restricted to the compact set: the report
    JSON and, per level, the full-window particle-steps and compact x grid."""
    t_samples = np.linspace(T / 2.0, T, COMPACT_TIMES)
    quarter = 0.25 * (window[1] - window[0])
    cx_lo, cx_hi = window[0] + quarter, window[1] - quarter
    H_eff = H.scaled(model.n)
    errors, levels = [], []
    floor_err = math.inf
    for eps in eps_list:
        micro = fk.rescale_micro(model, L, eps, u0, T, window, t_record=t_samples)
        macro = fk.solve_hj(H_eff, u0, T, dx=eps, record_times=t_samples)
        sel = (micro.x_grid >= cx_lo) & (micro.x_grid <= cx_hi)
        xs = micro.x_grid[sel]
        err = 0.0
        for um, uh in zip(micro.values[:, sel], macro.values):
            err = max(err, float(np.abs(um - np.interp(xs, macro.x_grid, uh)).max()),
                      float(np.abs(um - np.interp(xs + eps, macro.x_grid, uh)).max()))
        errors.append(err)
        levels.append((micro.meta["particle_steps"], xs))
        if eps == eps_list[-1]:
            macro2 = fk.solve_hj(H_eff, u0, T, dx=eps / 2.0)
            floor_err = float(np.abs(np.interp(xs, macro.x_grid, macro.at(T))
                                     - np.interp(xs, macro2.x_grid, macro2.at(T))).max())
    rates = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    report = ConvergenceReport(tuple(eps_list), tuple(errors), tuple(rates),
                               (float(t_samples[0]), float(t_samples[-1])),
                               (cx_lo, cx_hi), floor_err)
    return report.to_json(), levels


STUDY_CASES = {
    "classical_n1": lambda: (fkmodel(L=1.0, margin=1.2), 0.5, [0.1, 0.05], 0.3,
                             (-5.0, 5.0)),
    # the window starts at i = -99 and -198, the compact set at -53 and -107:
    # all odd, so neither starts on a type boundary of n = 2
    "classical_n2_drive": lambda: (fkmodel(theta=(1.0, 0.6), L=0.7, margin=1.2),
                                   1.1, [0.05, 0.025], 0.3, (-4.93, 4.0)),
    "tabulated_m2_batch": lambda: (_two_type_batch_model(), 0.4, [0.1, 0.05],
                                   0.2, (-5.0, 5.0)),
}


@pytest.mark.parametrize("case", sorted(STUDY_CASES))
def test_convergence_study_marches_the_compact_light_cone(case, monkeypatch):
    """Marching only the compact set's light cone leaves the report bitwise
    that of marching the whole window, and steps
    S n_compact + 2 m floor((S - 1)^2 / 4) particles per level, fewer than
    the whole window's."""
    model, L, eps_list, T, window = STUDY_CASES[case]()
    u0 = wavy_profile(amp=0.15)
    H = HamiltonianInterp.from_points([0.25, 1.0, 4.0], [0.1, 0.6, 0.9])
    want, levels = _study_reference(model, L, u0, eps_list, T, window, H)

    fields = []
    march = fk.macro._rescale_micro
    monkeypatch.setattr(fk.macro, "_rescale_micro",
                        lambda run: fields.append(march(run)) or fields[-1])
    got = fk.convergence_study(model, L, u0, eps_list, T, window, H)
    assert got.to_json() == want
    assert len(fields) == len(eps_list)
    for eps, field, (full_steps, xs) in zip(eps_list, fields, levels):
        assert field.x_grid.tobytes() == xs.tobytes()
        if case == "classical_n2_drive":
            assert round(xs[0] / eps) % 2 == 1
        S = field.meta["n_steps"]
        steps = field.meta["particle_steps"]
        assert steps == S * xs.size + 2 * model.m * ((S - 1) ** 2 // 4)
        assert steps < full_steps


def test_convergence_study_plans_every_level_before_marching(monkeypatch):
    """A level past the pad cap, or outside the gap bound M0 eps, fails
    before the first level is marched: no force is evaluated."""
    force = fk.macro._force
    monkeypatch.setattr(fk.macro, "_force", _no_march)
    m = fkmodel()
    u0 = wavy_profile(amp=0.18)
    H = HamiltonianInterp.from_points([0.5, 1.0, 2.0], [0.3, 0.5, 0.4])
    with pytest.raises(MacroError, match=r"pad needs \d+ particles \(> 5000000\) "
                                         r"at eps = 5e-06; increase eps or shrink T$"):
        fk.convergence_study(m, 2.0, u0, [0.0125, 0.00625, 5e-6], 1.0,
                             (-5.0, 5.0), H)
    xi0 = Profile(x=u0.x, u=u0.u + 0.004)
    with pytest.raises(MacroError, match="slope frame"):
        fk.convergence_study(m, 2.0, u0, [0.1, 0.05, 0.025], 0.2, (-5.0, 5.0),
                             H, xi0=xi0, M0=0.1)
    calls = []
    monkeypatch.setattr(fk.macro, "_force",
                        lambda *a, **kw: calls.append(1) or force(*a, **kw))
    # the gap 0.004 is within M0 eps down to eps = 0.05
    rep = fk.convergence_study(m, 2.0, u0, [0.1, 0.05], 0.2, (-5.0, 5.0), H,
                               xi0=xi0, M0=0.1)
    assert len(rep.errors) == 2 and calls


def test_convergence_study_applies_the_window_rule_to_the_window():
    """The >= 100-particle rule reads the window, not the compact set: 101
    particles at eps = 0.1 (51 in the compact set) run, 11 do not."""
    m = fkmodel(A=0.0, margin=1.2)
    u0 = Profile.linear(1.0, -5.0, 5.0)
    H = HamiltonianInterp.from_points([0.5, 2.0], [0.0, 0.0])
    rep = fk.convergence_study(m, 0.0, u0, [0.1], 0.2, (-5.0, 5.0), H)
    assert len(rep.errors) == 1
    with pytest.raises(MacroError, match="window holds only 11 particles at "
                                         "eps = 0.1; need >= 100"):
        fk.convergence_study(m, 0.0, u0, [0.1], 0.2, (0.0, 1.0), H)


def test_force_callable_array_is_never_written():
    """A batch callable may return a view of an array it keeps: the rescaled
    runs, which update their state in place, leave that array as it was."""
    kept = np.full(4096, 0.25)

    def fn(j, tau, w):
        return kept[:len(w)]

    model = fk.build_tabulated(fn, n=1, m=1, m0=0.05, lip_V=0.0,
                               f_at_zero_sup=0.25, batch=True)
    u0 = wavy_profile(amp=0.15)
    field = fk.rescale_micro(model, 0.0, 0.1, u0, T=0.2, window=(-5.0, 5.0))
    assert np.all(kept == 0.25)
    # the chain relaxes to the constant speed 0.25 from rest
    assert np.all(field.at(0.2) > u0.value(field.x_grid) - 0.1)
    H = HamiltonianInterp.from_points([0.5, 2.0], [0.25, 0.25])
    rep = fk.convergence_study(model, 0.0, u0, [0.1, 0.05], 0.2, (-5.0, 5.0), H)
    assert np.all(kept == 0.25)
    assert all(math.isfinite(e) for e in rep.errors)
