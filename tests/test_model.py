"""Force families, assumption checks, and the constants ledger."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fkhomog as fk
from numpy.lib.stride_tricks import sliding_window_view
from fkhomog.chain import force_profile
from fkhomog.model import (ClassicalFK, ModelError, build_tabulated,
                           model_from_config, model_to_config, report_to_json,
                           _force, _plan)
from test_chain import _wavy_force


def test_build_zero_potential_linear_chain():
    m = fk.build_classical_fk([1.0], amplitude=0.0, drive=0.0, m0=0.05)
    assert m.alpha0 == 10.0
    assert m.n == 1 and m.m == 1
    # F(V) = V1 - 2 V0 + V-1
    assert fk.eval_force(m, 1, 0.0, (0.0, 0.0, 0.0)) == 0.0
    assert fk.eval_force(m, 1, 0.0, (1.0, 2.0, 4.0)) == pytest.approx(1.0)


def test_build_two_type_model():
    m = fk.build_classical_fk([1.0, 2.0], amplitude=1.0, drive=0.3, m0=0.01)
    assert m.n == 2
    assert m.alpha0 == 50.0
    # F_1 couples theta_1 = 1 and theta_2 = 2
    v = fk.eval_force(m, 1, 0.0, (0.0, 0.0, 1.0))
    assert v == pytest.approx(2.0 * 1.0 + 0.3)


def test_build_rejects_bad_input():
    with pytest.raises(ModelError):
        fk.build_classical_fk([1.0], m0=0.0)
    with pytest.raises(ModelError):
        fk.build_classical_fk([1.0, -1.0], m0=0.01)
    with pytest.raises(ModelError):
        fk.build_classical_fk([], m0=0.01)


@pytest.mark.parametrize("field", ["alpha0", "lip_V", "f0", "drive"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_refuses_non_finite_data(field, value):
    data = dict(n=1, m=1, alpha0=10.0, kind=ClassicalFK(theta=(1.0,)),
                lip_V=4.0, f0=0.0, drive=0.0)
    data[field] = value
    with pytest.raises(ModelError, match=f"{field} must be finite"):
        fk.ForceModel(**data)


@pytest.mark.parametrize("build", [
    lambda: fk.build_classical_fk([1.0], drive=math.nan),
    lambda: fk.with_extra_drive(fk.build_classical_fk([1.0]), math.inf),
    lambda: build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=math.nan,
                            f_at_zero_sup=0.3),
    lambda: build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=10.0,
                            f_at_zero_sup=math.inf),
    lambda: fk.build_classical_fk([1.0], m0=1e-320),
])
def test_builders_refuse_non_finite_data(build):
    with pytest.raises(ModelError, match="must be finite"):
        build()


def test_eval_force_trivial_integer_lattice():
    m = fk.build_classical_fk([1.0], amplitude=1.0, drive=0.0, m0=0.01)
    for k in range(-2, 3):
        v = fk.eval_force(m, 1, 0.0, (k - 1.0, float(k), k + 1.0))
        assert abs(v) < 1e-12          # sin(2 pi k) = 0, zero elastic term


def test_eval_force_two_type_value():
    m = fk.build_classical_fk([1.0, 2.0], amplitude=1.0, drive=0.5, m0=0.01)
    got = fk.eval_force(m, 1, 0.37, (0.0, 0.25, 0.5))
    # independent scalar evaluation of the affine-plus-sine form
    want = 2.0 * (0.5 - 0.25) - 1.0 * (0.25 - 0.0) + math.sin(2 * math.pi * 0.25) + 0.5
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(1.75, abs=1e-15)


def test_eval_force_reduces_j_mod_n():
    m = fk.build_classical_fk([1.0, 2.0], amplitude=0.3, drive=0.1, m0=0.01)
    w = (0.1, 0.33, 0.8)
    for j in (1, 2):
        assert fk.eval_force(m, j, 0.0, w) == fk.eval_force(m, j + 2, 0.0, w)
        assert fk.eval_force(m, j, 0.0, w) == fk.eval_force(m, j - 2, 0.0, w)


def test_plan_takes_window_last_windows():
    """_plan takes window-last windows (K, 2m+1).  On a sliding-window view
    of a line, a classical plan reads the rows in place and gives the bytes
    of force_profile's formula on the line's interior windows; a tabulated
    plan hands the callable a fresh C-order copy whose off-centre -0.0
    arrives as +0.0 while the centre keeps its sign."""
    line = np.cumsum(np.random.default_rng(3).uniform(0.1, 0.4, 12))
    V = sliding_window_view(line, 3)
    types = np.arange(1, 11) % 2          # window k is centred on line[k + 1]
    model = fk.with_extra_drive(fk.build_classical_fk((1.0, 2.0), amplitude=0.7), 0.3)
    W, plan = _plan(model, V, types)
    assert all(np.shares_memory(row, line) for row in (plan[0], plan[1], plan[6]))
    F = _force(model, 0.2, W, plan)
    assert F.tobytes() == force_profile(model, 0.2, line, 4)[1:-1].tobytes()

    seen = []

    def fn(j, tau, w):
        seen.append(w)
        return w.sum(axis=1)

    tab = build_tabulated(fn, n=2, m=1, m0=0.05, lip_V=3.0, f_at_zero_sup=0.0,
                          batch=True)
    line = np.array([-0.0, -0.0, -0.0, 0.5, -0.0, 1.0])
    V = sliding_window_view(line, 3)
    _force(tab, 0.0, *_plan(tab, V, np.arange(1, 5) % 2))
    (w,) = seen
    assert w.shape == V.shape and w.flags.c_contiguous
    assert not np.shares_memory(w, line)
    assert (w == V).all()
    assert not np.signbit(w[:, [0, 2]][w[:, [0, 2]] == 0.0]).any()
    assert np.signbit(w[:, 1]).tolist() == np.signbit(V[:, 1]).tolist()


def test_eval_force_window_shape_checked():
    m = fk.build_classical_fk([1.0], m0=0.01)
    with pytest.raises(ModelError):
        fk.eval_force(m, 1, 0.0, (0.0, 1.0))


@given(th=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=3),
       amp=st.floats(0.0, 2.0), drive=st.floats(-2.0, 2.0),
       base=st.floats(-3.0, 3.0), shift=st.integers(-3, 3),
       tshift=st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_classical_periodicity_is_exact(th, amp, drive, base, shift, tshift):
    """(A4): integer shifts of the window and of tau change nothing, exactly."""
    m = fk.build_classical_fk(th, amplitude=amp, drive=drive, m0=0.001)
    w = (base - 0.4, base, base + 0.7)
    ws = tuple(v + shift for v in w)
    a = fk.eval_force(m, 1, 0.3, w)
    b = fk.eval_force(m, 1, 0.3 + tshift, ws)
    # the elastic part uses differences and sin(2 pi (v+k)) = sin(2 pi v) only
    # up to fp rounding of the argument
    assert b == pytest.approx(a, abs=1e-9)
    if shift == 0:
        assert a == b


def test_models_of_one_bound_method_hash_equal():
    """Each read of obj.force makes a new bound-method object; two models
    built from it compare equal, so they hash equal and find each other as
    dict keys."""
    class Force:
        def force(self, j, tau, w):
            return 0.0

    obj = Force()
    a, b = (fk.build_tabulated(obj.force, n=1, m=1, m0=0.05, lip_V=0.0,
                               f_at_zero_sup=0.0) for _ in range(2))
    assert a.kind.fn is not b.kind.fn
    assert a == b and hash(a) == hash(b)
    assert {a: 1}.get(b) == 1


def test_check_assumptions_critical_mass_closed_form():
    m = fk.build_classical_fk([1.0], amplitude=1.0, drive=0.0, m0=0.02)
    rep = fk.check_assumptions(m)
    # sup(-dF/dV0) = 2 + 2 pi, so monotonicity needs alpha0 >= 4 + 4 pi
    assert rep.critical_mass == pytest.approx(1.0 / (8.0 + 8.0 * math.pi), rel=1e-14)
    assert rep.core_holds


def test_check_assumptions_no_potential_margins():
    m = fk.build_classical_fk([1.0], amplitude=0.0, drive=0.0, m0=0.1)
    rep = fk.check_assumptions(m)
    # a3 needs alpha0 >= 4 when A = 0; alpha0 = 5 here
    assert rep.a3.holds and rep.a3.margin == pytest.approx(1.0)
    assert rep.a2.holds and rep.a2.margin == pytest.approx(1.0)


def test_check_assumptions_a3_margin_zero_at_critical_mass():
    m0c = 1.0 / (8.0 + 8.0 * math.pi)
    m = fk.build_classical_fk([1.0], amplitude=1.0, drive=0.0, m0=m0c)
    rep = fk.check_assumptions(m)
    assert abs(rep.a3.margin) < 1e-12
    assert rep.a3.holds


def test_check_assumptions_a3_fails_below_threshold():
    # alpha0 just below 2 (th_j + th_{j+1}) + 4 pi for theta = (1, 2)
    alpha0 = 2.0 * 3.0 + 4.0 * math.pi - 0.1
    m = fk.build_classical_fk([1.0, 2.0], amplitude=1.0, drive=0.0,
                              m0=1.0 / (2.0 * alpha0))
    rep = fk.check_assumptions(m)
    assert not rep.a3.holds
    assert rep.a3.margin == pytest.approx(-0.1, abs=1e-9)
    assert rep.a3.witness is not None


def test_a3_margin_matches_sampled_derivative():
    """Sampled d F / d V0 agrees with the closed-form a3 margin to 1e-12."""
    m = fk.build_classical_fk([1.0, 2.0], amplitude=0.7, drive=0.4, m0=0.004)
    h = 1e-6
    worst = math.inf
    for j in (1, 2):
        for v0 in np.linspace(0.0, 1.0, 2001):
            d = (fk.eval_force(m, j, 0.0, (0.0, v0 + h, 0.0))
                 - fk.eval_force(m, j, 0.0, (0.0, v0 - h, 0.0))) / (2 * h)
            worst = min(worst, m.alpha0 + 2.0 * d)
    rep = fk.check_assumptions(m)
    assert worst == pytest.approx(rep.a3.margin, abs=1e-5)


def test_a2_sampled_neighbor_derivatives_nonnegative():
    m = fk.build_classical_fk([1.0, 0.5], amplitude=1.0, drive=0.0, m0=0.002)
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(200):
        w = rng.uniform(-1, 1, 3)
        for slot in (0, 2):
            wp = w.copy(); wp[slot] += h
            wm = w.copy(); wm[slot] -= h
            d = (fk.eval_force(m, 1, 0.0, wp) - fk.eval_force(m, 1, 0.0, wm)) / (2 * h)
            assert d >= -1e-9


def test_a6_threshold_two_types():
    # a1-a5 hold but a6 fails between the two thresholds
    alpha0 = 4.0 * 2.0 + 4.0 * math.pi - 0.5        # below a6 bound for theta_max = 2
    assert alpha0 > 2.0 * 3.0 + 4.0 * math.pi        # above the a3 bound
    m = fk.build_classical_fk([1.0, 2.0], amplitude=1.0, drive=0.0,
                              m0=1.0 / (2.0 * alpha0))
    rep = fk.check_assumptions(m)
    assert rep.core_holds
    assert not rep.a6.holds


def test_tabulated_constant_force_passes_checks():
    m = fk.build_constant_force(1.5, m0=0.05)
    rep = fk.check_assumptions(m, sample_density=4)
    assert rep.core_holds and rep.a6.holds
    assert rep.critical_mass == math.inf


def test_tabulated_periodicity_violation_detected():
    def fn(j, tau, w):
        w = np.asarray(w)
        body = 0.1 * w[..., 1]                      # not 1-periodic in the window
        return body if w.ndim == 2 else float(body)

    m = build_tabulated(fn, n=1, m=1, m0=0.05, lip_V=0.1, f_at_zero_sup=0.0,
                        batch=True)
    rep = fk.check_assumptions(m, sample_density=4)
    assert not rep.a4.holds
    assert rep.a4.witness is not None


def test_tabulated_sampled_a3_margin():
    def fn(j, tau, w):
        w = np.asarray(w)
        body = np.sin(2 * np.pi * w[..., 1])
        return body if w.ndim == 2 else float(body)

    alpha0 = 4.0 * math.pi + 1.0                    # margin 1 over 2*sup(-dF/dV0)
    m = build_tabulated(fn, n=1, m=1, m0=1 / (2 * alpha0), lip_V=2 * math.pi,
                        f_at_zero_sup=0.0, batch=True)
    rep = fk.check_assumptions(m, sample_density=16)
    assert rep.a3.holds
    # centered FD underestimates the sine derivative by sinc(pi h): ~1.3% at h=1/16
    assert rep.a3.margin == pytest.approx(1.0, abs=0.1)
    assert rep.critical_mass == pytest.approx(1 / (8 * math.pi), rel=0.02)


def _window_force(j, tau, w):
    """One window per call: springs, a pinning sine and a tau drive."""
    return ((w[2] - w[1]) - (w[1] - w[0]) + 0.5 * math.sin(2 * math.pi * w[1])
            + 0.1 * math.cos(2 * math.pi * tau))


def _quantized_force(j, tau, w):
    """Piecewise constant in every variable: ties everywhere, so the
    witnesses pin which sample is reported first."""
    w = np.asarray(w, dtype=float)
    return (np.floor(4 * w[..., 1]) / 4 + 0.25 * np.asarray(j)
            - 0.5 * np.floor(2 * w[..., 0]) + np.floor(3 * tau) / 3)


def _in_place_force(j, tau, w):
    """Recentres its windows in place, as a user force may: every call must
    get windows of its own."""
    w = np.asarray(w)
    c = w[..., 1].copy()
    w -= c[..., None]
    return ((w[..., 2] - w[..., 1]) - (w[..., 1] - w[..., 0])
            + 0.5 * np.sin(2 * math.pi * c) + 0.1 * np.cos(2 * math.pi * tau))


def _failing_force(j, tau, w):
    """Breaks a1-a6: negative coupling, no periodicity in the window or in
    j, and a steep onsite term for a heavy mass."""
    w = np.asarray(w, dtype=float)
    return (-0.3 * (w[..., 2] - w[..., 1]) + 0.05 * np.asarray(j) * w[..., 0]
            + 2.0 * np.sin(2 * math.pi * w[..., 1]) + 0.1 * tau)


GOLDEN_MODELS = {
    "wavy_d4": (lambda: build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=10.0,
                                        f_at_zero_sup=0.3, batch=True), 4),
    "wavy_d8": (lambda: build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=10.0,
                                        f_at_zero_sup=0.3, batch=True), 8),
    "per_window_d8": (lambda: build_tabulated(_window_force, n=1, m=1, m0=1 / 24,
                                              lip_V=4 + math.pi, f_at_zero_sup=0.1), 8),
    "constant_d16": (lambda: fk.build_constant_force(1.5, m0=0.05), 16),
    "in_place_d8": (lambda: build_tabulated(_in_place_force, n=1, m=1, m0=1 / 24,
                                            lip_V=4 + math.pi, f_at_zero_sup=0.1,
                                            batch=True), 8),
    "quantized_d4": (lambda: build_tabulated(_quantized_force, n=2, m=1, m0=0.02,
                                             lip_V=1.0, f_at_zero_sup=1.0,
                                             batch=True), 4),
    "failing_d8": (lambda: build_tabulated(_failing_force, n=2, m=1, m0=0.2,
                                           lip_V=0.5, f_at_zero_sup=0.0,
                                           batch=True), 8),
}
# d = 5 and 6 are not dyadic: axis[a] - h/2 and axis[a-1] + h/2 differ by an
# ulp on some derivative layers, so the layer set keeps both values
GOLDEN_MODELS.update({
    f"{name}_d{d}": (lambda batch=batch: build_tabulated(
        _wavy_force, n=2, m=2, m0=0.02, lip_V=10.0, f_at_zero_sup=0.3,
        batch=batch), d)
    for d in (5, 6) for name, batch in (("wavy", True), ("wavy_window", False))})

# reports of the sampled check, pinned bit for bit (floats by repr)
GOLDEN_REPORTS = {
    "wavy_d4": (
        'AssumptionReport(a1=AssumptionCheck(holds=True, margin=1.4745166104060932, '
        "witness=None, note=''), a2=AssumptionCheck(holds=True, "
        "margin=0.1999999999999993, witness=None, note=''), "
        'a3=AssumptionCheck(holds=True, margin=11.949033200812188, witness=None, '
        "note=''), a4=AssumptionCheck(holds=True, margin=9.999999777955395e-09, "
        "witness=None, note=''), a5=AssumptionCheck(holds=True, margin=1e-08, "
        "witness=None, note=''), a6=AssumptionCheck(holds=True, "
        "margin=0.9175783007000078, witness=None, note=''), "
        'critical_mass=0.038311337979276446)'
    ),
    "wavy_d8": (
        'AssumptionReport(a1=AssumptionCheck(holds=True, margin=1.101652075726843, '
        "witness=None, note=''), a2=AssumptionCheck(holds=True, "
        "margin=0.19999999999999574, witness=None, note=''), "
        'a3=AssumptionCheck(holds=True, margin=11.203304131453699, witness=None, '
        "note=''), a4=AssumptionCheck(holds=True, margin=9.99999911182158e-09, "
        "witness=None, note=''), a5=AssumptionCheck(holds=True, margin=1e-08, "
        "witness=None, note=''), a6=AssumptionCheck(holds=True, "
        "margin=0.45734067054786287, witness=None, note=''), "
        'critical_mass=0.036240561128835176)'
    ),
    "per_window_d8": (
        'AssumptionReport(a1=AssumptionCheck(holds=True, margin=0.0801252046690708, '
        "witness=None, note=''), a2=AssumptionCheck(holds=True, "
        "margin=0.9999999999999982, witness=None, note=''), "
        'a3=AssumptionCheck(holds=True, margin=1.8770650821585608, witness=None, '
        "note=''), a4=AssumptionCheck(holds=True, margin=9.99999955591079e-09, "
        "witness=None, note=''), a5=AssumptionCheck(holds=True, margin=1e-08, "
        "witness=None, note=''), a6=AssumptionCheck(holds=True, "
        "margin=0.5412768626320981, witness=None, note=''), "
        'critical_mass=0.04939279014021532)'
    ),
    "constant_d16": (
        'AssumptionReport(a1=AssumptionCheck(holds=True, margin=1e-08, witness=None, '
        "note=''), a2=AssumptionCheck(holds=True, margin=0.0, witness=None, note=''), "
        "a3=AssumptionCheck(holds=True, margin=10.0, witness=None, note=''), "
        "a4=AssumptionCheck(holds=True, margin=1e-08, witness=None, note=''), "
        "a5=AssumptionCheck(holds=True, margin=1e-08, witness=None, note=''), "
        'a6=AssumptionCheck(holds=True, margin=0.0013112626735427568, witness=None, '
        "note=''), critical_mass=inf)"
    ),
    "in_place_d8": (
        'AssumptionReport(a1=AssumptionCheck(holds=True, margin=0.0801252046690708, '
        "witness=None, note=''), a2=AssumptionCheck(holds=True, "
        "margin=0.9999999999999982, witness=None, note=''), "
        'a3=AssumptionCheck(holds=True, margin=1.8770650821585608, witness=None, '
        "note=''), a4=AssumptionCheck(holds=True, margin=9.99999955591079e-09, "
        "witness=None, note=''), a5=AssumptionCheck(holds=True, margin=1e-08, "
        "witness=None, note=''), a6=AssumptionCheck(holds=True, "
        "margin=0.5412768626320981, witness=None, note=''), "
        'critical_mass=0.04939279014021532)'
    ),
    "quantized_d4": (
        'AssumptionReport(a1=AssumptionCheck(holds=False, margin=-1.999999990000001, '
        'witness=(2, 0.5, np.float64(0.0), np.float64(0.75), np.float64(0.0)), '
        "note=''), a2=AssumptionCheck(holds=False, margin=-2.000000000000001, "
        'witness=(2, 0.5, np.float64(0.0), np.float64(0.75), np.float64(0.0)), '
        "note=''), a3=AssumptionCheck(holds=True, margin=27.0, witness=None, note=''), "
        'a4=AssumptionCheck(holds=False, margin=-0.9999999900000004, witness=(1, 0.75, '
        "np.float64(0.0), np.float64(0.25), np.float64(0.0)), note=''), "
        'a5=AssumptionCheck(holds=False, margin=-0.4999999900000002, witness=(2, 0.5, '
        "np.float64(0.0), np.float64(0.75), np.float64(0.0)), note=''), "
        'a6=AssumptionCheck(holds=False, margin=-1.4543953716341917, witness=(1, '
        '0.1465001560206799, np.float64(0.44490679198272054), '
        'np.float64(1.1136709801079805), np.float64(1.1154951652426128), '
        "np.float64(1.5784950965053526)), note=''), critical_mass=inf)"
    ),
    "failing_d8": (
        'AssumptionReport(a1=AssumptionCheck(holds=False, margin=-12.445869825682873, '
        'witness=(2, 0.0, np.float64(0.0), np.float64(0.0), np.float64(0.0)), '
        "note=''), a2=AssumptionCheck(holds=False, margin=-0.3000000000000025, "
        'witness=(1, 0.125, np.float64(0.375), np.float64(0.25), np.float64(0.375)), '
        "note=''), a3=AssumptionCheck(holds=False, margin=-21.391739671365748, "
        'witness=(1, 0.0, np.float64(0.0), np.float64(0.5), np.float64(0.0)), '
        "note=''), a4=AssumptionCheck(holds=False, margin=-0.09999999000000165, "
        'witness=(2, 0.0, np.float64(0.0), np.float64(0.375), np.float64(0.125)), '
        "note=''), a5=AssumptionCheck(holds=False, margin=-0.08749999000000036, "
        'witness=(1, 0.0, np.float64(0.875), np.float64(0.25), np.float64(0.125)), '
        "note=''), a6=AssumptionCheck(holds=False, margin=-6.779641788154445, "
        'witness=(1, 0.4706226206098999, np.float64(0.1171360696103887), '
        'np.float64(0.30055893378967813), np.float64(0.6722341210913207), '
        "np.float64(1.7529684616214076)), note=''), critical_mass=0.020927735145182837)"
    ),
}
GOLDEN_REPORTS["wavy_d5"] = GOLDEN_REPORTS["wavy_window_d5"] = (
    'AssumptionReport(a1=AssumptionCheck(holds=True, margin=2.1957739448193836, '
    "witness=None, note=''), a2=AssumptionCheck(holds=True, "
    "margin=0.19999999999999685, witness=None, note=''), "
    'a3=AssumptionCheck(holds=True, margin=13.391547869638769, witness=None, '
    "note=''), a4=AssumptionCheck(holds=True, margin=9.99999911182158e-09, "
    "witness=None, note=''), a5=AssumptionCheck(holds=True, margin=1e-08, "
    "witness=None, note=''), a6=AssumptionCheck(holds=True, "
    "margin=0.713341478634522, witness=None, note=''), "
    'critical_mass=0.04307206459440696)'
)
GOLDEN_REPORTS["wavy_d6"] = GOLDEN_REPORTS["wavy_window_d6"] = (
    'AssumptionReport(a1=AssumptionCheck(holds=True, margin=1.2000000099999948, '
    "witness=None, note=''), a2=AssumptionCheck(holds=True, "
    "margin=0.19999999999999796, witness=None, note=''), "
    'a3=AssumptionCheck(holds=True, margin=11.399999999999991, witness=None, '
    "note=''), a4=AssumptionCheck(holds=True, margin=9.99999866773237e-09, "
    "witness=None, note=''), a5=AssumptionCheck(holds=True, margin=1e-08, "
    "witness=None, note=''), a6=AssumptionCheck(holds=True, "
    "margin=0.7133414786345202, witness=None, note=''), "
    'critical_mass=0.03676470588235292)'
)


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_sampled_check_reports_are_pinned(name):
    build, d = GOLDEN_MODELS[name]
    assert repr(fk.check_assumptions(build(), sample_density=d)) == GOLDEN_REPORTS[name]


def _nan_force(j, tau, w):
    """Springs and a pinning sine, but NaN wherever V_0 mod 1 > 0.7."""
    w = np.asarray(w, dtype=float)
    c = w[..., 1]
    F = (w[..., 2] - c) - (c - w[..., 0]) + 0.5 * np.sin(2 * math.pi * c)
    return np.where(c % 1.0 > 0.7, np.nan, F)


def test_sampled_check_fails_non_finite_force_with_witness():
    """A NaN sample loses every comparison of the worst-case search, so it
    must fail a4 outright, with the first non-finite sample as witness."""
    m = build_tabulated(_nan_force, n=1, m=1, m0=1 / 24, lip_V=4 + math.pi,
                        f_at_zero_sup=0.0, batch=True)
    rep = fk.check_assumptions(m, sample_density=8)
    assert not rep.core_holds and not rep.a4.holds
    assert rep.a4.margin == -math.inf
    # j = 1 on the tau = 0 block, windows in mesh order: V_0 = 0.75 comes first
    assert rep.a4.witness == (1, 0.0, 0.0, 0.75, 0.0)
    assert json.loads(report_to_json(rep))["a4"]["margin"] is None
    with pytest.raises(ModelError, match="a4"):
        fk.rotation_number(m, 1, T_cap=4.0)


def _wide_nan_force(j, tau, w):
    """Springs and a pinning sine, but NaN on windows wider than 1.5: no
    window of the mesh or its layers is, only some a6 tuples."""
    w = np.asarray(w, dtype=float)
    c = w[..., 1]
    F = (w[..., 2] - c) - (c - w[..., 0]) + 0.5 * np.sin(2 * math.pi * c)
    return np.where(w[..., 2] - w[..., 0] > 1.5, np.nan, F)


#: the report of _wide_nan_force at density 8, recorded before the a6
#: samples went through the one-window path of _force: the witness is the
#: first wide window of the type-2 side, (j + 1, tau, V_{-1}, V_0, V_1)
WIDE_NAN_REPORT = (
    "AssumptionReport(a1=AssumptionCheck(holds=True, margin=0.08012520466907347, "
    "witness=None, note=''), a2=AssumptionCheck(holds=True, "
    "margin=0.9999999999999996, witness=None, note=''), "
    "a3=AssumptionCheck(holds=True, margin=1.8770650821585626, witness=None, "
    "note=''), a4=AssumptionCheck(holds=False, margin=-inf, "
    "witness=(2, 0.34286637343206705, np.float64(0.1333800175342028), "
    "np.float64(1.6826345592247665), np.float64(1.8582084415940123)), "
    "note='non-finite force value at the witness'), "
    "a5=AssumptionCheck(holds=True, margin=1e-08, witness=None, note=''), "
    "a6=AssumptionCheck(holds=True, margin=inf, witness=None, note=''), "
    "critical_mass=0.049392790140215324)"
)


@pytest.mark.parametrize("batch", [True, False])
def test_sampled_check_witness_of_a_non_finite_a6_sample(batch):
    m = build_tabulated(_wide_nan_force, n=1, m=1, m0=1 / 24, lip_V=4 + math.pi,
                        f_at_zero_sup=0.0, batch=batch)
    assert repr(fk.check_assumptions(m, sample_density=8)) == WIDE_NAN_REPORT


def _nan_where(mask):
    """Springs and a pinning sine, NaN where mask(V_{-1}, V_0) holds."""
    def fn(j, tau, w):
        w = np.asarray(w, dtype=float)
        c = w[..., 1]
        F = (w[..., 2] - c) - (c - w[..., 0]) + 0.5 * np.sin(2 * math.pi * c)
        return np.where(mask(w[..., 0], c), np.nan, F)
    return fn


def _odd_sixteenth(v):
    return np.round(16 * v) % 2 == 1


@pytest.mark.parametrize("mask, witness", [
    # NaN only on the +-h/2 layers of V_0 past 0.3: the plus mesh of the
    # centre slot reaches V_0 = 0.3125 first
    (lambda vm, c: _odd_sixteenth(c) & (c % 1.0 > 0.3), (1, 0.0, 0.0, 0.3125, 0.0)),
    # NaN only on the +-h/2 layers of V_{-1}: the plus mesh of slot 0 comes first
    (lambda vm, c: _odd_sixteenth(vm), (1, 0.0, 0.0625, 0.0, 0.0)),
    # NaN on the lowest layer V_0 = -h/2 and on the top one, V_0 = 1 - h/2: the
    # whole plus mesh is scanned before the minus mesh, so the top layer wins
    (lambda vm, c: (c < 0) | ((c > 0.9) & (c < 1)), (1, 0.0, 0.0, 0.9375, 0.0)),
])
def test_non_finite_derivative_layers_keep_the_witness_order(mask, witness):
    """Forces that are non-finite only on the +-h/2 derivative layers: the
    witness is the first non-finite sample of the slot's plus mesh (tau
    first, then windows in mesh order), else of its minus mesh."""
    m = build_tabulated(_nan_where(mask), n=1, m=1, m0=1 / 24, lip_V=4 + math.pi,
                        f_at_zero_sup=0.0, batch=True)
    rep = fk.check_assumptions(m, sample_density=8)
    assert not rep.a4.holds and rep.a4.margin == -math.inf
    assert rep.a4.witness == witness


class _Counting:
    """A force callable that counts its calls and the windows it receives."""

    def __init__(self, fn):
        self.fn, self.calls, self.windows = fn, 0, 0

    def __call__(self, j, tau, w):
        self.calls += 1
        self.windows += len(w) if np.ndim(w) == 2 else 1
        return self.fn(j, tau, w)


@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("d, layers", [(4, 5), (6, 10), (8, 9)])
def test_sampled_check_evaluates_each_derivative_layer_once(d, layers, batch):
    """Per type: 4 base meshes of d tau pieces, one call per tau piece and
    slot over the slot's distinct +-h/2 layers (d + 1 for dyadic d; at
    d = 6 three more, split by an ulp), and one call per a6 tuple on each
    side.  Two meshes per slot would read w d^w (2d - layers) windows more
    per type."""
    fn, n, m = (_wavy_force, 2, 2) if batch else (_window_force, 1, 1)
    counting = _Counting(fn)
    model = build_tabulated(counting, n=n, m=m, m0=0.02, lip_V=10.0,
                            f_at_zero_sup=0.3, batch=batch)
    fk.check_assumptions(model, sample_density=d)
    w, tuples = 2 * m + 1, max(256, 64 * d)
    assert counting.windows == n * (d ** w * (4 * d + w * layers) + 2 * tuples)
    if batch:
        assert counting.calls == n * (4 * d + w * d + 2 * tuples)


def _quarters(v):
    """floor(4 frac(v)) / 4: 1-periodic, and exact on the dyadic mesh."""
    return np.floor(4 * (v % 1.0)) / 4


def _tied_a4_force(j, tau, w):
    """V_{-1} q(tau) + tau q(V_0): the window shift leaves a residual q(tau)
    and the tau shift one q(V_0), both at most 0.75, reached first at
    tau = 0.75 and at tau = 0, V_0 = 0.75."""
    w = np.asarray(w, dtype=float)
    return w[..., 0] * _quarters(tau) + tau * _quarters(w[..., 1])


def _tied_a2_force(j, tau, w):
    """-q(V_{-1}) and -q(V_1), weighted 1 and 1/2 for tau mod 1 >= 1/2 and
    the other way round before: both neighbour derivatives reach -2, slot 2
    at tau = 0, slot 0 only at tau = 0.5."""
    w = np.asarray(w, dtype=float)
    late = 1.0 if tau % 1.0 >= 0.5 else 0.5
    return -late * _quarters(w[..., 0]) - (1.5 - late) * _quarters(w[..., 2])


def _one_tau_nan_force(j, tau, w):
    """Springs, stiffer for odd types, and a pinning sine; NaN for odd types
    at tau = 0.375 on odd sixteenths of V_0, which only the +-h/2 layers of
    the centre slot reach at density 8."""
    w = np.asarray(w, dtype=float)
    odd = np.asarray(j) % 2 == 1
    c = w[..., 1]
    F = (np.where(odd, 1.5, 1.0) * ((w[..., 2] - c) - (c - w[..., 0]))
         + 0.5 * np.sin(2 * math.pi * c))
    return np.where(_odd_sixteenth(c) & odd & (tau == 0.375), np.nan, F)


#: reports of the sampled check at density 8, recorded on the whole-mesh scan
#: before the check went one tau block at a time: ties go to the phase that
#: comes first (the window shift before the tau shift, slot 0 before slot 2)
#: wherever the tau order puts them, and a NaN in one tau block of a type's
#: centre-slot differences drops that type's a1, a3 and critical mass, so
#: those come from type 2 alone
ORDER_REPORTS = {
    "tied_a4": (
        lambda: build_tabulated(_tied_a4_force, n=1, m=1, m0=1 / 24, lip_V=1.0,
                                f_at_zero_sup=0.0, batch=True),
        "AssumptionReport(a1=AssumptionCheck(holds=False, margin=-4.99999999, "
        "witness=(1, 0.875, np.float64(0.0), np.float64(0.0), np.float64(0.0)), "
        "note=''), a2=AssumptionCheck(holds=True, margin=0.0, witness=None, "
        "note=''), a3=AssumptionCheck(holds=True, margin=1.5, witness=None, "
        "note=''), a4=AssumptionCheck(holds=False, margin=-0.74999999, "
        "witness=(1, 0.75, np.float64(0.0), np.float64(0.0), np.float64(0.0)), "
        "note=''), a5=AssumptionCheck(holds=True, margin=1e-08, witness=None, "
        "note=''), a6=AssumptionCheck(holds=True, margin=0.1681366970340008, "
        "witness=None, note=''), critical_mass=0.047619047619047616)"),
    "tied_a2": (
        lambda: build_tabulated(_tied_a2_force, n=1, m=1, m0=1 / 24, lip_V=1.0,
                                f_at_zero_sup=0.0, batch=True),
        "AssumptionReport(a1=AssumptionCheck(holds=False, margin=-7.99999999, "
        "witness=(1, 0.0, np.float64(0.0), np.float64(0.0), np.float64(0.0)), "
        "note=''), a2=AssumptionCheck(holds=False, margin=-2.0, "
        "witness=(1, 0.5, np.float64(0.25), np.float64(0.0), np.float64(0.0)), "
        "note=''), a3=AssumptionCheck(holds=True, margin=12.0, witness=None, "
        "note=''), a4=AssumptionCheck(holds=True, margin=1e-08, witness=None, "
        "note=''), a5=AssumptionCheck(holds=True, margin=1e-08, witness=None, "
        "note=''), a6=AssumptionCheck(holds=False, margin=-1.4456830090293256, "
        "witness=(1, 0.8796037337143668, np.float64(0.2222812872157347), "
        "np.float64(0.8390413407865722), np.float64(0.8435677567007951), "
        "np.float64(1.8608915728278896)), note=''), critical_mass=inf)"),
    "one_tau_nan": (
        lambda: build_tabulated(_one_tau_nan_force, n=2, m=1, m0=1 / 24,
                                lip_V=4 + math.pi, f_at_zero_sup=0.0, batch=True),
        "AssumptionReport(a1=AssumptionCheck(holds=True, margin=0.08012520466907347, "
        "witness=None, note=''), a2=AssumptionCheck(holds=True, "
        "margin=0.9999999999999996, witness=None, note=''), "
        "a3=AssumptionCheck(holds=True, margin=1.8770650821585626, witness=None, "
        "note=''), a4=AssumptionCheck(holds=False, margin=-inf, "
        "witness=(1, 0.375, np.float64(0.0), np.float64(0.0625), np.float64(0.0)), "
        "note='non-finite force value at the witness'), "
        "a5=AssumptionCheck(holds=True, margin=1e-08, witness=None, note=''), "
        "a6=AssumptionCheck(holds=True, margin=0.4357297907228057, witness=None, "
        "note=''), critical_mass=0.049392790140215324)"),
}


@pytest.mark.parametrize("name", sorted(ORDER_REPORTS))
def test_sampled_check_ties_and_nan_keep_the_whole_mesh_order(name):
    build, report = ORDER_REPORTS[name]
    assert repr(fk.check_assumptions(build(), sample_density=8)) == report


def test_sampled_check_memory_is_one_tau_block():
    """The traced peak of one check of an n = 2, m = 2 batch force at
    density 8 (d^(2m+2) = 262 144 mesh points, 2 MB an array): 16.24 MB
    when the check held whole-mesh arrays, 5.36 MB one tau block at a
    time.  The bound is half the first figure."""
    m = build_tabulated(_wavy_force, n=2, m=2, m0=0.02, lip_V=10.0,
                        f_at_zero_sup=0.3, batch=True)
    fk.check_assumptions(m, sample_density=8)      # fill the module caches
    tracemalloc.start()
    try:
        fk.check_assumptions(m, sample_density=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16.24e6 / 2


@pytest.mark.parametrize("density", [8.0, 2.5, "8", None])
def test_sample_density_must_be_an_integer(density):
    m = fk.build_constant_force(1.5, m0=0.05)
    with pytest.raises(ModelError, match="sample_density"):
        fk.check_assumptions(m, sample_density=density)
    assert fk.check_assumptions(m, sample_density=np.int64(4)).core_holds


#: check_assumptions of the classical two-type model below at the default
#: density, as recorded before the density was checked for both kinds
CLASSICAL_REPORT = (
    "AssumptionReport(a1=AssumptionCheck(holds=True, margin=inf, witness=None, "
    "note='affine-plus-sine form, Lipschitz by construction'), "
    "a2=AssumptionCheck(holds=True, margin=1.0, witness=None, note=''), "
    "a3=AssumptionCheck(holds=True, margin=34.74690350851266, witness=None, "
    "note=''), a4=AssumptionCheck(holds=True, margin=inf, witness=None, "
    "note='exact by construction'), a5=AssumptionCheck(holds=True, margin=inf, "
    "witness=None, note='spring table repeats with period n'), "
    "a6=AssumptionCheck(holds=True, margin=33.54690350851266, witness=None, "
    "note=''), critical_mass=0.032780229265516485)"
)


@pytest.mark.parametrize("density", [2.5, 1, "8"])
def test_sample_density_is_checked_for_both_kinds(density):
    """A classical model takes its closed forms, yet a bad sample_density
    fails for it as it does for a tabulated one."""
    classical = fk.build_classical_fk([1.0, 1.6], amplitude=0.8, drive=0.3, m0=0.01)
    for m in (classical, fk.build_constant_force(1.5, m0=0.05)):
        with pytest.raises(ModelError, match="sample_density"):
            fk.check_assumptions(m, sample_density=density)
    assert repr(fk.check_assumptions(classical)) == CLASSICAL_REPORT
    assert repr(fk.check_assumptions(classical, sample_density=3)) == CLASSICAL_REPORT


def test_batch_force_result_shape_rule():
    """A batch force's 0-d result is broadcast to (K,) on every path; any
    other shape but (K,) is a ModelError that names (K,)."""
    m = build_tabulated(lambda j, tau, w: 0.5, n=1, m=1, m0=0.05, lip_V=0.0,
                        f_at_zero_sup=0.5, batch=True)
    assert fk.check_assumptions(m, sample_density=4).core_holds
    assert fk.eval_force(m, 1, 0.0, (0.0, 0.0, 0.0)) == 0.5
    est = fk.rotation_number(m, 1, tol=1e-3, T_cap=64.0)
    assert est.lambda_hat == pytest.approx(0.5, abs=2e-3)
    table = fk.sweep(m, [1, Fraction(1, 2)], [0.0, 0.25], tol=1e-3, T_cap=64.0)
    assert np.allclose(table.lam, [[0.5, 0.5], [0.75, 0.75]], atol=2e-3)
    field = fk.rescale_micro(m, 0.0, 0.1, fk.Profile.linear(1.0, -5.0, 5.0),
                             T=0.1, window=(-5.0, 5.0))
    assert np.all(np.isfinite(field.values))

    bad = build_tabulated(lambda j, tau, w: np.zeros((len(w), 1)), n=1, m=1,
                          m0=0.05, lip_V=0.0, f_at_zero_sup=0.0, batch=True)
    with pytest.raises(ModelError, match=r"expected \(\d+,\)"):
        fk.check_assumptions(bad, sample_density=4)
    with pytest.raises(ModelError, match=r"shape \(6, 1\) for 6 windows; expected \(6,\)"):
        force_profile(bad, 0.0, np.arange(6.0), 6)


def test_one_drive_field_for_both_kinds():
    """with_extra_drive adds to the one drive field and keeps the kind: a
    driven tabulated model calls the user's own callable, and both kinds
    bound the zero window by f0 + |drive|."""
    def fn(j, tau, w):
        return 0.25 * np.sin(2 * math.pi * w[..., 1]) + 0.5

    tab = build_tabulated(fn, n=1, m=1, m0=0.05, lip_V=2.0, f_at_zero_sup=0.75,
                          batch=True)
    classical = fk.build_classical_fk([1.0], amplitude=1.0, drive=0.25, m0=0.01)
    w = np.array([0.1, 0.3, 0.45])
    for model, f0 in ((tab, 0.75), (classical, 0.0)):
        driven = fk.with_extra_drive(fk.with_extra_drive(model, 1.5), -2.0)
        assert driven.kind is model.kind and driven.f0 == model.f0 == f0
        assert driven.drive == model.drive - 0.5
        assert driven.f_at_zero_sup == f0 + abs(model.drive - 0.5)
        assert fk.eval_force(driven, 1, 0.3, w) == pytest.approx(
            fk.eval_force(model, 1, 0.3, w) - 0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# Constants ledger
# ---------------------------------------------------------------------------

def test_ledger_drops_to_gbar_when_m0_zero():
    m = fk.build_classical_fk([1.0], amplitude=1.0, drive=0.8, m0=0.02)
    led = fk.constants_ledger(m, p=1.0, M0=0.0, delta=0.0)
    assert led.Gbar == pytest.approx(2.0 * 0.8)
    assert led.K1 >= led.Gbar


def test_ledger_full_values_at_reference_point():
    alpha0 = 4.0 + 4.0 * math.pi
    m = fk.build_classical_fk([1.0], amplitude=1.0, drive=0.0,
                              m0=1.0 / (2.0 * alpha0))
    led = fk.constants_ledger(m, p=1.0, K0=1.0, M0=0.0, delta=0.0)
    L_F = 4.0 + 2.0 * math.pi
    # direct arithmetic through the ledger formulas
    L0 = 2.0 * L_F + alpha0
    K1 = L0 * (2.0 + 1.0 * 1.0 / 1.0 + 0.0) + 0.0   # L2 = 0, Gbar = 0, M0 = 0
    C4 = L_F * (2.0 + 1.0 * 2.0) + 0.0 + (0.5 + L_F) * 1.0
    C1 = C4 / alpha0 + 3.0 + 2.0
    C2 = 6.0 + 4.0 * C4 / alpha0 + 3.0 + 2.0 * C1 + 2.0 * K1
    assert led.K1 == pytest.approx(K1, rel=1e-14)
    assert led.C4 == pytest.approx(C4, rel=1e-14)
    assert led.C1 == pytest.approx(C1, rel=1e-14)
    assert led.C2 == pytest.approx(C2, rel=1e-14)
    assert led.C3 == pytest.approx(C2 + 1.0, rel=1e-14)
    assert led.c3_closed_form() == pytest.approx(led.C3, rel=1e-12)


def test_ledger_ordering_and_finiteness():
    m = fk.build_classical_fk([1.0, 2.0], amplitude=0.5, drive=1.0, m0=0.005)
    for p in (0.25, 1.0, 3.0):
        led = fk.constants_ledger(m, p=p)
        vals = [led.Gbar, led.K1, led.C1, led.C2, led.C3, led.C4]
        assert all(math.isfinite(v) and v >= 0 for v in vals)
        assert led.C1 < led.C2 < led.C3


def test_ledger_a0_forced_to_zero_without_delta():
    m = fk.build_classical_fk([1.0], m0=0.02)
    led = fk.constants_ledger(m, p=1.0, delta=0.0, a0=7.0)
    assert led.a0 == 0.0
    led2 = fk.constants_ledger(m, p=1.0, delta=0.5, a0=1.0)
    assert led2.a0 == 1.0
    assert led2.C4 >= led.C4


def test_ledger_requires_valid_K0():
    m = fk.build_classical_fk([1.0], m0=0.02)
    with pytest.raises(ModelError):
        fk.constants_ledger(m, p=2.0, K0=1.5)


def test_ledger_refuses_negative_delta():
    m = fk.build_classical_fk([1.0], m0=0.02)
    with pytest.raises(ModelError, match="delta must be nonnegative"):
        fk.constants_ledger(m, 1.0, delta=-1.0, a0=2.0)


@given(th=st.lists(st.floats(0.1, 4.0), min_size=1, max_size=3),
       amp=st.floats(0.0, 2.0), drive=st.floats(-3.0, 3.0),
       m0=st.floats(0.001, 0.2), p=st.fractions(min_value="1/8", max_value=8))
@settings(max_examples=100, deadline=None)
def test_ledger_identity_exact_rationals(th, amp, drive, m0, p):
    """C3 = C2 + 1 equals 13 + 6 C4/alpha0 + 7p + 2 K1 bit for bit in exact
    arithmetic, and to 1e-12 in floats."""
    m = fk.build_classical_fk(th, amplitude=amp, drive=drive, m0=m0)
    assert fk.ledger_identity_exact(m, p)
    led = fk.constants_ledger(m, p=float(p))
    assert led.c3_closed_form() == pytest.approx(led.C3, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def test_model_config_roundtrip():
    cfg = {"n": 2, "m": 1, "m0": 0.01,
           "force": {"kind": "classical_fk", "theta": [1.0, 2.0],
                     "amplitude": 1.0, "drive": 0.3}}
    m = model_from_config(cfg)
    assert m.n == 2 and m.alpha0 == 50.0
    back = model_from_config(model_to_config(m))
    assert back == m


def test_model_config_alpha0_form_and_errors():
    m = model_from_config({"alpha0": 20.0,
                           "force": {"kind": "classical_fk", "theta": [1.0]}})
    assert m.alpha0 == 20.0
    with pytest.raises(ModelError):
        model_from_config({"force": {"kind": "classical_fk", "theta": [1.0]}})
    with pytest.raises(ModelError):
        model_from_config({"m0": 0.01, "n": 3,
                           "force": {"kind": "classical_fk", "theta": [1.0]}})


def test_model_config_without_theta_names_the_key():
    with pytest.raises(ModelError) as exc:
        model_from_config({"m0": 0.05, "force": {"kind": "classical_fk"}})
    assert str(exc.value) == "config.model.force.theta: required for classical_fk"


def test_assumption_report_serializes():
    import json
    m = fk.build_classical_fk([1.0], m0=0.02)
    rep = fk.check_assumptions(m)
    d = json.loads(report_to_json(rep))
    assert d["a3"]["holds"] is True
    assert d["a4"]["margin"] is None            # structural guarantee -> inf -> null
