"""Output checks and the independent references they compare against.

Nothing here calls fkhomog: each check takes plain numbers and arrays and
returns a list of ``(operation, ok, detail)`` tuples, one per checked
property, so the benchmark can count them and the tests can feed perturbed
outputs.  The references are the benchmark's own computations:

* :func:`scalar_rotation` iterates the two-variable Euler recursion that a
  one-type classical ring at slope p = 1 reduces to (every particle moves by
  the same amount, the springs cancel), and brackets its rotation number by
  window rates over a long horizon;
* :func:`force_balance` averages the onsite force over snapshots of a
  twisted ring, where the springs telescope, so mean speed = L + mean
  onsite force.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def scalar_rotation(alpha0: float, dt: float, amplitude: float, drives,
                    horizon: float, stride: int = 16):
    """Rotation numbers of u+ = c u + b xi, xi+ = c xi + b u + 2 dt (A sin 2pi u + L)
    with b = dt alpha0, c = 1 - b, started at u = xi = 0, one per drive L.

    Returns (lambda, halfwidth) arrays: the midpoint and half-width of the
    bracket of window rates over the last three quarters of the horizon,
    windows of half that span.
    """
    L = np.asarray(drives, dtype=float)
    b = dt * alpha0
    c = max(0.0, 1.0 - b)
    u = np.zeros_like(L)
    xi = np.zeros_like(L)
    steps = int(math.ceil(horizon / dt))
    rec_u, rec_xi = [], []
    two_dt = 2.0 * dt
    for k in range(steps + 1):
        if k % stride == 0:
            rec_u.append(u)
            rec_xi.append(xi)
        f = amplitude * np.sin(TWO_PI * u) + L
        u, xi = c * u + b * xi, c * xi + b * u + two_dt * f
    series = np.concatenate([np.array(rec_u), np.array(rec_xi)], axis=1)
    series = series[len(series) // 4:]
    K = len(series) // 2
    W = K * stride * dt
    rates = (series[K:] - series[:-K]) / W
    rates = rates.reshape(rates.shape[0], 2, L.size)
    lo = rates.min(axis=(0, 1))
    hi = rates.max(axis=(0, 1))
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def force_balance(taus, U, L: float, amplitude: float, drive_amp: float):
    """Time average of L + mean_i(A sin 2pi U_i) + B sin 2pi tau over the
    snapshots, Hann-weighted, and an estimate of its averaging error: the
    larger distance of the two half-window averages from the full one."""
    taus = np.asarray(taus, dtype=float)
    f = L + amplitude * np.sin(TWO_PI * np.asarray(U)).mean(axis=1) \
        + drive_amp * np.sin(TWO_PI * taus)

    def hann_mean(v):
        w = np.sin(np.pi * np.arange(v.size) / (v.size - 1)) ** 2
        return float((w * v).sum() / w.sum())

    full = hann_mean(f)
    half = f.size // 2
    err = max(abs(hann_mean(f[:half]) - full), abs(hann_mean(f[half:]) - full))
    return full, err


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def entries_converged(converged, label="entry"):
    return [(f"{label}[{i}] converged", bool(c), "") for i, c in
            enumerate(np.ravel(converged))]


def monotone_in_L(lam, hw, label="column"):
    """lambda nondecreasing in L within twice the summed half-widths."""
    lam = np.asarray(lam, dtype=float)
    hw = np.asarray(hw, dtype=float)
    worst = float(np.max((lam[:-1] - lam[1:]) - 2.0 * (hw[:-1] + hw[1:])))
    return [(f"{label} monotone in L", worst <= 0.0,
             f"worst downward step beyond 2x half-widths {worst:.3g}")]


def matches_reference(lam, hw, ref, ref_hw, label="entry"):
    """|lambda - ref| <= halfwidth + reference half-width, per entry."""
    out = []
    for i, (lv, hv, rv, rh) in enumerate(zip(np.ravel(lam), np.ravel(hw),
                                              np.ravel(ref), np.ravel(ref_hw))):
        gap = abs(lv - rv)
        out.append((f"{label}[{i}] matches reference", bool(gap <= hv + rh),
                    f"|{lv:.6f} - {rv:.6f}| = {gap:.3g} vs {hv + rh:.3g}"))
    return out


def errors_decrease(errors):
    errors = list(errors)
    ok = all(a > b for a, b in zip(errors, errors[1:])) and all(
        math.isfinite(e) for e in errors)
    return [("errors strictly decrease as eps halves", ok, f"{errors}")]


def slopes_in_range(x, u, lo: float, hi: float, tol: float = 1e-9):
    """Difference quotients of every recorded profile stay in [lo, hi]: the
    monotone scheme cannot create slopes outside the initial range."""
    q = np.diff(np.asarray(u, dtype=float), axis=-1) / np.diff(np.asarray(x, dtype=float))
    qmin, qmax = float(q.min()), float(q.max())
    ok = qmin >= lo - tol and qmax <= hi + tol
    return [("macro slopes inside u0 slope range", ok,
             f"[{qmin:.6f}, {qmax:.6f}] vs [{lo:.6f}, {hi:.6f}]")]


def drive_bound(lam, L_grid, bound: float):
    """|lambda - L| <= A + B: the springs telescope on the twisted ring, so
    the mean speed differs from L by at most the onsite and drive forces."""
    lam = np.asarray(lam, dtype=float)
    L = np.asarray(L_grid, dtype=float).reshape(-1, *([1] * (lam.ndim - 1)))
    worst = float(np.max(np.abs(lam - L)))
    return [("|lambda - L| <= A + B", worst <= bound, f"{worst:.4f} vs {bound}")]


def balances_force(lam: float, hw: float, fb: float, fb_err: float):
    gap = abs(lam - fb)
    return [("lambda matches force balance", gap <= hw + fb_err,
             f"|{lam:.6f} - {fb:.6f}| = {gap:.3g} vs {hw:.3g} + {fb_err:.3g}")]


def hull_shape(h, p: float, tol: float = 1e-9):
    """Each tau-stratum h[k] (shape (n, Z), cell-midpoint grid on [0, 1)) is
    nondecreasing in z, including the wrap h(z + 1) = h(z) + 1, and ordered
    across types, including h_n(z) <= h_1(z + p)."""
    h = np.asarray(h, dtype=float)
    n, Z = h.shape[1], h.shape[2]
    z = (np.arange(Z) + 0.5) / Z
    mono = np.inf
    order = np.inf
    for hk in h:
        lifted = np.concatenate([hk, hk[:, :1] + 1.0], axis=1)
        mono = min(mono, float(np.diff(lifted, axis=1).min()))
        if n > 1:
            order = min(order, float((hk[1:] - hk[:-1]).min()))
        zs = z + p
        k = np.floor(zs)
        nodes = np.concatenate([[z[-1] - 1.0], z, [z[0] + 1.0]])
        vals = np.concatenate([[hk[0, -1] - 1.0], hk[0], [hk[0, 0] + 1.0]])
        top = np.interp(zs - k, nodes, vals) + k
        order = min(order, float((top - hk[-1]).min()))
    return [("hull strata nondecreasing in z", mono >= -tol, f"worst step {mono:.3g}"),
            ("hull ordered across types", order >= -tol, f"worst gap {order:.3g}")]


def cli_runs(rc_cold: int, rc_warm: int):
    return [("pipeline cold call exits 0", rc_cold == 0, f"rc {rc_cold}"),
            ("pipeline warm call exits 0", rc_warm == 0, f"rc {rc_warm}")]


def warm_call_cached(warm_log: str, stages, cold_files: dict, warm_files: dict):
    """The warm call misses no cache entry, hits every stage, and rewrites
    each checked file byte for byte."""
    hits = {s: warm_log.count(f"[cache] hit {s} ") for s in stages}
    misses = warm_log.count("[cache] miss ")
    out = [("warm call hits every stage", misses == 0 and all(hits.values()),
            f"hits {hits}, misses {misses}")]
    for name, data in cold_files.items():
        out.append((f"warm call rewrites {name} byte for byte",
                    warm_files.get(name) == data, ""))
    return out
