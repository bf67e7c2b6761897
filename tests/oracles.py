"""Reference computations that only the tests run, outside the certified
pipeline (which is the explicit Euler map alone): the ring force outside a
march, a classical RK4 integrator, the floor/ceil gradient sandwich probe
and the traveling-wave reconstruction."""

import math
from typing import Optional

import numpy as np

from fkhomog.chain import (NumericalError, TrajectoryLog, TwistedChain, _cut,
                           _n_samples, _window_gather)
from fkhomog.hull import HullFunction, hull_value
from fkhomog.macro import Field
from fkhomog.model import ClassicalFK, ForceModel, _force, _plan


def ring_force(model: ForceModel, N: int, Q: int):
    """F(tau, U) = drive + F_i(tau, window) for every particle of one float
    ring U of N particles with twist Q, read through the ring's gather
    (:func:`fkhomog.chain._window_gather`).

    A classical F reads its windows into one buffer planned once by
    :func:`fkhomog.model._plan`, and its result lives in that plan's
    buffers until the next call of the same F.  A tabulated F plans its
    windows on every call and returns a fresh array."""
    idx, shift, types = _window_gather(N, Q, model.m, model.n)
    if not isinstance(model.kind, ClassicalFK):
        def F(tau, U):
            W = U.take(idx, None, None, "clip")
            np.add(W, shift, W)
            return _force(model, tau, *_plan(model, W, types))
        return F
    # the plan reads rows of the windows' transpose: gathering into a buffer
    # of those rows keeps them contiguous, where the strided rows of a
    # window-last buffer make the RK4 oracle ~10 % slower
    idx, shift = idx.T.copy(), shift.T.copy()
    rows = np.empty((2 * model.m + 1, N))
    W, plan = _plan(model, rows.T, types)

    def F(tau, U):
        U.take(idx, None, rows, "clip")
        np.add(rows, shift, rows)
        return _force(model, tau, W, plan)
    return F


def rk4_oracle(model: ForceModel, chain0: TwistedChain, T: float, dt: float,
               sample_dt: Optional[float] = None) -> TrajectoryLog:
    """Classical RK4 on m0 U'' + U' = F in (U, W = U') variables, on the
    sample grid and substep rule of :func:`fkhomog.chain.run` (sample_dt
    defaults to dt).

    Xi is reconstructed as U + 2 m0 W = U + W/alpha0.  Every stage reads
    the force through one :func:`ring_force` of the ring.  Used to
    cross-check the Euler path; it does not preserve comparison.
    """
    a0 = model.alpha0
    if sample_dt is None:
        sample_dt = dt
    n_sub, dt = _cut(sample_dt, dt)
    S = _n_samples(T, sample_dt)
    U = chain0.U.astype(float)
    W = a0 * (chain0.Xi - chain0.U)
    Q, n, tau0 = chain0.Q, model.n, chain0.tau
    force = ring_force(model, chain0.N, Q)

    def deriv(tau, u, w):
        return w, 2.0 * a0 * (force(tau, u) - w)

    times = tau0 + sample_dt * np.arange(S + 1)
    snaps = [(float(times[0]), U.copy(), U + W / a0)]
    for s in range(1, S + 1):
        for k in range(n_sub):
            tau = tau0 + (s - 1) * sample_dt + k * dt
            k1u, k1w = deriv(tau, U, W)
            k2u, k2w = deriv(tau + dt / 2, U + dt / 2 * k1u, W + dt / 2 * k1w)
            k3u, k3w = deriv(tau + dt / 2, U + dt / 2 * k2u, W + dt / 2 * k2w)
            k4u, k4w = deriv(tau + dt, U + dt * k3u, W + dt * k3w)
            U = U + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
            W = W + dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        t, Xi = float(times[s]), U + W / a0
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(Xi))):
            raise NumericalError(f"state blew up at tau = {t}", tau=t,
                                 snapshot=(U, Xi))
        snaps.append((t, U.copy(), Xi))

    tracked = np.array([np.concatenate([u[:n], xi[:n]]) for _, u, xi in snaps]).T
    final = TwistedChain(chain0.N, Q, U, U + W / a0, float(times[-1]),
                         chain0.p, model)
    return TrajectoryLog(sample_times=times, tracked=tracked, snapshots=snaps,
                         final_state=final, sample_dt=sample_dt, dt=dt)


def gradient_sandwich_probe(field: Field, K0: float, n_type: int,
                            rng: np.random.Generator, n_probes: int = 100) -> dict:
    """Check the floor/ceil gradient sandwich on random (t, x, z) probes.

    Probes are quantized to realized index differences k (multiples of the
    type period), i.e. the sandwich is evaluated at the displacement
    z = eps k the field actually resolves:
    eps floor(k / K0) <= diff <= eps ceil(k K0).
    """
    eps = field.meta["eps"]
    nt, nx = field.values.shape
    worst_lo = math.inf
    worst_hi = math.inf
    for _ in range(n_probes):
        s = rng.integers(0, nt)
        i = int(rng.integers(0, nx - n_type))
        kmax = (nx - 1 - i) // n_type
        k = int(rng.integers(1, kmax + 1)) * n_type
        diff = field.values[s, i + k] - field.values[s, i]
        lo = eps * math.floor(k / K0)
        hi = eps * math.ceil(k * K0)
        worst_lo = min(worst_lo, diff - lo)
        worst_hi = min(worst_hi, hi - diff)
    return {"ok": worst_lo >= -1e-9 and worst_hi >= -1e-9,
            "slack_lower": worst_lo, "slack_upper": worst_hi}


def reconstruct_traveling_wave(hull: HullFunction, tau: float, y: float,
                               j: int) -> tuple[float, float]:
    """(U, Xi) of the traveling solution: (h_j(tau, p y + lambda tau), g_j(...))."""
    z = float(hull.p) * y + hull.lam * tau
    return (hull_value(hull, j, z, "h", tau), hull_value(hull, j, z, "g", tau))
