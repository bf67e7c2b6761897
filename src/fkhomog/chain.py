"""Microscopic twisted-periodic chains and the monotone explicit integrator.

State is the pair (U, Xi) with Xi_i = U_i + 2 m0 U_i'; the first-order system

    U_i'  = alpha0 (Xi_i - U_i)
    Xi_i' = 2 F_i(tau, U_{i-m}, ..., U_{i+m}) + alpha0 (U_i - Xi_i)

is advanced by explicit Euler.  The Euler map is nondecreasing in every state
entry iff dt * alpha0 <= 1 (diagonal terms) given the structural assumptions
on F (off-diagonal terms), so ordered states stay ordered; that comparison
property is the backbone of every certified estimate downstream and the
reason the integrator is Euler and not anything higher order.  A classical
RK4 integrator of the underlying second-order equation is kept purely as an
accuracy oracle.

A ring of N particles with the twist U_{i+N} = U_i + Q realizes an infinite
chain of exact rational slope p = n Q / N (positions advance by p per n
indices), with no boundary artifacts.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .model import (ForceModel, ModelError, ConstantsLedger, check_assumptions,
                    require_monotone, _force)

#: transient discarded before a-priori bounds are asserted, in units of 1/alpha0
TRANSIENT_RELAXATION_MULTIPLE = 5.0


class NumericalError(RuntimeError):
    """Integration produced NaN/overflow; carries the failing time and the
    last finite state."""

    def __init__(self, msg, tau=None, snapshot=None):
        super().__init__(msg)
        self.tau = tau
        self.snapshot = snapshot


@dataclass
class TwistedChain:
    """N particles on a ring with twist U_{i+N} = U_i + Q, slope p = nQ/N."""

    N: int
    Q: int
    U: np.ndarray
    Xi: np.ndarray
    tau: float
    p: Fraction
    model: ForceModel

    def __post_init__(self):
        if self.N < 1 or self.N % self.model.n != 0:
            raise ModelError("particle count N must be a positive multiple of n")
        if Fraction(self.model.n * self.Q, self.N) != self.p:
            raise ModelError("twist/slope mismatch: p must equal n*Q/N exactly")
        if self.U.shape != (self.N,) or self.Xi.shape != (self.N,):
            raise ModelError("state arrays must have shape (N,)")

    def copy(self) -> "TwistedChain":
        return TwistedChain(self.N, self.Q, self.U.copy(), self.Xi.copy(),
                            self.tau, self.p, self.model)


def init_linear(model: ForceModel, p, cells: int = 1,
                perturbation: Optional[Sequence[float]] = None) -> TwistedChain:
    """Slope-p initial data U_i = Xi_i = p i / n, optionally perturbed.

    p is an exact rational q/r; the ring holds N = n r cells particles with
    twist Q = q cells.  A perturbation must leave both arrays strictly
    increasing, including across the twist seam.
    """
    p = Fraction(p)
    if p <= 0:
        raise ModelError("slope p must be positive")
    if cells < 1:
        raise ModelError("cells must be >= 1")
    q, r = p.numerator, p.denominator
    N = model.n * r * cells
    Q = q * cells
    U = np.arange(N, dtype=float) * (q / (r * model.n))
    if perturbation is not None:
        pert = np.asarray(perturbation, dtype=float)
        if pert.shape != (N,):
            raise ModelError(f"perturbation must have length N = {N}")
        U = U + pert
    Xi = U.copy()
    chain = TwistedChain(N=N, Q=Q, U=U, Xi=Xi, tau=0.0, p=p, model=model)
    _require_ordered(chain)
    return chain


def _require_ordered(chain: TwistedChain):
    U, Xi, Q = chain.U, chain.Xi, chain.Q
    for name, v in (("U", U), ("Xi", Xi)):
        if chain.N > 1 and not np.all(np.diff(v) > 0):
            i = int(np.flatnonzero(np.diff(v) <= 0)[0])
            raise ModelError(f"initial {name} not strictly increasing at i={i}")
        if not v[0] + Q > v[-1]:
            raise ModelError(f"initial {name} ordering broken across the twist seam")


def cfl_dt(model: ForceModel, safety: float = 1.0, check: bool = True,
           delta: float = 0.0, a0: float = 0.0) -> float:
    """Largest certified-monotone Euler step, scaled by safety in (0, 1].

    U+ = U + dt a0 (Xi - U), Xi+ = Xi + dt (2F + a0 (U - Xi)) is nondecreasing
    in each entry iff dt a0 <= 1, given the off-diagonal monotonicity of F.
    The delta transport term subtracts up to delta*max(a0, 0) more from the
    Xi diagonal (a_i <= 0), which tightens the bound accordingly.
    """
    if not 0 < safety <= 1:
        raise ModelError("safety must lie in (0, 1]")
    if check:
        require_monotone(model)
    return safety / (model.alpha0 + delta * max(a0, 0.0))


@lru_cache(maxsize=16)
def _window_gather(N: int, Q: int, m: int, n: int):
    """Index, twist shift and 0-based type of the ring windows (U_{i-m}, ...,
    U_{i+m}): window[i, k] = U[idx[i, k]] + shift[i, k].  A neighbour across
    the seam adds its multiple of Q, any other adds -0.0, a no-op."""
    pos = np.arange(N)[:, None] + np.arange(-m, m + 1)
    idx = pos % N
    shift = float(Q) * (pos // N)
    shift[pos // N == 0] = -0.0
    types = np.arange(N) % n
    idx.flags.writeable = shift.flags.writeable = types.flags.writeable = False
    return idx, shift, types


def _neighbor(U: np.ndarray, Q: int, k: int) -> np.ndarray:
    """Values U_{i+k} for all i (last axis), using the twist for indices off
    the ring."""
    N = U.shape[-1]
    if k == 0:
        return U
    idx = np.arange(N) + k
    return U[..., idx % N] + Q * (idx // N)


def force_profile(model: ForceModel, tau: float, U: np.ndarray, Q: int,
                  drive: Optional[np.ndarray] = None) -> np.ndarray:
    """F_i(tau, window) for every particle of the ring, twist-aware.

    U has shape (N,) or (B, N) (B rings with the same twist Q).  drive, a
    (B, 1) column from :func:`fkhomog.model._drive_column`, gives each ring
    its own drive, as :func:`fkhomog.model.with_extra_drive` does.
    """
    idx, shift, types = _window_gather(U.shape[-1], Q, model.m, model.n)
    return _force(model, tau, U[..., idx] + shift, types, drive)


def _euler_coeff(model: ForceModel, dt: float, delta: float = 0.0,
                 a0: float = 0.0) -> tuple[float, float]:
    """Weights (1 - dt alpha0, dt alpha0) of the Euler map at step dt; warns
    past the monotone bound of :func:`cfl_dt`, where order is not preserved."""
    if delta < 0:
        raise ModelError("delta must be nonnegative")
    if dt * (model.alpha0 + delta * max(a0, 0.0)) > 1.0 + 1e-12:
        warnings.warn("dt exceeds the monotone CFL bound "
                      "1/(alpha0 + delta max(a0, 0)); comparison is no longer "
                      "certified", stacklevel=3)
    # clamping the diagonal keeps the update weights nonnegative even when
    # dt*alpha0 rounds a hair above 1 at the CFL limit
    beta = dt * model.alpha0
    return max(0.0, 1.0 - beta), beta


def _euler_update(U: np.ndarray, Xi: np.ndarray, F: np.ndarray, c: float,
                  beta: float, dt: float, extra: Optional[np.ndarray] = None):
    """U+ = c U + beta Xi, Xi+ = c Xi + beta U + 2 dt F (+ dt extra) on
    (..., N) arrays; c, beta from :func:`_euler_coeff`, extra the optional
    delta transport term."""
    U2 = c * U + beta * Xi
    Xi2 = c * Xi + beta * U + (2.0 * dt) * F
    if extra is not None:
        Xi2 += dt * extra
    return U2, Xi2


def _require_finite(U: np.ndarray, Xi: np.ndarray, tau: float, snapshot):
    """Raise NumericalError at tau, carrying the state pair ``snapshot``,
    unless U and Xi are finite."""
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(Xi))):
        raise NumericalError(f"state blew up at tau = {tau}", tau=tau,
                             snapshot=snapshot)


def step(chain: TwistedChain, dt: float, delta: float = 0.0,
         a0: float = 0.0) -> TwistedChain:
    """One explicit Euler step on all N particles; tau advances by dt.
    delta > 0 adds the transport term of the delta-perturbed dynamics."""
    return run(chain, dt, dt, dt=dt, delta=delta, a0=a0, check=False).final_state


def _delta_term(model: ForceModel, U: np.ndarray, Xi: np.ndarray, Q: int,
                p_float: float, delta: float, a0: float) -> np.ndarray:
    """delta (a0 + a_i) q_i^+ with a_i from the per-type running minimum of
    Xi - p y and q_i the one-cell difference of Xi, upwinded by the sign of
    the advection coefficient; rings along the last axis."""
    n = model.n
    N = U.shape[-1]
    y = np.arange(N) // n
    e = Xi - p_float * y
    per_type_min = e.reshape(*e.shape[:-1], -1, n).min(axis=-2)
    a = per_type_min[..., np.arange(N) % n] - e
    speed = delta * (a0 + a)
    q_f = _neighbor(Xi, Q, n) - Xi
    q_b = Xi - _neighbor(Xi, Q, -n)
    q = np.where(speed >= 0.0, q_f, q_b)
    return speed * np.maximum(q, 0.0)


@dataclass
class TrajectoryLog:
    """Uniformly sampled series of the n reference particles plus optional
    sparse full snapshots; final_state allows bitwise continuation."""

    sample_times: np.ndarray
    tracked_u: np.ndarray          # (n, S+1)
    tracked_xi: np.ndarray         # (n, S+1)
    snapshots: list                # [(tau, U, Xi)]
    final_state: TwistedChain
    sample_dt: float
    dt: float
    p: Fraction
    delta: float = 0.0
    a0: float = 0.0

    @property
    def span(self) -> float:
        return float(self.sample_times[-1] - self.sample_times[0])


#: samples advanced between finiteness checks of the state
CHECK_BLOCK = 64


def _march(model: ForceModel, U: np.ndarray, Xi: np.ndarray, Q: int,
           tau0: float, s: int, S: int, sample_dt: float, n_sub: int,
           dt_eff: float, c: float, beta: float, out: Optional[np.ndarray], *,
           drive: Optional[np.ndarray] = None, delta: float = 0.0,
           a0: float = 0.0, p_float: float = 0.0, snaps: Optional[list] = None,
           snapshot_stride: int = 0, block: int = CHECK_BLOCK):
    """Advance B rings, U and Xi of shape (B, N), from sample s to sample S of
    a march started at tau0 (sample k lands on tau0 + k sample_dt), n_sub
    Euler steps of dt_eff per sample.  Sample k of the n reference particles
    goes to out[:, :n, k] (U) and out[:, n:, k] (Xi); drive is the per-row
    column of :func:`force_profile`.  snapshot_stride > 0 appends the first
    ring's (tau, U, Xi) to snaps every that many samples.

    Finiteness is checked once per block of samples.  The march stops at the
    end of the first block in which a ring is not finite, and returns
    (U, Xi, k, errors): k is the last sample reached and errors maps each
    failing row to the NumericalError of its first non-finite sample (with
    the last finite sampled state), found by replaying the block for that row
    alone one sample at a time.  errors is empty when the march reached S.
    """
    n = model.n
    use_delta = delta > 0.0
    extra = None
    while s < S:
        s_end = min(s + block, S)
        U0, Xi0 = U, Xi            # arrays are replaced, never written in place
        for k in range(s + 1, s_end + 1):
            for j in range(n_sub):
                tau = tau0 + (k - 1) * sample_dt + j * dt_eff
                F = force_profile(model, tau, U, Q, drive)
                if use_delta:
                    extra = _delta_term(model, U, Xi, Q, p_float, delta, a0)
                U, Xi = _euler_update(U, Xi, F, c, beta, dt_eff, extra)
            if out is not None:
                out[:, :n, k] = U[:, :n]
                out[:, n:, k] = Xi[:, :n]
            if snapshot_stride > 0 and k % snapshot_stride == 0:
                snaps.append((tau0 + sample_dt * k, U[0].copy(), Xi[0].copy()))
        finite = np.isfinite(U).all(axis=1) & np.isfinite(Xi).all(axis=1)
        if not finite.all():
            bad = np.flatnonzero(~finite).tolist()
            if block == 1:
                tau = tau0 + sample_dt * s_end
                return U, Xi, s_end, {
                    b: NumericalError(f"state blew up at tau = {tau}", tau=tau,
                                      snapshot=(U0[b], Xi0[b])) for b in bad}
            errors = {}
            for b in bad:
                row = slice(b, b + 1)
                errors[b] = _march(
                    model, U0[row], Xi0[row], Q, tau0, s, s_end, sample_dt,
                    n_sub, dt_eff, c, beta, None,
                    drive=None if drive is None else drive[row], delta=delta,
                    a0=a0, p_float=p_float, block=1)[3][0]
            return U, Xi, s_end, errors
        s = s_end
    return U, Xi, s, {}


def run(chain: TwistedChain, T: float, sample_dt: float, *,
        dt: Optional[float] = None, delta: float = 0.0, a0: float = 0.0,
        snapshot_stride: int = 0, check: bool = True) -> TrajectoryLog:
    """Integrate for duration T, recording the n reference particles every
    sample_dt (the integrator substep divides sample_dt exactly).

    snapshot_stride > 0 stores a full (U, Xi) copy every that many samples
    (plus the initial state).  Returns a log whose final_state continues the
    run bitwise.  This is the one-ring case of the batched march that
    :func:`fkhomog.rotation.sweep` uses.
    """
    model = chain.model
    if sample_dt <= 0:
        raise ModelError("sample_dt must be positive")
    if check:
        rep = check_assumptions(model)
        if not rep.core_holds:
            # exploration of the non-monotone regime is allowed, just never
            # certified (critical mass is in the report)
            warnings.warn(
                f"model violates (A1)-(A5) (critical mass {rep.critical_mass:.4g}, "
                f"m0 = {model.m0:.4g}); run is not comparison-certified",
                stacklevel=2)
    if dt is None:
        dt = cfl_dt(model, safety=0.5, check=False, delta=delta, a0=a0)
    n_sub = max(1, math.ceil(sample_dt / dt - 1e-12))
    dt_eff = sample_dt / n_sub
    S = 0 if T <= 0 else math.ceil(T / sample_dt - 1e-12)

    n = model.n
    U = chain.U.reshape(1, -1).copy()
    Xi = chain.Xi.reshape(1, -1).copy()
    tau0 = chain.tau
    c, beta = _euler_coeff(model, dt_eff, delta, a0)

    times = tau0 + sample_dt * np.arange(S + 1)
    tracked = np.empty((1, 2 * n, S + 1))
    tracked[0, :n, 0] = U[0, :n]
    tracked[0, n:, 0] = Xi[0, :n]
    snaps = []
    if snapshot_stride > 0:
        snaps.append((float(times[0]), U[0].copy(), Xi[0].copy()))

    U, Xi, _, errors = _march(model, U, Xi, chain.Q, tau0, 0, S, sample_dt,
                              n_sub, dt_eff, c, beta, tracked, delta=delta,
                              a0=a0, p_float=float(chain.p), snaps=snaps,
                              snapshot_stride=snapshot_stride)
    if errors:
        raise errors[0]

    final = TwistedChain(chain.N, chain.Q, U[0], Xi[0], float(times[-1]),
                         chain.p, model)
    return TrajectoryLog(sample_times=times, tracked_u=tracked[0, :n],
                         tracked_xi=tracked[0, n:], snapshots=snaps,
                         final_state=final, sample_dt=sample_dt, dt=dt_eff,
                         p=chain.p, delta=delta, a0=a0)


def extend(log: TrajectoryLog, extra_T: float, snapshot_stride: int = 0) -> TrajectoryLog:
    """Continue a run; the concatenated log is bitwise identical to a single
    longer run because samples align with whole integrator steps."""
    more = run(log.final_state, extra_T, log.sample_dt, dt=log.dt,
               delta=log.delta, a0=log.a0, snapshot_stride=snapshot_stride,
               check=False)
    times = np.concatenate([log.sample_times, more.sample_times[1:]])
    tr_u = np.concatenate([log.tracked_u, more.tracked_u[:, 1:]], axis=1)
    tr_xi = np.concatenate([log.tracked_xi, more.tracked_xi[:, 1:]], axis=1)
    snaps = log.snapshots + [s for s in more.snapshots if s[0] > log.sample_times[-1]]
    return TrajectoryLog(sample_times=times, tracked_u=tr_u, tracked_xi=tr_xi,
                         snapshots=snaps, final_state=more.final_state,
                         sample_dt=log.sample_dt, dt=log.dt, p=log.p,
                         delta=log.delta, a0=log.a0)


# ---------------------------------------------------------------------------
# Invariant monitoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    """Worst-case discrete invariants over the monitored states."""

    ordering_violation: float      # max (U_i - U_{i+1})^+ and Xi analog, seam included
    u_xi_gap: float                # max |U - Xi| after the transient
    space_osc: float               # max |U_{i+nk} - U_i - p k| after the transient
    delta_gradient: float          # max one-cell forward difference of Xi
    gap_bound: Optional[float] = None
    osc_exceeded: bool = False
    gap_exceeded: bool = False

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("ordering_violation", "u_xi_gap", "space_osc", "delta_gradient",
                 "gap_bound", "osc_exceeded", "gap_exceeded")}


def _state_ordering_violation(U, Xi, Q) -> float:
    worst = 0.0
    for v in (U, Xi):
        if v.size > 1:
            worst = max(worst, float(np.maximum(v[:-1] - v[1:], 0.0).max()))
        worst = max(worst, max(0.0, float(v[-1] - (v[0] + Q))))
    return worst


def _state_space_osc(U, n, p_float) -> float:
    y = np.arange(U.size) // n
    e = (U - p_float * y).reshape(-1, n)
    return float((e.max(axis=0) - e.min(axis=0)).max())


def monitor_invariants(obj, ledger: Optional[ConstantsLedger] = None,
                       transient: Optional[float] = None) -> InvariantReport:
    """Evaluate the discrete invariants on a chain or on a log's snapshots.

    Ordering is checked at every state; the u-Xi gap and space oscillation
    only after the relaxation transient (default 5/alpha0 past the first
    monitored time), matching how the a-priori bounds are stated for data
    started on the exact traveling line.
    """
    if isinstance(obj, TwistedChain):
        states = [(obj.tau, obj.U, obj.Xi)]
        model, p, Q = obj.model, obj.p, obj.Q
        t0 = obj.tau
    else:
        states = obj.snapshots if obj.snapshots else \
            [(obj.final_state.tau, obj.final_state.U, obj.final_state.Xi)]
        model, p, Q = obj.final_state.model, obj.p, obj.final_state.Q
        t0 = float(obj.sample_times[0])
    if transient is None:
        transient = TRANSIENT_RELAXATION_MULTIPLE / model.alpha0
    cut = t0 + transient
    p_float = float(p)

    ordering = 0.0
    gap = 0.0
    osc = 0.0
    dgrad = 0.0
    for tau, U, Xi in states:
        ordering = max(ordering, _state_ordering_violation(U, Xi, Q))
        if tau >= cut or len(states) == 1:
            gap = max(gap, float(np.abs(U - Xi).max()))
            osc = max(osc, _state_space_osc(U, model.n, p_float),
                      _state_space_osc(Xi, model.n, p_float))
            fwd = _neighbor(Xi, Q, model.n) - Xi
            dgrad = max(dgrad, float(fwd.max()))

    gap_bound = None if ledger is None else ledger.C4 / model.alpha0
    return InvariantReport(
        ordering_violation=ordering, u_xi_gap=gap, space_osc=osc,
        delta_gradient=dgrad, gap_bound=gap_bound,
        osc_exceeded=osc > 1.0 + 1e-9,
        gap_exceeded=(gap_bound is not None and gap > gap_bound + 1e-9),
    )


# ---------------------------------------------------------------------------
# RK4 accuracy oracle (non-monotone; cross-validation only)
# ---------------------------------------------------------------------------

def rk4_oracle(model: ForceModel, chain0: TwistedChain, T: float, dt: float,
               sample_dt: Optional[float] = None) -> TrajectoryLog:
    """Classical RK4 on m0 U'' + U' = F in (U, W = U') variables.

    Xi is reconstructed as U + 2 m0 W = U + W/alpha0.  Used to cross-check
    the Euler path; it does not preserve comparison.
    """
    a0 = model.alpha0
    if sample_dt is None:
        sample_dt = dt
    n_sub = max(1, round(sample_dt / dt))
    dt = sample_dt / n_sub
    S = 0 if T <= 0 else math.ceil(T / sample_dt - 1e-12)

    U = chain0.U.copy()
    W = a0 * (chain0.Xi - chain0.U)
    Q = chain0.Q
    n = model.n
    tau0 = chain0.tau

    def deriv(tau, u, w):
        F = force_profile(model, tau, u, Q)
        return w, 2.0 * a0 * (F - w)

    times = tau0 + sample_dt * np.arange(S + 1)
    tr_u = np.empty((n, S + 1))
    tr_xi = np.empty((n, S + 1))
    tr_u[:, 0] = U[:n]
    tr_xi[:, 0] = (U + W / a0)[:n]
    snaps = [(float(times[0]), U.copy(), (U + W / a0).copy())]

    for s in range(1, S + 1):
        for k in range(n_sub):
            tau = tau0 + (s - 1) * sample_dt + k * dt
            k1u, k1w = deriv(tau, U, W)
            k2u, k2w = deriv(tau + dt / 2, U + dt / 2 * k1u, W + dt / 2 * k1w)
            k3u, k3w = deriv(tau + dt / 2, U + dt / 2 * k2u, W + dt / 2 * k2w)
            k4u, k4w = deriv(tau + dt, U + dt * k3u, W + dt * k3w)
            U = U + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
            W = W + dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        Xi = U + W / a0
        _require_finite(U, Xi, float(times[s]), (U, Xi))
        tr_u[:, s] = U[:n]
        tr_xi[:, s] = Xi[:n]
        snaps.append((float(times[s]), U.copy(), Xi.copy()))

    final = TwistedChain(chain0.N, Q, U, U + W / a0, float(times[-1]),
                         chain0.p, model)
    return TrajectoryLog(sample_times=times, tracked_u=tr_u, tracked_xi=tr_xi,
                         snapshots=snaps, final_state=final,
                         sample_dt=sample_dt, dt=dt, p=chain0.p)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def snapshot_to_csv(chain: TwistedChain) -> str:
    buf = io.StringIO()
    buf.write("i,U,Xi\n")
    for i in range(chain.N):
        buf.write(f"{i},{float(chain.U[i])!r},{float(chain.Xi[i])!r}\n")
    return buf.getvalue()


def trajectory_to_csv(log: TrajectoryLog) -> str:
    buf = io.StringIO()
    buf.write("tau,j,U_j,Xi_j\n")
    n = log.tracked_u.shape[0]
    for s, tau in enumerate(log.sample_times):
        for j in range(n):
            buf.write(f"{float(tau)!r},{j + 1},{float(log.tracked_u[j, s])!r},{float(log.tracked_xi[j, s])!r}\n")
    return buf.getvalue()
