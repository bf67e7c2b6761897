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
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .model import (TWO_PI, ClassicalFK, ForceModel, ModelError, ConstantsLedger,
                    check_assumptions, require_monotone, _drive, _force, _plan,
                    _require_delta, _theta_pairs, _window_plan)

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
    _require_delta(delta)
    if check:
        require_monotone(model)
    return safety / (model.alpha0 + delta * max(a0, 0.0))


@lru_cache(maxsize=16)
def _window_gather(N: int, Q: int, m: int, n: int):
    """Index, twist shift and 0-based type of the ring windows (U_{i-m}, ...,
    U_{i+m}), window-major: row k holds U_{i+k-m} of every particle i, as
    window[k, i] = U[idx[k, i]] + shift[k, i].  A neighbour across the seam
    adds its multiple of Q, any other adds -0.0, a no-op."""
    pos = np.arange(-m, m + 1)[:, None] + np.arange(N)
    idx = pos % N
    shift = float(Q) * (pos // N)
    shift[pos // N == 0] = -0.0
    types = np.arange(N) % n
    idx.flags.writeable = shift.flags.writeable = types.flags.writeable = False
    return idx, shift, types


#: the windows of rings held one after another in one flat state, built
#: once per layout: ring b is U[bounds[b]:bounds[b + 1]] and a step reads
#: the windows U[idx] + shift of 0-based types.  Classical: idx and shift
#: window-major (2m+1, K), from which :func:`_affine` builds the fused
#: step, and plan and work None.  Tabulated: idx, shift and plan in the
#: layout of :func:`fkhomog.model._window_plan`, and work the scratch of
#: :func:`_euler_views`
_Gather = namedtuple("_Gather", "rings bounds idx shift types plan work")


def _flat_gather(model: ForceModel, rings) -> _Gather:
    """The flat gather of rings, given as (N, Q) pairs: each ring's
    :func:`_window_gather`, its indices offset by the ring's start, with
    what its steps need."""
    parts = [_window_gather(N, Q, model.m, model.n) for N, Q in rings]
    bounds = np.cumsum([0] + [N for N, _ in rings])
    idx = np.concatenate([ring[0] + lo for ring, lo in zip(parts, bounds)], axis=1)
    shift = np.concatenate([ring[1] for ring in parts], axis=1)
    types = np.concatenate([ring[2] for ring in parts])
    if isinstance(model.kind, ClassicalFK):
        return _Gather(tuple(rings), bounds, idx, shift, types, None, None)
    idx, shift, plan = _window_plan(model, idx, shift, types)
    return _Gather(tuple(rings), bounds, idx, shift, types, plan,
                   np.empty((2, 2, bounds[-1])))


def _neighbours(V: np.ndarray, Q: int, k: int):
    """(V_{i+k}, V_{i-k}) for every i along the last axis of twisted rings,
    read through the ring gather :func:`_window_gather`."""
    idx, shift, _ = _window_gather(V.shape[-1], Q, k, 1)
    return V[..., idx[-1]] + shift[-1], V[..., idx[0]] + shift[0]


@lru_cache(maxsize=16)
def _ring_plan(model: ForceModel, N: int, Q: int):
    """(idx, shift, types, W, plan): the gather of one ring of N particles
    with twist Q (:func:`_window_gather`) and, for a classical model, a
    window-major buffer W and the plan of :func:`fkhomog.model._force` on
    it, built once per (model, N, Q) for the ring readers outside a march.
    A tabulated plan copies its windows, so there W and plan are None."""
    idx, shift, types = _window_gather(N, Q, model.m, model.n)
    if not isinstance(model.kind, ClassicalFK):
        return idx, shift, types, None, None
    W = np.empty(idx.shape)
    return idx, shift, types, W, _plan(model, W, types)[1]


def _ring_force(model: ForceModel, tau: float, U: np.ndarray, layout):
    """drive + F_i(tau, window) of one float ring U on its layout from
    :func:`_ring_plan`.  A classical result lives in the layout's buffers
    until the next call on it; a tabulated one is fresh, as are its
    windows and types."""
    idx, shift, types, W, plan = layout
    if plan is None:
        return _force(model, tau, *_plan(model, U[idx] + shift, types))
    U.take(idx, None, W, "clip")
    np.add(W, shift, W)
    return _force(model, tau, W, plan)


def force_profile(model: ForceModel, tau: float, U: np.ndarray, Q: int) -> np.ndarray:
    """F_i(tau, window) for every particle of one ring U of shape (N,),
    twist-aware, as a fresh array, on the ring's cached
    :func:`_ring_plan`, whose buffers every call on that (model, N, Q)
    shares: two threads must not call it on one ring layout at once.  The
    marches of :func:`_march` read their windows through a
    :func:`_flat_gather` instead.
    """
    if np.ndim(U) != 1:
        raise ModelError(f"force_profile takes one ring U of shape (N,), "
                         f"got shape {np.shape(U)}")
    U = np.asarray(U, dtype=float)
    return _ring_force(model, tau, U, _ring_plan(model, len(U), Q)).copy()


def _euler_coeff(model: ForceModel, dt: float, delta: float = 0.0,
                 a0: float = 0.0) -> tuple[float, float]:
    """Weights (1 - dt alpha0, dt alpha0) of the Euler map at step dt; warns
    past the monotone bound of :func:`cfl_dt`, where order is not preserved,
    at the caller of step, run, extend (through :func:`_clock`) or rescale_micro."""
    _require_delta(delta)
    if dt * (model.alpha0 + delta * max(a0, 0.0)) > 1.0 + 1e-12:
        warnings.warn("dt exceeds the monotone CFL bound "
                      "1/(alpha0 + delta max(a0, 0)); comparison is no longer "
                      "certified", stacklevel=4)
    # clamping the diagonal keeps the update weights nonnegative even when
    # dt*alpha0 rounds a hair above 1 at the CFL limit
    beta = dt * model.alpha0
    return max(0.0, 1.0 - beta), beta


def _n_samples(T: float, h: float) -> int:
    """Spacings of h that cover the duration T: the least k with k h >= T,
    where a T that rounding put a hair (relative 1e-12) past k h counts as k;
    0 for T <= 0."""
    return 0 if T <= 0 else math.ceil(T / h - 1e-12)


def _cut(span: float, dt: float) -> tuple[int, float]:
    """(n_sub, span / n_sub): span > 0 in the fewest equal steps <= dt."""
    n_sub = max(1, _n_samples(span, dt))
    return n_sub, span / n_sub


#: one sample spacing of a march: n_sub Euler steps of dt, with the weights
#: (c, beta) of :func:`_euler_coeff` and the delta term's (delta, a0)
_Clock = namedtuple("_Clock", "sample_dt n_sub dt c beta delta a0")


def _clock(model: ForceModel, sample_dt: float, dt: float, delta: float = 0.0,
           a0: float = 0.0) -> _Clock:
    """The clock of a march that records every sample_dt > 0: sample_dt cut
    by :func:`_cut` into Euler steps no longer than dt, with their weights
    and the delta term's data."""
    if sample_dt <= 0:
        raise ModelError("sample_dt must be positive")
    n_sub, dt_eff = _cut(sample_dt, dt)
    return _Clock(sample_dt, n_sub, dt_eff,
                  *_euler_coeff(model, dt_eff, delta, a0), delta, a0)


def _transient_cut(model: ForceModel, t0: float,
                   transient: Optional[float] = None) -> float:
    """The time past which a march begun at t0 has relaxed: t0 + transient,
    by default TRANSIENT_RELAXATION_MULTIPLE / alpha0."""
    if transient is None:
        transient = TRANSIENT_RELAXATION_MULTIPLE / model.alpha0
    return t0 + transient


def _euler_views(S: np.ndarray, work: Optional[np.ndarray] = None):
    """The operands of :func:`_euler_update` on the stacked state S = (U, Xi)
    of shape (2, K), built once per layout: S, S reversed, its Xi row and
    scratch A, B shaped like S (the two halves of work, shape (2, 2, K),
    fresh by default) with B's first row."""
    if work is None:
        work = np.empty((2,) + S.shape)
    A, B = work
    return S, S[::-1], S[1], A, B, B[0]


def _euler_update(views, F: np.ndarray, c: float, beta: float, dt: float,
                  extra: Optional[np.ndarray] = None):
    """The Euler update in place on the stacked state S = (U, Xi):
    S <- c S + beta S[::-1], then Xi <- Xi + 2 dt F (+ dt extra), in five
    ufunc calls (seven with extra) on the operands views of
    :func:`_euler_views`; c, beta from :func:`_euler_coeff`, extra the
    optional delta transport term.  These are the operations of U <- c U +
    beta Xi and Xi <- c Xi + beta U + 2 dt F (+ dt extra) in their textbook
    order, so the result is bitwise theirs.  F and extra are only read: a
    tabulated force may return the user's own array.
    """
    S, R, Xi, A, B, b = views
    np.multiply(S, c, A)
    np.multiply(R, beta, B)
    np.add(A, B, S)                     # (c U + beta Xi, c Xi + beta U)
    np.multiply(F, 2.0 * dt, b)
    np.add(Xi, b, Xi)
    if extra is not None:
        np.multiply(extra, dt, b)
        np.add(Xi, b, Xi)


#: the fused classical Euler step of a march (:func:`_affine`): flat
#: indices idx into the stacked state and weights w, both (4, 2, K), of the
#: four terms every entry sums, the constant b (K,) of the Xi row, coef =
#: 2 dt A of the onsite sine, and the scratch G (4, 2, K) and s (K,) of a step
_Affine = namedtuple("_Affine", "idx w b coef G s")


def _affine(model: ForceModel, gather: _Gather, clock: _Clock,
            drive: np.ndarray) -> _Affine:
    """The classical Euler step of clock on the rings of a classical
    :func:`_flat_gather`, each particle with its total drive, as one
    affine map of the stacked state (U, Xi) plus the onsite sine:

        U_i  <- c U_i + beta Xi_i + 0 U_i + 0 U_i
        Xi_i <- c Xi_i + (beta - h (up_i + dn_i)) U_i + h up_i U_{i+1}
                + h dn_i U_{i-1} + b_i + h A sin(2 pi U_i),
        b_i  =  h (up_i sup_i + dn_i sdn_i + drive_i)

    with h = 2 dt, up_i and dn_i the springs ahead of and behind particle
    i, and sup_i, sdn_i the twist shifts of U_{i+1}, U_{i-1} across the
    seam (-0.0 elsewhere).  Every entry sums its four terms in this order, the
    U row padded with two zero weights on U_i itself, and every weight is
    computed entry by entry, so a ring's bits never depend on the rings
    beside it.  This is the formula of :func:`fkhomog.model._force` and
    the update of :func:`_euler_update` regrouped: the sums differ from
    theirs by rounding only."""
    m, K = model.m, gather.bounds[-1]
    h = 2.0 * clock.dt
    dn, up = _theta_pairs(model.kind.theta).take(gather.types, 1)
    own = np.arange(K)
    idx = np.empty((4, 2, K), dtype=np.intp)
    idx[0] = own, own + K
    idx[1] = own + K, own
    idx[2] = own, gather.idx[m + 1]
    idx[3] = own, gather.idx[m - 1]
    w = np.empty((4, 2, K))
    w[0] = clock.c
    w[1, 0] = clock.beta
    w[1, 1] = clock.beta - h * (up + dn)
    w[2:, 0] = 0.0
    w[2, 1] = h * up
    w[3, 1] = h * dn
    b = h * (up * gather.shift[m + 1] + dn * gather.shift[m - 1] + drive)
    return _Affine(idx, w, b, h * model.kind.amplitude, np.empty(w.shape),
                   np.empty(K))


def _affine_step(op: _Affine, S: np.ndarray, U: np.ndarray, Xi: np.ndarray,
                 dt: float, extra: Optional[np.ndarray] = None):
    """One Euler step of the operator op of :func:`_affine` in place on the
    stacked state S = (U, Xi), of rows U and Xi: one take of every term,
    the onsite sine of the pre-step U, one multiply by the weights, one sum
    of each entry's terms written into S, then Xi += b and Xi += sine.
    That is 8 calls, 4 with A = 0, and 2 more for the optional delta term
    extra, added as dt extra last, as :func:`_euler_update` adds it."""
    idx, w, b, coef, G, s = op
    # mode "clip" (the indices are in range): mode "raise" buffers the out
    S.take(idx, None, G, "clip")
    if coef:
        np.multiply(U, TWO_PI, s)
        np.sin(s, s)
        np.multiply(s, coef, s)
    np.multiply(G, w, G)
    np.add.reduce(G, 0, None, S)
    np.add(Xi, b, Xi)
    if coef:
        np.add(Xi, s, Xi)
    if extra is not None:
        np.multiply(extra, dt, s)
        np.add(Xi, s, Xi)


def step(chain: TwistedChain, dt: float, delta: float = 0.0,
         a0: float = 0.0) -> TwistedChain:
    """One explicit Euler step on all N particles; tau advances by dt.
    delta > 0 adds the transport term of the delta-perturbed dynamics."""
    clock = _clock(chain.model, dt, dt, delta, a0)
    return _advance_one(_start_log(chain, clock), 1, clock).final_state


def _delta_term(model: ForceModel, U: np.ndarray, Xi: np.ndarray, Q: int,
                delta: float, a0: float) -> np.ndarray:
    """delta (a0 + a_i) q_i^+ with a_i from the per-type running minimum of
    Xi - p y, p = n Q / N (bitwise float of the ring's slope), and q_i the
    one-cell difference of Xi, upwinded by the sign of the advection
    coefficient; rings along the last axis."""
    n = model.n
    N = U.shape[-1]
    y = np.arange(N) // n
    e = Xi - (n * Q / N) * y
    per_type_min = e.reshape(*e.shape[:-1], -1, n).min(axis=-2)
    a = per_type_min[..., np.arange(N) % n] - e
    speed = delta * (a0 + a)
    fwd, bwd = _neighbours(Xi, Q, n)
    q = np.where(speed >= 0.0, fwd - Xi, Xi - bwd)
    return speed * np.maximum(q, 0.0)


@dataclass
class TrajectoryLog:
    """Uniformly sampled series of the n reference particles plus optional
    sparse full snapshots.  Sample k is taken at sample_times[0] + k sample_dt
    and snapshot strides count from sample 0; :func:`extend` marches on from
    final_state on the same count, so a continued log is the longer run."""

    sample_times: np.ndarray
    tracked: np.ndarray            # (2n, S+1): U rows, then Xi rows
    snapshots: list                # [(tau, U, Xi)]
    final_state: TwistedChain
    sample_dt: float
    dt: float
    delta: float = 0.0
    a0: float = 0.0

    @property
    def tracked_u(self) -> np.ndarray:
        return self.tracked[:self.tracked.shape[0] // 2]

    @property
    def tracked_xi(self) -> np.ndarray:
        return self.tracked[self.tracked.shape[0] // 2:]

    @property
    def span(self) -> float:
        return float(self.sample_times[-1] - self.sample_times[0])


#: samples advanced between finiteness checks of the state
CHECK_BLOCK = 64


def _march(model: ForceModel, state: np.ndarray, gather: _Gather, tau0: float,
           s: int, S: int, clock: _Clock, out: Optional[np.ndarray], *,
           drive: np.ndarray, snaps: Optional[list] = None,
           snapshot_stride: int = 0, block: int = CHECK_BLOCK):
    """Advance the B rings of gather (:func:`_flat_gather`), held one after
    another in the stacked state (U, Xi) of shape (2, K), in place from
    sample s to sample S of a march started at tau0 (sample k lands on tau0
    + k sample_dt) in the Euler steps of clock (:func:`_clock`).  drive
    holds each particle's total drive.

    A classical step is one :func:`_affine_step` of the operator
    :func:`_affine` builds for the march.  A tabulated step reads all
    windows in gather's layout (one take into a fresh window-last array,
    one add of the shift; :func:`fkhomog.model._window_plan`), evaluates
    them in one :func:`fkhomog.model._force` call on gather's plan, which
    hands them to the callable as they are, in one call of a batch
    callable per step, and writes the state through one
    :func:`_euler_update`.  Every buffer, view and index a step uses is
    built once per march.  Sample k of the n reference
    particles of ring b goes to out[b, :n, k] (U) and out[b, n:, k] (Xi),
    taken into a buffer of the check block with one take per sample and
    written to out once per block.  A clock with delta > 0 adds the
    transport term of the first ring (a march with delta holds one ring).
    snapshot_stride > 0 appends copies of the first ring's (tau, U, Xi) to
    snaps every that many samples.

    Finiteness is checked once per block of samples, and each block starts
    from a copy of the state.  The march stops at the end of the first block
    in which a ring is not finite, and returns (k, errors): k is the last
    sample reached and errors maps each failing ring to the NumericalError
    of its first non-finite sample (with its last finite sampled state),
    found by replaying the block from that copy for that ring alone, one
    sample at a time.  errors is empty when the march reached S.
    """
    n = model.n
    sample_dt, n_sub, dt_eff, c, beta, delta, a0 = clock
    bounds, idx, shift, plan = gather.bounds, gather.idx, gather.shift, gather.plan
    U, Xi = state
    if plan is None:
        op = _affine(model, gather, clock, drive)
    else:
        views = _euler_views(state, gather.work)
    use_delta = delta > 0.0
    extra = None
    if out is not None:
        # the n reference particles of each ring, and the block's samples
        track = bounds[:-1, None] + np.arange(n)
        taken = np.empty((block, 2) + track.shape)
    # a ring that blows up overflows on its way to inf or NaN; the
    # finiteness check of its block finds it and reports it
    with np.errstate(over="ignore", invalid="ignore"):
        while s < S:
            s_end = min(s + block, S)
            state0 = state.copy()
            for k in range(s + 1, s_end + 1):
                t = tau0 + (k - 1) * sample_dt
                for j in range(n_sub):
                    if use_delta:
                        extra = _delta_term(model, U, Xi, gather.rings[0][1], delta, a0)
                    if plan is None:
                        _affine_step(op, state, U, Xi, dt_eff, extra)
                        continue
                    # ndarray.take, in mode "clip" (the indices are in range):
                    # the np.take wrapper costs more than the gather itself
                    # on a few dozen particles
                    W = U.take(idx, None, None, "clip")
                    np.add(W, shift, W)
                    _euler_update(views, _force(model, t + j * dt_eff, W, plan, drive),
                                  c, beta, dt_eff, extra)
                if out is not None:
                    state.take(track, 1, taken[k - s - 1], "clip")
                if snapshot_stride > 0 and k % snapshot_stride == 0:
                    snaps.append((tau0 + sample_dt * k, U[:bounds[1]].copy(),
                                  Xi[:bounds[1]].copy()))
            if out is not None:
                # taken[i, r, b] is row r (U, Xi) of ring b at sample s + 1 + i
                nb = s_end - s
                out[:, :, s + 1:s_end + 1] = taken[:nb].transpose(2, 1, 3, 0).reshape(
                    len(out), 2 * n, nb)
            finite = np.logical_and.reduceat(np.isfinite(state).all(axis=0),
                                             bounds[:-1])
            if not finite.all():
                bad = {b: slice(bounds[b], bounds[b + 1])
                       for b in np.flatnonzero(~finite).tolist()}
                if block == 1:
                    tau = tau0 + sample_dt * s_end
                    return s_end, {
                        b: NumericalError(f"state blew up at tau = {tau}", tau=tau,
                                          snapshot=(state0[0, ring], state0[1, ring]))
                        for b, ring in bad.items()}
                return s_end, {b: _march(
                    model, state0[:, ring], _flat_gather(model, gather.rings[b:b + 1]),
                    tau0, s, s_end, clock, None, drive=drive[ring], block=1)[1][0]
                    for b, ring in bad.items()}
            s = s_end
    return s, {}


def _start_log(chain: TwistedChain, clock: _Clock, snapshot_stride: int = 0):
    """The log of a march on clock that starts from chain: its one sample is
    chain itself, with a snapshot of it when snapshot_stride > 0."""
    n, tau0 = chain.model.n, float(chain.tau)
    snaps = [(tau0, chain.U.copy(), chain.Xi.copy())] if snapshot_stride > 0 else []
    return TrajectoryLog(sample_times=np.array([tau0]),
                         tracked=np.concatenate([chain.U[:n], chain.Xi[:n]])[:, None],
                         snapshots=snaps, final_state=chain,
                         sample_dt=clock.sample_dt, dt=clock.dt,
                         delta=clock.delta, a0=clock.a0)


def run(chain: TwistedChain, T: float, sample_dt: float, *,
        dt: Optional[float] = None, delta: float = 0.0, a0: float = 0.0,
        snapshot_stride: int = 0, check: bool = True) -> TrajectoryLog:
    """Integrate for duration T, recording the n reference particles every
    sample_dt (the integrator substep divides sample_dt exactly).

    snapshot_stride > 0 stores a full (U, Xi) copy every that many samples
    (plus the initial state).  Returns a log whose final_state continues the
    run bitwise.  This is the one-log case of :func:`_advance`, which also
    marches the tables of :func:`fkhomog.rotation.sweep`.
    """
    model = chain.model
    if dt is None:
        dt = cfl_dt(model, safety=0.5, check=False, delta=delta, a0=a0)
    clock = _clock(model, sample_dt, dt, delta, a0)
    if check:
        rep = check_assumptions(model)
        if not rep.core_holds:
            # exploration of the non-monotone regime is allowed, just never
            # certified (critical mass is in the report)
            warnings.warn(
                f"model violates (A1)-(A5) (critical mass {rep.critical_mass:.4g}, "
                f"m0 = {model.m0:.4g}); run is not comparison-certified",
                stacklevel=2)
    return _advance_one(_start_log(chain, clock, snapshot_stride),
                        _n_samples(T, sample_dt), clock, snapshot_stride)


def extend(log: TrajectoryLog, extra_T: float, snapshot_stride: int = 0) -> TrajectoryLog:
    """Continue a run by extra_T.  The log marches on from its last sample on
    its own count: sample k stays at sample_times[0] + k sample_dt and
    snapshots fall every snapshot_stride samples counted from sample 0, so
    the result is bitwise the single longer run (with that stride)."""
    clock = _clock(log.final_state.model, log.sample_dt, log.dt, log.delta, log.a0)
    return _advance_one(log, _n_samples(extra_T, log.sample_dt), clock,
                        snapshot_stride)


def _advance(logs: Sequence[TrajectoryLog], S: int, clock: _Clock,
             snapshot_stride: int = 0) -> tuple[list, dict]:
    """The logs marched on together by S samples on clock from their last
    sample s; they share s, their first sample time and their model up to
    the drive.  Returns (marched, errors): errors maps the index of each log
    whose ring blew up to its NumericalError, marched holds the other logs
    (None at the failed ones).

    The rings lie one after another in one flat state, a copy of the final
    states read through one :func:`_flat_gather`, and each particle adds
    its log's total drive (:func:`fkhomog.model._drive`).  A failed
    ring leaves the state at the end of its check block and the others go
    on, each bitwise as alone.  The marched series are views of one buffer,
    each final state owns its ring, and delta and snapshots are the first
    log's (:func:`_march`).
    """
    first = logs[0]
    model = first.final_state.model
    s = first.sample_times.size - 1
    times = first.sample_times[0] + first.sample_dt * np.arange(s + S + 1)
    rings = [(lg.final_state.N, lg.final_state.Q) for lg in logs]
    state = np.stack([np.concatenate([getattr(lg.final_state, name) for lg in logs],
                                     dtype=float) for name in ("U", "Xi")])
    out = np.empty((len(logs), first.tracked.shape[0], s + S + 1))
    for b, lg in enumerate(logs):
        out[b, :, :s + 1] = lg.tracked
    drive = np.repeat([_drive(lg.final_state.model) for lg in logs],
                      [N for N, _ in rings])
    snaps = [list(lg.snapshots) for lg in logs]
    live, errors, k = list(range(len(logs))), {}, s
    while True:
        gather = _flat_gather(model, [rings[b] for b in live])
        k, failed = _march(model, state, gather, float(times[0]), k, s + S,
                           clock, out, drive=drive, snaps=snaps[0],
                           snapshot_stride=snapshot_stride)
        errors.update((live[j], exc) for j, exc in failed.items())
        if not failed or len(failed) == len(live):
            break
        # the failed rings leave the state; the others go on from sample k
        ok = np.array([j not in failed for j in range(len(live))])
        cut = np.repeat(ok, np.diff(gather.bounds))
        live = [b for b, kept in zip(live, ok) if kept]
        state, out, drive = state[:, cut], out[ok], drive[cut]
    marched = [None] * len(logs)
    for j, b in enumerate(live):
        if b not in errors:
            ring = slice(gather.bounds[j], gather.bounds[j + 1])
            lg, ch = logs[b], logs[b].final_state
            final = TwistedChain(ch.N, ch.Q, state[0, ring].copy(),
                                 state[1, ring].copy(), float(times[-1]), ch.p,
                                 ch.model)
            marched[b] = TrajectoryLog(times, out[j], snaps[b], final,
                                       lg.sample_dt, lg.dt, lg.delta, lg.a0)
    return marched, errors


def _advance_one(log: TrajectoryLog, S: int, clock: _Clock, snapshot_stride: int = 0):
    """:func:`_advance` of one log, raising its NumericalError."""
    (log,), errors = _advance([log], S, clock, snapshot_stride)
    if errors:
        raise errors[0]
    return log


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
    return max(0.0, *(float(np.maximum(v - _neighbours(v, Q, 1)[0], 0.0).max())
                      for v in (U, Xi)))


def _state_space_osc(U, n, p_float) -> float:
    y = np.arange(U.size) // n
    e = (U - p_float * y).reshape(-1, n)
    return float((e.max(axis=0) - e.min(axis=0)).max())


def monitor_invariants(obj, ledger: Optional[ConstantsLedger] = None) -> InvariantReport:
    """Evaluate the discrete invariants on a chain or on a log's snapshots.

    Ordering is checked at every state; the u-Xi gap and space oscillation
    only after the relaxation transient (5/alpha0 past the first monitored
    time), matching how the a-priori bounds are stated for data
    started on the exact traveling line.  A state holding NaN or inf raises
    :class:`NumericalError` naming its tau.
    """
    if isinstance(obj, TwistedChain):
        chain, t0, states = obj, obj.tau, []
    else:
        chain, t0, states = obj.final_state, float(obj.sample_times[0]), obj.snapshots
    states = states or [(chain.tau, chain.U, chain.Xi)]
    model, Q, p_float = chain.model, chain.Q, float(chain.p)
    cut = _transient_cut(model, t0)

    ordering = 0.0
    gap = 0.0
    osc = 0.0
    dgrad = 0.0
    for tau, U, Xi in states:
        # max() drops a NaN, so a non-finite state would read as clean
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(Xi))):
            raise NumericalError(f"non-finite state at tau = {tau}", tau=tau)
        ordering = max(ordering, _state_ordering_violation(U, Xi, Q))
        if tau >= cut or len(states) == 1:
            gap = max(gap, float(np.abs(U - Xi).max()))
            osc = max(osc, _state_space_osc(U, model.n, p_float),
                      _state_space_osc(Xi, model.n, p_float))
            fwd = _neighbours(Xi, Q, model.n)[0] - Xi
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
    """Classical RK4 on m0 U'' + U' = F in (U, W = U') variables, on the
    sample grid and substep rule of :func:`run` (sample_dt defaults to dt).

    Xi is reconstructed as U + 2 m0 W = U + W/alpha0.  Every stage reads
    the force on the ring's one :func:`_ring_plan`.  Used to cross-check
    the Euler path; it does not preserve comparison.
    """
    a0 = model.alpha0
    if sample_dt is None:
        sample_dt = dt
    n_sub, dt = _cut(sample_dt, dt)
    S = _n_samples(T, sample_dt)
    U = chain0.U.astype(float)
    W = a0 * (chain0.Xi - chain0.U)
    Q, n, tau0 = chain0.Q, model.n, chain0.tau
    layout = _ring_plan(model, chain0.N, Q)

    def deriv(tau, u, w):
        return w, 2.0 * a0 * (_ring_force(model, tau, u, layout) - w)

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
