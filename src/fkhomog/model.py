"""Force families for damped Frenkel-Kontorova chains with n particle types.

A chain couples particles through per-type forces F_j(tau, V_{-m}, ..., V_m)
acting on windows of 2m+1 neighbour positions, driven by a constant L: the
family is L + F_j.  The classical F_j is

    F_j(tau, V) = theta_{j+1} (V_1 - V_0) - theta_j (V_0 - V_{-1})
                  + A sin(2 pi V_0)

with spring constants theta repeating with period n; a tabulated F_j is a
user callable.  The inertial dynamics
m0 U'' + U' = F is rewritten through the auxiliary variable Xi = U + 2 m0 U'
and the rate alpha0 = 1/(2 m0); the rewritten first-order system is monotone
(order preserving) exactly when the structural assumptions checked by
:func:`check_assumptions` hold, the sharp one being a mass bound on m0.

This module also evaluates the explicit a-priori constants (K1, C1..C4) that
certify rotation-number brackets downstream.  All constants are plain
arithmetic in the model data; :func:`ledger_identity_exact` reruns that
arithmetic in exact rationals.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi


class ModelError(ValueError):
    """Rejected model input (nonpositive mass, bad spring table, ...)."""


@dataclass(frozen=True)
class ClassicalFK:
    """Nearest-neighbour springs plus a sinusoidal onsite force."""

    theta: tuple[float, ...]
    amplitude: float = 1.0


@dataclass(frozen=True)
class TabulatedForce:
    """User-supplied force callable.

    ``fn(j, tau, window)`` returns F_j for a 1-based type index j and a window
    of 2m+1 positions.  With ``batch=True`` it is called instead with an
    integer array j of shape (K,) and a window array of shape (K, 2m+1), and
    returns shape (K,); a 0-d result is broadcast to (K,), and any other
    shape raises ModelError.  Every call gets a fresh C-order window array
    of its own, which the callable may overwrite.  A march hands every
    step the same array j, read-only, so a write to it raises; every other
    call gets a fresh one.  The result is copied (with the drive added)
    before the callable runs again, so it may return an array it keeps.
    A window's off-centre entries never arrive as -0.0 (see ``_plan``).  A
    march calls a batch callable once per Euler step and a per-window one
    once per window of the step.
    """

    fn: Callable
    batch: bool = False


@dataclass(frozen=True)
class ForceModel:
    """The family drive + F_j with the data every estimate depends on.

    lip_V is the Lipschitz constant of every F_j in the window variable
    (sup norm); f0 bounds sup_tau |F_j(tau, 0, ..., 0)| of the undriven
    kind, so :attr:`f_at_zero_sup` bounds that of the driven family.
    """

    n: int
    m: int
    alpha0: float
    kind: ClassicalFK | TabulatedForce
    lip_V: float
    f0: float
    drive: float = 0.0

    def __post_init__(self):
        for name in ("alpha0", "lip_V", "f0", "drive"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value!r}")
        if self.n < 1:
            raise ModelError("type period n must be >= 1")
        if self.m < 0:
            raise ModelError("interaction radius m must be >= 0")
        if not self.alpha0 > 0:
            raise ModelError("alpha0 must be positive")
        if self.lip_V < 0 or self.f0 < 0:
            raise ModelError("lip_V and f_at_zero_sup must be nonnegative")

    @property
    def f_at_zero_sup(self) -> float:
        return self.f0 + abs(self.drive)

    @property
    def m0(self) -> float:
        return 1.0 / (2.0 * self.alpha0)

    @property
    def is_autonomous(self) -> bool:
        """Classical forces never depend on tau; tabulated ones may."""
        return isinstance(self.kind, ClassicalFK)


def build_classical_fk(theta, amplitude: float = 1.0, drive: float = 0.0,
                       m0: float = 0.05) -> ForceModel:
    """Classical FK family with n = len(theta) particle types and m = 1.

    lip_V is the tight sup-norm Lipschitz constant of the affine-plus-sine
    form: per-slot sums theta_j + (theta_j + theta_{j+1} + 2 pi A) + theta_{j+1},
    maximised over j.
    """
    theta = tuple(float(t) for t in theta)
    if not theta or any(t <= 0 for t in theta):
        raise ModelError("spring constants theta must all be positive")
    if not m0 > 0:
        raise ModelError("mass m0 must be positive")
    if amplitude < 0:
        raise ModelError("potential amplitude must be nonnegative")
    n = len(theta)
    pair = [theta[j] + theta[(j + 1) % n] for j in range(n)]
    lip_v = max(2.0 * s + TWO_PI * amplitude for s in pair)
    return ForceModel(
        n=n, m=1, alpha0=1.0 / (2.0 * m0),
        kind=ClassicalFK(theta=theta, amplitude=float(amplitude)),
        lip_V=lip_v, f0=0.0, drive=float(drive),
    )


def build_tabulated(fn, n: int, m: int, m0: float, lip_V: float,
                    f_at_zero_sup: float, batch: bool = False) -> ForceModel:
    """Wrap a user callable fn, called as :class:`TabulatedForce` says: with
    a 1-based type and a window of 2m+1 positions, or with batch=True a
    (K,) type array, fresh except in a march, where it is read-only, and a
    fresh C-order (K, 2m+1) window array; its result is never returned or
    kept as it is.
    lip_V and f_at_zero_sup are taken on trust and cross-checked by sampling
    in :func:`check_assumptions`."""
    if not m0 > 0:
        raise ModelError("mass m0 must be positive")
    return ForceModel(n=n, m=m, alpha0=1.0 / (2.0 * m0),
                      kind=TabulatedForce(fn=fn, batch=batch),
                      lip_V=float(lip_V), f0=float(f_at_zero_sup))


def build_constant_force(value: float, n: int = 1, m: int = 1, m0: float = 0.05) -> ForceModel:
    """F_j identically equal to ``value``; the exactly solvable reference case."""
    v = float(value)

    def fn(j, tau, window):
        return v            # broadcast to every window

    return build_tabulated(fn, n=n, m=m, m0=m0, lip_V=0.0,
                           f_at_zero_sup=abs(v), batch=True)


def with_extra_drive(model: ForceModel, L: float) -> ForceModel:
    """The family (L + F_j)_j: the drive grows by L, the Lipschitz data is
    unchanged."""
    return replace(model, drive=model.drive + float(L))


@lru_cache(maxsize=8)
def _shift_row(m: int) -> np.ndarray:
    """+0.0 off the centre of a window, -0.0 at it."""
    row = np.zeros(2 * m + 1)
    row[m] = -0.0
    row.flags.writeable = False
    return row


def _drive(model: ForceModel) -> float:
    """The drive :func:`_force` adds by default: model.drive, a zero one
    stored as -0.0, whose addition changes no bit."""
    return model.drive or -0.0


def _tabulated_force(kind: TabulatedForce, jj, tau: float, windows) -> np.ndarray:
    """F_j for 1-based types jj (shape (K,)) and windows (shape (K, 2m+1)) at
    one time tau: one call of a batch callable, else one call per window;
    the result shape follows :class:`TabulatedForce`."""
    K = len(windows)
    if kind.batch:
        F = np.asarray(kind.fn(jj, float(tau), windows), dtype=float)
    else:
        F = np.array([kind.fn(int(j), float(tau), w) for j, w in zip(jj, windows)],
                     dtype=float)
    if F.ndim == 0:
        F = np.broadcast_to(F, (K,))
    if F.shape != (K,):
        raise ModelError(f"force callable returned shape {F.shape} for {K} "
                         f"windows; expected ({K},)")
    return F


@lru_cache(maxsize=16)
def _theta_pairs(theta: tuple) -> np.ndarray:
    """(theta_j, theta_{j+1}) of each 0-based type j as the columns of a
    read-only (2, n) array."""
    pairs = np.array([theta, theta[1:] + theta[:1]])
    pairs.flags.writeable = False
    return pairs


def _springs(model: ForceModel, types):
    """The spring constants of a classical model for windows of 0-based
    types (K,): theta_1 as one scalar when n = 1, which multiplies faster
    than an array, else (theta_j, theta_{j+1}) of each window as the
    columns of a (2, K) array."""
    theta = model.kind.theta
    return theta[0] if model.n == 1 else _theta_pairs(theta).take(types, 1)


def _stencil(model: ForceModel, W: np.ndarray, springs, buf=None) -> tuple:
    """The plan of the classical formula in :func:`_force` on window-major
    windows W of shape (2m+1, K) with their spring constants springs
    (:func:`_springs`): the rows (V_0, V_1) ahead and
    (V_{-1}, V_0) behind, springs, D = buf[:2] for springs (ahead -
    behind) and its two rows, the centre row V_0 and s = buf[2] for the
    onsite term; buf of shape (3, K) is fresh by default.  No callable runs
    on it, so W is read in place, and :func:`_force` writes its result into
    buf[1].  A plain tuple: :func:`_force` unpacks it on every step."""
    m = model.m
    if buf is None:
        buf = np.empty((3,) + W.shape[1:])
    D = buf[:2]
    return (W[m:m + 2], W[m - 1:m + 1], springs, D, D[0], D[1], W[m], buf[2])


def _plan(model: ForceModel, W: np.ndarray, types, buf=None) -> tuple:
    """(W, plan) of one :func:`_force` call on windows the caller holds:
    window-major W of shape (2m+1, K) (row k holds V_{k-m} of every window)
    of 0-based types (K,), with buf of shape (3, K) as scratch (fresh by
    default).  Classical: W itself and its :func:`_stencil`.  Tabulated: a
    fresh window-last C-order (K, 2m+1) copy V of W with the window's +0.0
    added off the centre and -0.0 at it (the bytes of adding
    :func:`_shift_row`), so an off-centre -0.0 arrives as +0.0, and the plan
    (jj, out) of fresh 1-based types jj and out = buf[0] (fresh when buf is
    None), which receives drive + F, so the result is never the callable's
    own array.  Tabulated marches build theirs with :func:`_window_plan`."""
    if isinstance(model.kind, ClassicalFK):
        return W, _stencil(model, W, _springs(model, types), buf)
    out = np.empty(types.shape) if buf is None else buf[0]
    # a scalar add is one pass; a broadcast (2m+1,) row would run NumPy's
    # inner loop 2m+1 elements at a time
    V = np.add(W.T, 0.0, order="C")
    np.add(W[model.m], -0.0, out=V[:, model.m])
    return V, (types + 1, out)


def _window_plan(model: ForceModel, idx, shift, types):
    """(idx, shift, plan): the layout in which a tabulated march's steps
    read the windows U[idx] + shift, of window-major idx and shift
    (2m+1, K) and 0-based types (K,), and the plan of :func:`_force` on
    them, built once per layout.  A step takes fresh windows W =
    U.take(idx) and adds shift in place.

    idx and shift come back window-last, C-order (K, 2m+1), and the plan is
    (jj, out) of read-only 1-based types jj, the same for every step, and a
    (K,) buffer out for drive + F, so the result is never the callable's
    own array.  The shift has the window's +0.0 off the centre and -0.0 at
    it (:func:`_shift_row`) added in.  That one add changes the same bits
    as the ring's shift and then the window's: off the seam the sum is
    +0.0 off the centre and -0.0 at it, across the seam it is Q k, never 0
    for Q != 0; for Q = 0 a seam entry is +-0.0 and both forms turn a -0.0
    there into +0.0 and leave every other value as it is.  Classical
    marches step through :func:`fkhomog.chain._affine` instead."""
    jj = types + 1
    jj.flags.writeable = False
    return (np.ascontiguousarray(idx.T),
            np.ascontiguousarray((shift + _shift_row(model.m)[:, None]).T),
            (jj, np.empty(types.shape)))


def _force(model: ForceModel, tau: float, W, plan, drive=None) -> np.ndarray:
    """drive + F_j(tau, V) of shape (K,) on the K windows W in the layout
    of plan, from :func:`_window_plan` in a tabulated march or
    :func:`_plan` for windows the caller holds: the one force evaluation
    every layer uses.  drive, a scalar or (K,), holds each window's total
    drive; it defaults to :func:`_drive` of the model.

    Classical: W is window-major (2m+1, K) and plan its :func:`_stencil`.
    D = theta (V_{0,1} - V_{-1,0}) is taken in one call on two rows at
    once, and F = D[1] - D[0] + A sin(2 pi V_0) + drive is written into the
    plan's buffers, where it lives until the next call on the plan.  This
    formula defines the classical force; classical ring marches apply it
    regrouped with the Euler update (:func:`fkhomog.chain._affine`).

    Tabulated: W is window-last (K, 2m+1), C-order, shifted, and plan is
    (jj, out) of 1-based types jj.  The callable gets W and jj as they are
    and drive + F is written into out.  Its windows are fresh on every
    call, its types are fresh except in a march (the same read-only jj on
    every step), and the result is never the callable's own array."""
    kind = model.kind
    if isinstance(kind, ClassicalFK):
        ahead, behind, theta, D, d_self, F, c, s = plan
        np.subtract(ahead, behind, D)
        np.multiply(theta, D, D)
        np.subtract(F, d_self, F)
        if kind.amplitude != 0.0:
            np.multiply(TWO_PI, c, s)
            np.sin(s, s)
            np.multiply(kind.amplitude, s, s)
            np.add(F, s, F)
        out = F
    else:
        jj, out = plan
        F = _tabulated_force(kind, jj, tau, W)
    return np.add(F, _drive(model) if drive is None else drive, out)


def eval_force(model: ForceModel, j: int, tau: float, window) -> float:
    """F_j(tau, V) for one window of 2m+1 positions; j reduces mod n."""
    w = np.asarray(window, dtype=float)
    if w.shape != (2 * model.m + 1,):
        raise ModelError(f"window must have exactly {2 * model.m + 1} entries, got {w.shape}")
    types = np.array([(int(j) - 1) % model.n])
    return float(_force(model, tau, *_plan(model, w[:, None], types))[0])


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------

#: finite-difference tolerance for sampled (tabulated) assumption checks
SAMPLING_TOL = 1e-8


@dataclass(frozen=True)
class AssumptionCheck:
    holds: bool
    margin: float
    witness: Optional[tuple] = None
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    """Per-assumption verdicts with margins (margin >= 0 iff the assumption
    holds; +inf marks structural guarantees) plus the critical mass, the
    largest m0 for which the first-order system is monotone."""

    a1: AssumptionCheck
    a2: AssumptionCheck
    a3: AssumptionCheck
    a4: AssumptionCheck
    a5: AssumptionCheck
    a6: AssumptionCheck
    critical_mass: float

    @property
    def core_holds(self) -> bool:
        """a1..a5; a6 is only needed for particle-ordering results."""
        return all(getattr(self, k).holds for k in ("a1", "a2", "a3", "a4", "a5"))

    def to_json_dict(self) -> dict:
        def enc(c: AssumptionCheck) -> dict:
            margin = c.margin if math.isfinite(c.margin) else None
            d = {"holds": c.holds, "margin": margin}
            if c.witness is not None:
                d["witness"] = list(c.witness)
            if c.note:
                d["note"] = c.note
            return d

        out = {k: enc(getattr(self, k)) for k in ("a1", "a2", "a3", "a4", "a5", "a6")}
        out["critical_mass"] = self.critical_mass
        out["core_holds"] = self.core_holds
        return out


def _check_classical(model: ForceModel) -> AssumptionReport:
    k = model.kind
    n = model.n
    a0 = model.alpha0
    amp = k.amplitude
    pair_max = max(k.theta[j] + k.theta[(j + 1) % n] for j in range(n))
    th_min = min(k.theta)
    th_max = max(k.theta)

    # sup of -dF/dV0 = theta_j + theta_{j+1} + 2 pi A; monotonicity of
    # 2F + alpha0 V0 needs alpha0 >= 2 pair + 4 pi A
    a3_threshold = 2.0 * pair_max + 2.0 * TWO_PI * amp
    a3_margin = a0 - a3_threshold
    # ordering of distinct types additionally needs alpha0 >= 4 theta_j + 4 pi A
    a6_margin = a0 - (4.0 * th_max + 2.0 * TWO_PI * amp)
    critical_mass = 1.0 / (2.0 * a3_threshold) if a3_threshold > 0 else math.inf

    # the worst onsite derivative sits where cos(2 pi V0) = -1, i.e. V0 = 1/2
    return AssumptionReport(
        a1=AssumptionCheck(True, math.inf, note="affine-plus-sine form, Lipschitz by construction"),
        a2=AssumptionCheck(th_min > 0, th_min),
        a3=AssumptionCheck(a3_margin >= 0, a3_margin,
                           witness=None if a3_margin >= 0 else (0.5,)),
        a4=AssumptionCheck(True, math.inf, note="exact by construction"),
        a5=AssumptionCheck(True, math.inf, note="spring table repeats with period n"),
        a6=AssumptionCheck(a6_margin >= 0, a6_margin,
                           witness=None if a6_margin >= 0 else (0.5,)),
        critical_mass=critical_mass,
    )


def _check_tabulated(model: ForceModel, d: int) -> AssumptionReport:
    """Centered finite differences with step 1/d on [0,1)^{2m+2}; periodicity
    reduces every check to one cell.

    Per type the check walks the (tau, window) mesh one tau value at a time.
    At each it evaluates the d^(2m+1) base windows, their shifts by one
    period in the window and in tau, the type-shifted windows, and, for each
    window slot, every distinct +-h/2 layer of that slot once: the minus
    layer axis[a] - h/2 is the plus layer axis[a-1] + h/2, so a slot costs
    (d + 1)/d meshes for dyadic d instead of 2.  The layers are the sorted
    distinct values of axis +- h/2; where axis[a] - h/2 and axis[a-1] + h/2
    differ by an ulp (d not dyadic) both are kept, so every difference reads
    exactly the points a plus and a minus mesh would.  Each block is folded
    into running worst cases and dropped, so the check holds one tau block
    of d^(2m+1) windows per call, plus what the callable allocates.

    The callable sees its calls in tau-major order: per type and tau the
    base, window-shift, tau-shift and type-shift calls, then one per slot,
    and after the mesh one per a6 sample on each side.  Every call gets
    fresh windows.  The reports are those of a whole-mesh scan: per check
    phase the worst case is the first minimum in (tau, window) order, a NaN
    there, as np.argmin would find it, voids the phase for that type, and
    the phases merge per type in a fixed order, an earlier one winning ties.
    """
    n, m = model.n, model.m
    w = 2 * m + 1
    h = 1.0 / d
    axis = np.arange(d) * h
    layers, inv = np.unique(np.concatenate((axis + h / 2, axis - h / 2)),
                            return_inverse=True)
    plus, minus = inv[:d], inv[d:]   # layer index of axis[a] + h/2, axis[a] - h/2
    # the base windows, (d^(2m+1), 2m+1) in row-major mesh order; every call
    # gets a fresh C-order array made from them, and since no window holds
    # -0.0, no shift row is added (see _plan)
    wins = np.empty((d,) * w + (w,))
    for s in range(w):
        wins[..., s] = axis.reshape([-1 if r == s else 1 for r in range(w)])
    wins = wins.reshape(-1, w)

    def layer_windows(s):
        # slot s's layer mesh: one block of base windows per layer, with
        # slot s overwritten by the layer
        inner = d ** (w - 1 - s)
        V = np.empty((d ** s, len(layers), inner, w))
        V[...] = wins.reshape(d ** s, d, inner, w)[:, :1]
        V[..., s] = layers[:, None]
        return V.reshape(-1, w)

    # the a6 samples: ordered tuples (V_{-m}, ..., V_{m+1}), each at its own tau
    rng = np.random.default_rng(0)
    tup = np.sort(rng.uniform(0.0, 2.0, size=(max(256, 64 * d), w + 1)), axis=1)
    ts = rng.uniform(0.0, 1.0, size=tup.shape[0])

    # per key the smallest value seen and its witness; a4 keeps minus the
    # largest periodicity residual, starting from 0
    worst = dict.fromkeys(("a1", "a2", "a3", "a5", "a6"), (math.inf, None))
    worst["a4"] = (-0.0, None)
    bad = None   # the first non-finite sample, as (j, tau, *window)
    # per type: phases in the order their non-finite witnesses rank (a slot
    # has a plus and a minus side), and (key, phase) in the order the
    # phases' worst cases merge
    nonfinite_order = (["base", "a4w", "a4t", "a5"]
                       + [(s, side) for s in range(w) for side in (0, 1)] + ["a6l", "a6r"])
    merge_order = ([("a4", "a4w"), ("a4", "a4t"), ("a5", "a5")]
                   + [("a3" if s == m else "a2", s) for s in range(w)] + [("a1", "a1")])

    first = {}   # per type: phase -> its first non-finite sample
    track = {}   # per type: phase -> (at, value, tau index, window index) of its worst case

    def note(phase, F, witness):
        if phase not in first and not np.isfinite(F).all():
            first[phase] = witness(int(np.argmin(np.isfinite(F))))

    def on(j, t, V):
        # F_j at tau t on the fresh windows V, in the plan of _plan
        return _force(model, t, V, (np.full(len(V), j), np.empty(len(V))))

    def f(phase, j, t, V, shift=0.0):
        # on() of base windows V; the phase notes its first non-finite
        # sample, at base window i + shift (no -0.0 in wins, so a shift of
        # 0.0 changes no bit)
        F = on(j, t, V)
        note(phase, F, lambda i: (j, float(t), *(wins[i] + shift)))
        return F

    def f6(phase, j, tuples):
        # one call per a6 sample, each at its own tau, on a (2m+1, 1) column
        types = np.full(1, j - 1)
        F = np.concatenate([_force(model, t, *_plan(model, v[:, None], types))
                            for t, v in zip(ts, tuples)])
        note(phase, F, lambda i: (j, float(ts[i]), *tuples[i]))
        return F

    def keep(phase, vals, k, at=None):
        # the first index of the phase's minimum of at (default vals) over the
        # tau blocks so far, strict <; the first NaN wins and stays
        at = vals if at is None else at
        i = int(np.argmin(at))
        old = track.get(phase)
        if old is None or at[i] < old[0] or (np.isnan(at[i]) and not np.isnan(old[0])):
            track[phase] = (at[i], vals[i], k, i)

    def slot_derivative(j, t, s):
        # (F_j(+h/2) - F_j(-h/2)) / h in slot s on the tau block t, in mesh
        # order.  A non-finite witness follows the order of a plus mesh over
        # all tau values scanned before a minus mesh.
        inner = d ** (w - 1 - s)
        F = on(j, t, layer_windows(s)).reshape(-1, len(layers), inner)
        sides = F[:, plus], F[:, minus]
        finite = np.isfinite(F).all()
        for side, rows in enumerate(() if finite else (plus, minus)):
            def witness(i):
                p, a, q = np.unravel_index(i, sides[side].shape)
                win = wins[p * d * inner + q].copy()
                win[s] = layers[rows[a]]
                return (j, float(t), *win)
            note((s, side), sides[side], witness)
        dF = np.subtract(*sides).reshape(-1)
        dF /= h
        return dF

    sup_neg_d0 = 0.0
    for j in range(1, n + 1):
        first.clear()
        track.clear()
        top = -np.inf   # the largest -dF of slot m, NaN once one is NaN
        for k, t in enumerate(axis):
            base = f("base", j, t, wins.copy())

            # periodicity in the window and in tau
            keep("a4w", -np.abs(f("a4w", j, t, wins + 1.0, 1.0) - base), k)
            keep("a4t", -np.abs(f("a4t", j, t + 1.0, wins.copy()) - base), k)

            # type periodicity; the sample is the largest residual, since tol
            # - res can round distinct residuals to one margin
            res = np.abs(f("a5", j + n, t, wins.copy()) - base)
            keep("a5", SAMPLING_TOL - res, k, at=-res)

            grad_abs_sum = np.zeros(len(wins))
            for s in range(w):
                dF = slot_derivative(j, t, s)
                grad_abs_sum += np.abs(dF)
                if s == m:
                    keep(s, model.alpha0 + 2.0 * dF, k)
                    top = np.maximum(top, np.max(-dF))
                else:
                    keep(s, dF, k)
            keep("a1", model.lip_V + SAMPLING_TOL - grad_abs_sum, k)

        for key, phase in merge_order:
            if phase in track:
                _, val, k, i = track[phase]
                if val < worst[key][0]:
                    worst[key] = (float(val), (j, float(axis[k]), *wins[i]))
        sup_neg_d0 = max(sup_neg_d0, float(top))

        lhs = 2.0 * f6("a6l", j + 1, tup[:, 1:]) + model.alpha0 * tup[:, m + 1]
        rhs = 2.0 * f6("a6r", j, tup[:, :-1]) + model.alpha0 * tup[:, m]
        gap = lhs - rhs
        i = int(np.argmin(gap))
        if gap[i] < worst["a6"][0]:
            worst["a6"] = (float(gap[i]), (j, float(ts[i]), *tup[i]))
        if bad is None:
            bad = next((first[p] for p in nonfinite_order if p in first), None)

    neg_res, a4_wit = worst["a4"]
    worst["a4"] = (SAMPLING_TOL + neg_res, a4_wit)  # tol minus the largest residual

    def chk(key, floor=-SAMPLING_TOL):
        mval, wit = worst[key]
        return AssumptionCheck(mval >= floor, mval, wit if mval < floor else None)

    # a non-finite value loses every comparison above, so it fails a4 here
    a4 = chk("a4", floor=0.0) if bad is None else AssumptionCheck(
        False, -math.inf, bad, note="non-finite force value at the witness")
    critical = 1.0 / (4.0 * sup_neg_d0) if sup_neg_d0 > 0 else math.inf
    return AssumptionReport(a1=chk("a1"), a2=chk("a2"), a3=chk("a3"), a4=a4,
                            a5=chk("a5"), a6=chk("a6"), critical_mass=critical)


def check_assumptions(model: ForceModel, sample_density: int = 8) -> AssumptionReport:
    """Verify the structural assumptions.

    Classical models use closed forms; tabulated ones are sampled with
    centered differences on a periodic cell of mesh 1/sample_density, an
    integer >= 2 for either kind.  critical_mass = 1/(2 alpha0_min)
    where alpha0_min is the smallest rate satisfying the V0-monotonicity
    bound on the (sampled or closed-form) derivative range.
    """
    try:
        d = operator.index(sample_density)
    except TypeError:
        raise ModelError(f"sample_density must be an integer, got "
                         f"{sample_density!r}") from None
    if d < 2:
        raise ModelError("sample_density must be >= 2")
    if isinstance(model.kind, ClassicalFK):
        return _check_classical(model)
    return _check_tabulated(model, d)


def require_monotone(model: ForceModel) -> AssumptionReport:
    """check_assumptions, raising ModelError if any of (A1)-(A5) fails.

    The one check policy: a constant drive L leaves (A1)-(A5) unchanged, so
    ``sweep``, ``rotation_number``, ``rescale_micro`` and ``convergence_study``
    check the base model once per call, never ``with_extra_drive(model, L)``.
    """
    report = check_assumptions(model)
    if not report.core_holds:
        failing = [k for k in ("a1", "a2", "a3", "a4", "a5")
                   if not getattr(report, k).holds]
        raise ModelError(
            f"model fails monotonicity assumptions {failing}; "
            f"critical mass m0^c = {report.critical_mass:.6g}, model m0 = {model.m0:.6g}")
    return report


# ---------------------------------------------------------------------------
# Constants ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsLedger:
    """Explicit a-priori constants evaluated at slope p.

    C2/T is the certified half-width of the rotation bracket; C3 bounds the
    distance of the orbit to the traveling line p y + lambda tau; C4 bounds
    |lambda| itself.  The chain C1 -> C2 -> C3 collapses to the closed form
    C3 = 13 + 6 C4/alpha0 + 7 p + 2 K1, reproduced by :meth:`c3_closed_form`.
    """

    p: float
    K0: float
    M0: float
    C0: float
    Gbar: float
    K1: float
    C1: float
    C2: float
    C3: float
    C4: float
    alpha0: float
    delta: float = 0.0
    a0: float = 0.0

    def c3_closed_form(self) -> float:
        return 13.0 + 6.0 * self.C4 / self.alpha0 + 7.0 * self.p + 2.0 * self.K1


def _require_delta(delta) -> None:
    """The one check of the delta transport weight, shared by the ledger,
    :func:`fkhomog.chain.cfl_dt` and the Euler weights: delta >= 0."""
    if delta < 0:
        raise ModelError("delta must be nonnegative")


def _ledger_arith(alpha0, lip_v, f0, n, m, p, K0, M0, delta, a0, one):
    """Shared ledger arithmetic; ``one`` is 1 in the working number type,
    which is also the window oscillation constant C0."""
    C0 = one
    _require_delta(delta)
    if delta == 0:
        a0 = 0 * one
    L_F = lip_v
    L0 = 2 * L_F + alpha0
    if delta > 0:
        L0 = max(L0, delta * (abs(a0) + C0))
    L1 = delta
    L2 = L1 * K0
    Gbar = 2 * f0 + delta * abs(a0) * K0
    K1 = max(L2 * C0 + L0 * (2 * one + K0 * m / n + M0) + Gbar, alpha0 * M0)
    C4 = max(alpha0 * M0,
             L_F * (2 * one + p * (m + n)) + f0 + (p / 2 + L_F) * (a0 + C0))
    C1 = C4 / alpha0 + 3 * one + 2 * p
    C2 = 6 * one + 4 * C4 / alpha0 + 3 * p + 2 * C1 + 2 * K1
    C3 = C2 + one
    closed = 13 * one + 6 * C4 / alpha0 + 7 * p + 2 * K1
    return Gbar, K1, C1, C2, C3, C4, closed, a0


def constants_ledger(model: ForceModel, p: float, K0: Optional[float] = None,
                     M0: float = 0.0, delta: float = 0.0,
                     a0: float = 0.0) -> ConstantsLedger:
    """Evaluate the full ledger at slope p.

    For delta = 0 the transport coefficients vanish (L1 = L2 = 0, a0 forced
    to 0); the window oscillation constant C0 is 1.
    """
    if not p > 0:
        raise ModelError("slope p must be positive")
    k0_min = max(p, 1.0 / p)
    if K0 is None:
        K0 = k0_min
    if K0 < k0_min * (1 - 1e-12):
        raise ModelError(f"K0 must be >= max(p, 1/p) = {k0_min}")
    Gbar, K1, C1, C2, C3, C4, closed, a0_eff = _ledger_arith(
        model.alpha0, model.lip_V, model.f_at_zero_sup, model.n, model.m,
        float(p), float(K0), float(M0), float(delta), float(a0), 1.0)
    ledger = ConstantsLedger(p=float(p), K0=float(K0), M0=float(M0), C0=1.0,
                             Gbar=Gbar, K1=K1, C1=C1, C2=C2, C3=C3, C4=C4,
                             alpha0=model.alpha0, delta=float(delta), a0=a0_eff)
    assert abs(ledger.c3_closed_form() - C3) <= 1e-12 * max(1.0, abs(C3))
    return ledger


def ledger_identity_exact(model: ForceModel, p, K0=None, M0=0, delta=0, a0=0) -> bool:
    """Recompute the ledger in exact rationals and compare C2 + 1 with the
    closed form for C3 bit for bit."""
    p = Fraction(p)
    if K0 is None:
        K0 = max(p, 1 / p)
    alpha0, lip_v, f0 = (Fraction(x) for x in
                         (model.alpha0, model.lip_V, model.f_at_zero_sup))
    _, _, _, C2, C3, _, closed, _ = _ledger_arith(
        alpha0, lip_v, f0, Fraction(model.n), Fraction(model.m),
        p, Fraction(K0), Fraction(M0), Fraction(delta), Fraction(a0), Fraction(1))
    return C3 == closed and C3 == C2 + 1


# ---------------------------------------------------------------------------
# JSON config interface
# ---------------------------------------------------------------------------

def model_from_config(cfg: dict) -> ForceModel:
    """Build a model from the ``model`` block {n, m, m0 | alpha0, force:
    {...}} of a config; errors name its keys as ``config.model.*``.

    Only the classical family and the constant force are expressible in JSON;
    general tabulated forces must be constructed in code.  force.drive drives
    either kind.
    """
    force = cfg.get("force")
    if not isinstance(force, dict) or "kind" not in force:
        raise ModelError("config.model.force.kind is required")
    if "m0" in cfg:
        m0 = float(cfg["m0"])
    elif "alpha0" in cfg:
        a0 = float(cfg["alpha0"])
        if not a0 > 0:
            raise ModelError("config.model.alpha0 must be positive")
        m0 = 1.0 / (2.0 * a0)
    else:
        raise ModelError("config.model must give m0 or alpha0")
    kind = force["kind"]
    if kind == "classical_fk":
        if "theta" not in force:
            raise ModelError("config.model.force.theta: required for classical_fk")
        model = build_classical_fk(theta=force["theta"],
                                   amplitude=force.get("amplitude", 1.0), m0=m0)
    elif kind == "constant":
        model = build_constant_force(force.get("value", 0.0),
                                     n=int(cfg.get("n", 1)),
                                     m=int(cfg.get("m", 1)), m0=m0)
    else:
        raise ModelError(f"config.model.force.kind: unknown kind {kind!r}")
    model = with_extra_drive(model, force.get("drive", 0.0))
    if "n" in cfg and int(cfg["n"]) != model.n:
        raise ModelError(f"config.model.n = {cfg['n']} does not match force data "
                         f"(n = {model.n})")
    if "m" in cfg and int(cfg["m"]) != model.m:
        raise ModelError(f"config.model.m = {cfg['m']} does not match force kind "
                         f"(m = {model.m})")
    return model


def model_to_config(model: ForceModel) -> dict:
    if not isinstance(model.kind, ClassicalFK):
        raise ModelError("only classical models serialize to JSON configs")
    k = model.kind
    return {"n": model.n, "m": model.m, "m0": model.m0,
            "force": {"kind": "classical_fk", "theta": list(k.theta),
                      "amplitude": k.amplitude, "drive": model.drive}}


def report_to_json(report: AssumptionReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
