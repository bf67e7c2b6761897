"""Macroscopic limit: the homogenized Hamilton-Jacobi equation and the
hyperbolic rescaling harness.

The rescaled particle field u_eps(t, x) = eps * U_{floor(x/eps)}(t/eps)
converges, as eps -> 0, to the viscosity solution of u_t = H(u_x) where H is
the tabulated effective Hamiltonian.  The PDE is solved with a monotone
Lax-Friedrichs scheme (artificial viscosity from the table's chord-Lipschitz
estimate; H needs no convexity and may be flat on pinning plateaus), and the
microscopic side runs on a finite window padded by the exact domain of
dependence, so truncation certifiably never pollutes the observation window.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import (ClassicalFK, ForceModel, with_extra_drive, require_monotone,
                    _force, _plan, _springs, _stencil)
from .chain import (NumericalError, cfl_dt, _cut, _euler_coeff, _euler_update,
                    _euler_views)


class MacroError(ValueError):
    pass


#: record times of the eps study, evenly spaced on [T/2, T]
COMPACT_TIMES = 5

#: the most particles a rescaled run may march, pad included
MAX_PARTICLES = 5_000_000


# ---------------------------------------------------------------------------
# Initial profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Piecewise-linear profile on a window, extended affinely with its edge
    slopes outside it."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 1 or self.x.size < 2 or self.x.shape != self.u.shape:
            raise MacroError("profile needs matching 1-d x and u with >= 2 samples")
        bad = np.flatnonzero(~(np.isfinite(self.x) & np.isfinite(self.u)))
        if bad.size:
            row = f"{float(self.x[bad[0]])!r},{float(self.u[bad[0]])!r}"
            raise MacroError(f"profile sample {row!r} is not finite")
        if not np.all(np.diff(self.x) > 0):
            raise MacroError("profile x grid must be strictly increasing")

    @property
    def edge_slopes(self) -> tuple[float, float]:
        s_lo = (self.u[1] - self.u[0]) / (self.x[1] - self.x[0])
        s_hi = (self.u[-1] - self.u[-2]) / (self.x[-1] - self.x[-2])
        return float(s_lo), float(s_hi)

    def value(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        s_lo, s_hi = self.edge_slopes
        out = np.interp(xq, self.x, self.u)
        lo = xq < self.x[0]
        hi = xq > self.x[-1]
        out = np.where(lo, self.u[0] + s_lo * (xq - self.x[0]), out)
        out = np.where(hi, self.u[-1] + s_hi * (xq - self.x[-1]), out)
        return out

    def slopes(self) -> np.ndarray:
        return np.diff(self.u) / np.diff(self.x)

    def slope_frame(self) -> float:
        """The tightest K0 >= 1 with 1/K0 <= every chord slope <= K0; a
        profile with a nonpositive chord has none (MacroError)."""
        s = self.slopes()
        lo = float(s.min())
        if not lo > 0:
            raise MacroError(f"profile has a nonpositive chord slope {lo:.6g}; "
                             "it admits no slope frame K0")
        return max(float(s.max()), 1.0 / lo, 1.0)

    @classmethod
    def linear(cls, p: float, x_lo: float, x_hi: float, n: int = 2) -> "Profile":
        x = np.linspace(x_lo, x_hi, max(2, n))
        return cls(x=x, u=p * x)

    @classmethod
    def from_callable(cls, fn, x_lo: float, x_hi: float, n: int = 257) -> "Profile":
        x = np.linspace(x_lo, x_hi, n)
        return cls(x=x, u=np.array([fn(v) for v in x], dtype=float))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,u0\n")
        for xv, uv in zip(self.x, self.u):
            buf.write(f"{float(xv)!r},{float(uv)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Profile":
        """Rows x,u after a header line; any other row is a MacroError."""
        x, u = [], []
        for ln in filter(None, text.strip().splitlines()[1:]):
            try:
                xv, uv = map(float, ln.split(","))
            except ValueError:
                raise MacroError(f"row {ln!r} is not two numbers x,u") from None
            x.append(xv)
            u.append(uv)
        return cls(x=np.array(x), u=np.array(u))


@dataclass(frozen=True)
class A0Report:
    ok: bool
    min_slope: float
    max_slope: float
    witness: Optional[tuple] = None
    gap: float = 0.0
    gap_ok: bool = True


def check_A0(u0: Profile, K0: float, xi0: Optional[Profile] = None,
             M0: float = 0.0, eps: float = 1.0) -> A0Report:
    """Verify the slope frame 1/K0 <= chords <= K0 and, when xi0 is given,
    the initial gap |u0 - xi0| <= M0 eps."""
    if K0 < 1.0:
        raise MacroError("K0 must be >= 1")
    s = u0.slopes()
    lo, hi = float(s.min()), float(s.max())
    ok = lo >= 1.0 / K0 - 1e-12 and hi <= K0 + 1e-12
    witness = None
    if not ok:
        bad = np.flatnonzero((s < 1.0 / K0 - 1e-12) | (s > K0 + 1e-12))[0]
        witness = (float(u0.x[bad]), float(u0.x[bad + 1]), float(s[bad]))
    gap, gap_ok = 0.0, True
    if xi0 is not None:
        gap = float(np.abs(u0.value(xi0.x) - xi0.u).max())
        gap_ok = gap <= M0 * eps + 1e-12
    return A0Report(ok=ok and gap_ok, min_slope=lo, max_slope=hi,
                    witness=witness, gap=gap, gap_ok=gap_ok)


# ---------------------------------------------------------------------------
# Effective Hamiltonian interpolant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianInterp:
    """Piecewise-linear p -> H(p) with its chord-Lipschitz estimate; constant
    extension outside the table range (extrapolation is flagged by covers)."""

    p_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.p_nodes.ndim != 1 or self.p_nodes.size == 0 \
                or self.p_nodes.shape != self.values.shape:
            raise MacroError("HamiltonianInterp needs matching nonempty nodes/values")
        if not (np.all(np.isfinite(self.p_nodes)) and np.all(np.isfinite(self.values))):
            raise MacroError("HamiltonianInterp nodes and values must be finite")
        if self.p_nodes.size > 1 and not np.all(np.diff(self.p_nodes) > 0):
            raise MacroError("p nodes must be strictly increasing")

    @property
    def lip_est(self) -> float:
        if self.p_nodes.size < 2:
            return 0.0
        return float(np.abs(np.diff(self.values) / np.diff(self.p_nodes)).max())

    def __call__(self, q):
        return np.interp(q, self.p_nodes, self.values)

    def covers(self, q_lo: float, q_hi: float) -> bool:
        if self.p_nodes.size == 1:
            return False
        return self.p_nodes[0] <= q_lo and q_hi <= self.p_nodes[-1]

    @classmethod
    def from_points(cls, p_nodes, values) -> "HamiltonianInterp":
        return cls(p_nodes=np.asarray(p_nodes, dtype=float),
                   values=np.asarray(values, dtype=float))

    @classmethod
    def from_table(cls, table, L: float) -> "HamiltonianInterp":
        i = int(np.argmin(np.abs(table.L_grid - L)))
        if abs(table.L_grid[i] - L) > 1e-12:
            raise MacroError(f"table has no L = {L} slice")
        return cls.from_points([float(p) for p in table.p_grid], table.lam[i])

    def scaled(self, factor: float) -> "HamiltonianInterp":
        """q -> H(factor q), used to express the table slope (per type period)
        in units of the rescaled-field gradient (per particle)."""
        return HamiltonianInterp(p_nodes=self.p_nodes / factor,
                                 values=self.values.copy())


# ---------------------------------------------------------------------------
# Monotone Lax-Friedrichs solver for u_t = H(u_x)
# ---------------------------------------------------------------------------

def _march_plan(times, T: float, dt_max: float, unit: float = 1.0) -> list:
    """Check the times against [0, T] and plan a march from 0 that lands on
    each, sorted and deduplicated: (t, n_sub, dt, start) takes the n_sub steps
    of dt <= dt_max of ``chain._cut`` on the clock time / unit, from the clock
    value start (the sum of the earlier segments) to t / unit.  Times <= 0
    take no step."""
    want = sorted(set(float(t) for t in times))
    if want and (want[0] < -1e-12 or want[-1] > T + 1e-9):
        raise MacroError(f"record times must lie in [0, {T}]")
    plan = []
    at = start = 0.0
    for t in want:
        seg = t / unit - at
        if seg <= 0:
            plan.append((t, 0, 0.0, start))
            continue
        n_sub, dt = _cut(seg, dt_max)
        plan.append((t, n_sub, dt, start))
        at = t / unit
        start += seg
    return plan


@dataclass(frozen=True)
class Field:
    """u sampled on a (t, x) grid: values[s, i] = u(t_grid[s], x_grid[i])."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray             # (nt, nx)
    meta: dict = field(default_factory=dict)

    def at(self, t: float) -> np.ndarray:
        """The row recorded at time t (to 1e-9); MacroError if there is none."""
        hit = np.flatnonzero(np.abs(self.t_grid - t) <= 1e-9)
        if not hit.size:
            raise MacroError(f"time {t} was not recorded")
        return self.values[hit[0]]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,x,u\n")
        for t, row in zip(self.t_grid, self.values):
            for xv, uv in zip(self.x_grid, row):
                buf.write(f"{float(t)!r},{float(xv)!r},{float(uv)!r}\n")
        return buf.getvalue()


def solve_hj(H: HamiltonianInterp, u0: Profile, T: float, dx: float, *,
             record_times: Optional[Sequence[float]] = None) -> Field:
    """March u_t = H(u_x) to T with the monotone Lax-Friedrichs scheme and
    record the rows at record_times (default [T]).

    u_k <- u_k + dt [ H((u_{k+1} - u_{k-1}) / 2 dx)
                      + nu (u_{k+1} - 2 u_k + u_{k-1}) / dx ],  nu = lip_est / 2,

    under the CFL bound dt <= dx / (2 lip_est).  Ghost nodes extend the
    current edges affinely with the edge slopes of u0.  meta holds the slope
    frame K0 of u0 and the range of grid slopes seen over the march.
    """
    if T < 0 or dx <= 0:
        raise MacroError("need T >= 0 and dx > 0")
    span = float(u0.x[-1] - u0.x[0])
    nx = int(math.floor(span / dx + 1e-9)) + 1
    x = u0.x[0] + dx * np.arange(nx)
    s_lo, s_hi = u0.edge_slopes
    K0 = u0.slope_frame()

    lip = H.lip_est
    if not H.covers(1.0 / K0, K0):
        warnings.warn("Hamiltonian table does not cover the slope range "
                      f"[{1 / K0:.3g}, {K0:.3g}]; constant extrapolation in use",
                      stacklevel=2)
    nu = 0.5 * lip
    dt_max = dx / (2.0 * lip) if lip > 0 else dx

    want = set(float(t) for t in (record_times if record_times is not None else [T]))
    plan = _march_plan(list(want) + [T], T, dt_max)

    # w[1:-1] is the solution, w[0] and w[-1] its ghost nodes
    w = np.empty(nx + 2)
    w[1:-1] = u0.value(x)
    u, um, up = w[1:-1], w[:-2], w[2:]
    smin, smax = math.inf, -math.inf

    def note_slopes():
        nonlocal smin, smax
        if nx > 1:
            d = np.diff(u) / dx
            smin = min(smin, float(d.min()))
            smax = max(smax, float(d.max()))

    note_slopes()
    rows = []
    for target, n_sub, dt, _ in plan:
        for _ in range(n_sub):
            w[0] = w[1] - dx * s_lo
            w[-1] = w[-2] + dx * s_hi
            grad = (up - um) / (2.0 * dx)
            u[:] = u + dt * (H(grad) + nu * (up - 2.0 * u + um) / dx)
            note_slopes()
        if target in want:
            rows.append(u.copy())
    return Field(t_grid=np.array(sorted(want)), x_grid=x,
                 values=np.reshape(rows, (len(rows), nx)),
                 meta={"K0": K0, "slope_range_seen": (smin, smax)})


# ---------------------------------------------------------------------------
# Hyperbolic rescaling of the microscopic chain
# ---------------------------------------------------------------------------

def rescale_micro(model: ForceModel, L: float, eps: float, u0: Profile,
                  T: float, window: tuple[float, float], **kw) -> Field:
    """Simulate U_i(0) = u0(i eps)/eps on a padded window and return
    u_eps(t, x) = eps U_{floor(x/eps)}(t/eps) on the requested times, one
    column per particle of the window at its cell edge x = eps i.

    An Euler step moves U by its own (U, Xi) and Xi by the U of m
    neighbours per side, so influence travels m indices per two steps: a
    step with k steps after it advances only the particles within
    m floor(k / 2) of the window, a slice that reads m neighbours beyond
    itself and shrinks by m per side every second step; the pad of
    m ceil(n_steps / 2) particles per side holds it.  Particles outside the
    slice keep stale values that never reach the window, so values on the
    window are exactly those of the infinite chain.
    meta records the particles actually stepped, summed over steps, as
    particle_steps.  Euler steps are at most cfl_dt(model + L, 0.5), cut by
    ``_march_plan`` to land on each time of t_record (default [T]).  Each
    step writes the active slice in place, through the one Euler update.  The
    window must hold >= 100 particles and the padded array at most
    MAX_PARTICLES; the keyword options (xi0, M0, K0, t_record) are those of
    :func:`_plan_micro`.
    """
    require_monotone(model)
    return _rescale_micro(_plan_micro(model, L, eps, u0, T,
                                      _window_cells(eps, window), **kw))


def _window_cells(eps: float, window: tuple[float, float]) -> tuple[int, int]:
    """(i_lo, i_hi): the window's particles, at their cell edges x = eps i,
    are i = floor(x_lo / eps) .. floor(x_hi / eps).  MacroError unless eps > 0
    and the window has positive width and holds >= 100 particles."""
    if eps <= 0:
        raise MacroError("eps must be positive")
    x_lo, x_hi = float(window[0]), float(window[1])
    if not x_hi > x_lo:
        raise MacroError("window must have positive width")
    i_lo = math.floor(x_lo / eps)
    i_hi = math.floor(x_hi / eps)
    n_obs = i_hi - i_lo + 1
    if n_obs < 100:
        raise MacroError(f"window holds only {n_obs} particles at eps = {eps}; "
                         "need >= 100")
    return i_lo, i_hi


@dataclass(frozen=True)
class _MicroRun:
    """A rescaled run planned by :func:`_plan_micro`: the driven model
    model + L observed on the particles i_lo..i_hi, marched on the plan of
    :func:`_march_plan` (clock t / eps, steps <= dt)."""

    model: ForceModel
    L: float
    eps: float
    u0: Profile
    xi0: Optional[Profile]
    K0: float
    i_lo: int
    i_hi: int
    dt: float
    plan: list

    @property
    def n_steps(self) -> int:
        return sum(n_sub for _, n_sub, _, _ in self.plan)

    @property
    def pad(self) -> int:
        """The light-cone pad m ceil(n_steps / 2) per side, widened so that
        the array starts on a type boundary: array position k then holds a
        particle of type k mod n."""
        pad = self.model.m * ((self.n_steps + 1) // 2)
        return pad + (self.i_lo - pad) % self.model.n

    @property
    def N_total(self) -> int:
        return self.i_hi - self.i_lo + 1 + 2 * self.pad


def _plan_micro(model: ForceModel, L: float, eps: float, u0: Profile, T: float,
                cells: tuple[int, int], *, xi0: Optional[Profile] = None,
                M0: float = 0.0, K0: Optional[float] = None,
                t_record: Optional[Sequence[float]] = None) -> _MicroRun:
    """Plan, with no march, the rescaled run observed on the lattice
    particles cells = (i_lo, i_hi): check u0 (and xi0, within M0 eps)
    against the slope frame K0 (default that of u0), plan the march to the
    times of t_record (default [T]) and refuse a padded array of more than
    MAX_PARTICLES."""
    if K0 is None:
        K0 = u0.slope_frame()
    rep = check_A0(u0, K0, xi0=xi0, M0=M0, eps=eps)
    if not rep.ok:
        raise MacroError(f"initial profile violates the slope frame: {rep}")
    model2 = with_extra_drive(model, L)
    dt_max = cfl_dt(model2, 0.5, check=False)
    plan = _march_plan(t_record if t_record is not None else [T], T, dt_max, eps)
    run = _MicroRun(model2, L, eps, u0, xi0, K0, *cells, dt_max, plan)
    if run.N_total > MAX_PARTICLES:
        raise MacroError(
            f"domain-of-dependence pad needs {run.N_total} particles "
            f"(> {MAX_PARTICLES}) at eps = {eps}; increase eps or shrink T")
    return run


def _rescale_micro(run: _MicroRun) -> Field:
    """March a planned run and record eps U on its particles at each time of
    its plan: the body of :func:`rescale_micro`, checks done.  The state is
    one stacked (U, Xi) array; each Euler step evaluates the window-major
    windows of the active slice in one :func:`fkhomog.model._force` call on
    the slice's :func:`fkhomog.model._plan` and writes that slice of the
    state in place through :func:`fkhomog.chain._euler_update`.  The
    windows are views of U and the force and update scratch are sized once
    for all of W, as are the spring constants of a classical model; each
    slice takes its part of them, and its update views and a classical
    plan (which reads U in place) serve both of its steps.  A tabulated
    plan copies its windows, so every step builds one."""
    model2, eps, pad, plan = run.model, run.eps, run.pad, run.plan
    m = model2.m
    n_obs = run.i_hi - run.i_lo + 1

    idx = np.arange(run.i_lo - pad, run.i_hi + pad + 1)
    state = np.empty((2, idx.size))
    U, Xi = state
    U[:] = run.u0.value(idx * eps) / eps
    Xi[:] = U if run.xi0 is None else run.xi0.value(idx * eps) / eps

    # column k of the window-major view W is the window centred on U[k + m],
    # so the force on U[lo:hi] reads W[:, lo - m:hi - m]; U is only ever
    # written in place, so W stays current
    W = sliding_window_view(U, run.N_total - 2 * m)
    types = np.arange(run.N_total) % model2.n
    copies = not isinstance(model2.kind, ClassicalFK)
    springs = None if copies else _springs(model2, types)

    obs = slice(pad, pad + n_obs)
    left = run.n_steps
    work, buf = np.empty((2, 2, W.shape[1])), np.empty((3, W.shape[1]))
    span = None
    particle_steps = 0
    vals = []
    for w, n_sub, dt, start in plan:
        c, beta = _euler_coeff(model2, dt)
        for k in range(n_sub):
            left -= 1
            reach = m * (left // 2)
            lo, hi = pad - reach, pad + n_obs + reach
            if (lo, hi) != span:
                span = lo, hi
                views = _euler_views(state[:, lo:hi], work[..., :hi - lo])
                Wk, bk = W[:, lo - m:hi - m], buf[:, :hi - lo]
                if not copies:
                    fplan = Wk, _stencil(model2, Wk, springs if model2.n == 1
                                         else springs[:, lo:hi], bk)
            if copies:
                fplan = _plan(model2, Wk, types[lo:hi], bk)
            _euler_update(views, _force(model2, start + k * dt, *fplan),
                          c, beta, dt)
            particle_steps += hi - lo
        if not np.all(np.isfinite(U[obs])):
            raise NumericalError(f"microscopic state blew up before t = {w}",
                                 tau=w / eps)
        vals.append(eps * U[obs])

    return Field(t_grid=np.array([t for t, *_ in plan]),
                 x_grid=eps * (run.i_lo + np.arange(n_obs)),
                 values=np.reshape(vals, (len(vals), n_obs)),
                 meta={"pad": pad, "n_steps": run.n_steps, "dt": run.dt,
                       "N_total": run.N_total, "K0": run.K0, "L": run.L,
                       "eps": eps, "particle_steps": particle_steps})


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


# ---------------------------------------------------------------------------
# eps-convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    eps_list: tuple
    errors: tuple
    rates: tuple
    compact_t: tuple
    compact_x: tuple
    scheme_floor: float

    def to_json_dict(self) -> dict:
        return {"eps": list(self.eps_list), "error": list(self.errors),
                "rate": list(self.rates),
                "compact_t": list(self.compact_t),
                "compact_x": list(self.compact_x),
                "scheme_floor": self.scheme_floor}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def convergence_study(model: ForceModel, L: float, u0: Profile,
                      eps_list: Sequence[float], T: float,
                      window: tuple[float, float], H: HamiltonianInterp, *,
                      xi0: Optional[Profile] = None,
                      M0: float = 0.0) -> ConvergenceReport:
    """Sup-norm distance between the rescaled chain and the homogenized
    solution on the compact set t in [T/2, T] x central half of the window,
    per eps, at matched resolution dx = eps and COMPACT_TIMES evenly spaced
    times; the chain marches on the clock of :func:`rescale_micro`.  Both
    fields record the rows of one march plan, so row s of one is row s of
    the other.

    Every level is planned before the first is marched, so a window of fewer
    than 100 particles, a profile outside its slope frame or a pad past
    MAX_PARTICLES fails at once.  The chain is observed on the compact set
    alone, the window's particles eps i in [cx_lo, cx_hi], and marched on
    their light cone only: values there do not depend on the rest of the
    window, so the errors are those of marching the whole window.

    The table slope counts lattice cells (one per n particles) while the
    rescaled field's gradient counts particles, so the interpolant is
    composed with the type period before entering the scheme.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise MacroError("eps_list must be strictly decreasing")
    require_monotone(model)
    t_samples = np.linspace(T / 2.0, T, COMPACT_TIMES)
    x_lo, x_hi = float(window[0]), float(window[1])
    quarter = 0.25 * (x_hi - x_lo)
    cx_lo, cx_hi = x_lo + quarter, x_hi - quarter

    runs = []
    for eps in eps_list:
        i_lo, i_hi = _window_cells(eps, window)
        xs = eps * np.arange(i_lo, i_hi + 1)
        hit = np.flatnonzero((xs >= cx_lo) & (xs <= cx_hi))
        runs.append(_plan_micro(model, L, eps, u0, T,
                                (i_lo + int(hit[0]), i_lo + int(hit[-1])),
                                xi0=xi0, M0=M0, t_record=t_samples))

    H_eff = H.scaled(model.n)

    errors = []
    floor_err = math.inf
    for eps, run in zip(eps_list, runs):
        micro = _rescale_micro(run)
        macro = solve_hj(H_eff, u0, T, dx=eps, record_times=t_samples)
        xs = micro.x_grid
        err = 0.0
        for um, uh in zip(micro.values, macro.values):
            # the rescaled field is constant on each cell [i eps, (i+1) eps);
            # an honest sup compares the cell value at both cell edges
            uh_l = np.interp(xs, macro.x_grid, uh)
            uh_r = np.interp(xs + eps, macro.x_grid, uh)
            err = max(err, float(np.abs(um - uh_l).max()),
                      float(np.abs(um - uh_r).max()))
        errors.append(err)
        # crude scheme-error floor at this dx: compare against the half-step
        # solution on the finest grid once
        if eps == eps_list[-1]:
            macro2 = solve_hj(H_eff, u0, T, dx=eps / 2.0)
            uh1 = np.interp(xs, macro.x_grid, macro.at(T))
            uh2 = np.interp(xs, macro2.x_grid, macro2.at(T))
            floor_err = float(np.abs(uh1 - uh2).max())

    rates = [math.log2(e1 / e2) if e2 > 0 else math.inf
             for e1, e2 in zip(errors, errors[1:])]
    return ConvergenceReport(eps_list=tuple(eps_list), errors=tuple(errors),
                             rates=tuple(rates),
                             compact_t=(float(t_samples[0]), float(t_samples[-1])),
                             compact_x=(cx_lo, cx_hi), scheme_floor=floor_err)
