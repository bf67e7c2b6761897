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

from .model import ForceModel, with_extra_drive, require_monotone, _force
from .chain import NumericalError, cfl_dt, _cut, _euler_coeff, _euler_update


class MacroError(ValueError):
    pass


#: record times of the eps study, evenly spaced on [T/2, T]
COMPACT_TIMES = 5


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

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in ("ok", "min_slope", "max_slope", "gap", "gap_ok")}
        d["witness"] = list(self.witness) if self.witness else None
        return d


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


@dataclass
class MacroState:
    x_grid: np.ndarray
    u: np.ndarray
    t: float
    K0: float
    history: list = field(default_factory=list)   # [(t, u.copy())]
    slope_range_seen: tuple = (math.inf, -math.inf)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,x,u\n")
        rows = self.history if self.history else [(self.t, self.u)]
        for t, u in rows:
            for xv, uv in zip(self.x_grid, u):
                buf.write(f"{float(t)!r},{float(xv)!r},{float(uv)!r}\n")
        return buf.getvalue()

    def at_time(self, t: float) -> np.ndarray:
        for tv, u in self.history:
            if abs(tv - t) <= 1e-9:
                return u
        raise MacroError(f"time {t} was not recorded")


def solve_hj(H: HamiltonianInterp, u0: Profile, T: float, dx: float, *,
             K0: Optional[float] = None, dt: Optional[float] = None,
             record_times: Optional[Sequence[float]] = None) -> MacroState:
    """March u_t = H(u_x) with the monotone Lax-Friedrichs scheme.

    u_k <- u_k + dt [ H((u_{k+1} - u_{k-1}) / 2 dx)
                      + nu (u_{k+1} - 2 u_k + u_{k-1}) / dx ],  nu = lip_est / 2,

    under the CFL bound dt <= dx / (2 lip_est).  Ghost nodes extend the
    current edges affinely with the edge slopes of u0.
    """
    if T < 0 or dx <= 0:
        raise MacroError("need T >= 0 and dx > 0")
    span = float(u0.x[-1] - u0.x[0])
    nx = int(math.floor(span / dx + 1e-9)) + 1
    x = u0.x[0] + dx * np.arange(nx)
    u = u0.value(x)
    s_lo, s_hi = u0.edge_slopes
    if K0 is None:
        K0 = u0.slope_frame()

    lip = H.lip_est
    if not H.covers(1.0 / K0, K0):
        warnings.warn("Hamiltonian table does not cover the slope range "
                      f"[{1 / K0:.3g}, {K0:.3g}]; constant extrapolation in use",
                      stacklevel=2)
    nu = 0.5 * lip
    dt_max = dx / (2.0 * lip) if lip > 0 else dx
    if dt is not None:
        if dt > dt_max * (1 + 1e-12):
            raise MacroError(f"dt = {dt} violates the CFL bound {dt_max}")
        dt_max = dt

    want = set(float(t) for t in record_times) if record_times is not None else set()
    plan = _march_plan(list(want) + [T], T, dt_max)

    state = MacroState(x_grid=x, u=u, t=0.0, K0=K0)
    smin, smax = math.inf, -math.inf

    def note_slopes(v):
        nonlocal smin, smax
        if v.size > 1:
            d = np.diff(v) / dx
            smin = min(smin, float(d.min()))
            smax = max(smax, float(d.max()))

    note_slopes(u)
    for target, n_sub, dt_eff, _ in plan:
        for _ in range(n_sub):
            um = np.empty_like(u)
            up = np.empty_like(u)
            um[1:] = u[:-1]
            um[0] = u[0] - dx * s_lo
            up[:-1] = u[1:]
            up[-1] = u[-1] + dx * s_hi
            grad = (up - um) / (2.0 * dx)
            u = u + dt_eff * (H(grad) + nu * (up - 2.0 * u + um) / dx)
            note_slopes(u)
        if target in want:
            state.history.append((target, u.copy()))
    state.u = u
    state.t = T
    state.slope_range_seen = (smin, smax)
    return state


# ---------------------------------------------------------------------------
# Hyperbolic rescaling of the microscopic chain
# ---------------------------------------------------------------------------

@dataclass
class MicroField:
    """u_eps on a (t, x) grid; values[s, i] = eps * U_{i_lo + i}(t_s / eps)."""

    eps: float
    t_grid: np.ndarray
    i_lo: int
    values: np.ndarray             # (nt, n_obs)
    meta: dict = field(default_factory=dict)

    @property
    def x_cells(self) -> np.ndarray:
        return self.eps * (self.i_lo + np.arange(self.values.shape[1]))

    def at(self, t: float, x) -> np.ndarray:
        s = int(np.argmin(np.abs(self.t_grid - t)))
        if abs(self.t_grid[s] - t) > 1e-9:
            raise MacroError(f"time {t} was not recorded")
        r = np.asarray(x, dtype=float) / self.eps
        idx = np.floor(r)
        # snap points an ulp below a cell boundary into the right-hand cell
        idx = np.where(r - idx > 1.0 - 1e-9, idx + 1.0, idx).astype(int) - self.i_lo
        if np.any(idx < 0) or np.any(idx >= self.values.shape[1]):
            raise MacroError("requested x outside the observation window")
        return self.values[s, idx]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,x,u\n")
        xs = self.x_cells
        for s, t in enumerate(self.t_grid):
            for i, xv in enumerate(xs):
                buf.write(f"{float(t)!r},{float(xv)!r},{float(self.values[s, i])!r}\n")
        return buf.getvalue()


def rescale_micro(model: ForceModel, L: float, eps: float, u0: Profile,
                  T: float, window: tuple[float, float], **kw) -> MicroField:
    """Simulate U_i(0) = u0(i eps)/eps on a padded window and return
    u_eps(t, x) = eps U_{floor(x/eps)}(t/eps) on the requested times.

    Influence travels at most m indices per Euler step, so the update of a
    particle more than m k from the window, at a step with k steps after it,
    never reaches the window.  Each step advances only the particles within
    m k, a slice that shrinks by m per side per step and reads m neighbours
    beyond itself; the pad of m (n_steps + 1) particles per side holds it.
    Particles outside the slice keep stale values that never reach the
    window, so values on the window are exactly those of the infinite chain.
    meta records the particles actually stepped, summed over steps, as
    particle_steps.  Euler steps are at most cfl_dt(model + L, 0.5), cut by
    ``_march_plan`` to land on each time of t_record (default [T]).  Keyword
    options (xi0, M0, K0, t_record, max_particles) are those of
    ``_rescale_micro``, the body without the structural check.
    """
    require_monotone(model)
    return _rescale_micro(model, L, eps, u0, T, window, **kw)


def _rescale_micro(model: ForceModel, L: float, eps: float, u0: Profile,
                   T: float, window: tuple[float, float], *,
                   xi0: Optional[Profile] = None, M0: float = 0.0,
                   K0: Optional[float] = None,
                   t_record: Optional[Sequence[float]] = None,
                   max_particles: int = 5_000_000) -> MicroField:
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
    if K0 is None:
        K0 = u0.slope_frame()
    rep = check_A0(u0, K0, xi0=xi0, M0=M0, eps=eps)
    if not rep.ok:
        raise MacroError(f"initial profile violates the slope frame: {rep}")

    model2 = with_extra_drive(model, L)
    dt_max = cfl_dt(model2, 0.5, check=False)
    m = model2.m

    plan = _march_plan(t_record if t_record is not None else [T], T, dt_max, eps)
    total_steps = sum(n_sub for _, n_sub, _, _ in plan)

    pad = m * (total_steps + 1)
    # widen the pad so the array starts on a type boundary: array position k
    # then holds a particle of type k mod n
    pad += (i_lo - pad) % model2.n
    N_tot = n_obs + 2 * pad
    if N_tot > max_particles:
        raise MacroError(
            f"domain-of-dependence pad needs {N_tot} particles "
            f"(> {max_particles}); increase eps, shrink T, or raise the cap")

    idx = np.arange(i_lo - pad, i_hi + pad + 1)
    U = u0.value(idx * eps) / eps
    Xi = U.copy() if xi0 is None else xi0.value(idx * eps) / eps

    # V[k] is the window centred on U[k + m], so the force on U[lo:hi] reads
    # V[lo - m:hi - m]; U is only ever written in place, so V stays current
    V = sliding_window_view(U, 2 * m + 1)
    types = np.arange(N_tot) % model2.n

    obs = slice(pad, pad + n_obs)
    reach = m * (total_steps - 1)
    particle_steps = 0
    vals = []
    for w, n_sub, dt, start in plan:
        c, beta = _euler_coeff(model2, dt)
        for k in range(n_sub):
            lo, hi = pad - reach, pad + n_obs + reach
            F = _force(model2, start + k * dt, V[lo - m:hi - m], types[lo:hi])
            U[lo:hi], Xi[lo:hi] = _euler_update(U[lo:hi], Xi[lo:hi], F, c, beta, dt)
            particle_steps += hi - lo
            reach -= m
        if not np.all(np.isfinite(U[obs])):
            raise NumericalError(f"microscopic state blew up before t = {w}",
                                 tau=w / eps)
        vals.append(eps * U[obs].copy())

    return MicroField(eps=eps, t_grid=np.array([t for t, *_ in plan]), i_lo=i_lo,
                      values=np.array(vals),
                      meta={"pad": pad, "n_steps": total_steps, "dt": dt_max,
                            "N_total": N_tot, "K0": K0, "L": L,
                            "particle_steps": particle_steps})


def gradient_sandwich_probe(field: MicroField, K0: float, n_type: int,
                            rng: np.random.Generator, n_probes: int = 100) -> dict:
    """Check the floor/ceil gradient sandwich on random (t, x, z) probes.

    Probes are quantized to realized index differences k (multiples of the
    type period), i.e. the sandwich is evaluated at the displacement
    z = eps k the field actually resolves:
    eps floor(k / K0) <= diff <= eps ceil(k K0).
    """
    eps = field.eps
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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def convergence_study(model: ForceModel, L: float, u0: Profile,
                      eps_list: Sequence[float], T: float,
                      window: tuple[float, float], H: HamiltonianInterp, *,
                      xi0: Optional[Profile] = None,
                      M0: float = 0.0) -> ConvergenceReport:
    """Sup-norm distance between the rescaled chain and the homogenized
    solution on the compact set t in [T/2, T] x central half of the window,
    per eps, at matched resolution dx = eps and COMPACT_TIMES evenly spaced
    times; the chain marches on the clock of :func:`rescale_micro`.

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

    H_eff = H.scaled(model.n)

    errors = []
    floor_err = math.inf
    for eps in eps_list:
        micro = _rescale_micro(model, L, eps, u0, T, window, xi0=xi0, M0=M0,
                               t_record=t_samples)
        macro = solve_hj(H_eff, u0, T, dx=eps, record_times=t_samples)
        xs = micro.x_cells
        sel = (xs >= cx_lo) & (xs <= cx_hi)
        err = 0.0
        for s, t in enumerate(micro.t_grid):
            um = micro.values[s, sel]
            # the rescaled field is constant on each cell [i eps, (i+1) eps);
            # an honest sup compares the cell value at both cell edges
            uh_l = np.interp(xs[sel], macro.x_grid, macro.at_time(t))
            uh_r = np.interp(xs[sel] + eps, macro.x_grid, macro.at_time(t))
            err = max(err, float(np.abs(um - uh_l).max()),
                      float(np.abs(um - uh_r).max()))
        errors.append(err)
        # crude scheme-error floor at this dx: compare against the half-step
        # solution on the coarsest grid once
        if eps == eps_list[-1]:
            macro2 = solve_hj(H_eff, u0, T, dx=eps / 2.0, record_times=[T])
            uh1 = np.interp(xs[sel], macro.x_grid, macro.at_time(T))
            uh2 = np.interp(xs[sel], macro2.x_grid, macro2.at_time(T))
            floor_err = float(np.abs(uh1 - uh2).max())

    rates = [math.log2(e1 / e2) if e2 > 0 else math.inf
             for e1, e2 in zip(errors, errors[1:])]
    return ConvergenceReport(eps_list=tuple(eps_list), errors=tuple(errors),
                             rates=tuple(rates),
                             compact_t=(float(t_samples[0]), float(t_samples[-1])),
                             compact_x=(cx_lo, cx_hi), scheme_floor=floor_err)
