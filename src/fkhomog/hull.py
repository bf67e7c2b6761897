"""Hull functions: the periodic shape of a traveling lattice.

A converged slope-p orbit with speed lambda is h_j(p y + lambda tau) in U and
g_j(...) in Xi, where the hull pair (h_j, g_j) is nondecreasing, commutes with
integer shifts (h_j(z+1) = h_j(z) + 1), is ordered in j, satisfies the type
shift h_{j+n}(z) = h_j(z + p), and stays within 2 ceil(C3) of the identity.

Extraction pools phase samples from trajectory snapshots: particle i of type
j at time tau sits at phase z = frac(p y_i + lambda tau) with y_i = (i - j)/n,
and its position lifts onto the graph of h.  Raw samples carry integrator
noise, so they are projected onto the monotone cone (pool-adjacent-violators,
L2 optimal) before gridding.  The phase p y_i is reduced mod 1 in exact
rational arithmetic so long logs cannot drift between bins.

For rational slopes in the pinned regime the orbit visits finitely many
phases and the true hull may be discontinuous; the gridded hull is then the
monotone envelope of the sampled phases and residuals may stagnate under
refinement.  That stagnation is reported, not hidden.

There is one hull type and one extraction.  A force F_j(tau, .) that is
1-periodic in tau has a hull h_j(tau, z): :class:`HullFunction` stores it on
n_tau strata of frac(tau).  :func:`extract_hull` makes one array pass: it
stacks the settled snapshots, computes every phase and lift at once, and
grids each (stratum, type) from its rows.  An autonomous force is the
one-stratum case (n_tau = 1), which the stationary residuals and the CSV
file take.
:func:`extract_hull_periodic` is the same extraction with the tau-periodic
defaults, kept under its own name for existing callers.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import ForceModel, ConstantsLedger, _force, _plan
from .chain import TrajectoryLog, _transient_cut


class HullExtractionError(ValueError):
    pass


def isotonic_fit(v: np.ndarray, w: Optional[np.ndarray] = None) -> np.ndarray:
    """L2 projection onto nondecreasing sequences (pool adjacent violators)."""
    v = np.asarray(v, dtype=float)
    if w is None:
        w = np.ones_like(v)
    # blocks as (weight, mean); merge while the last two violate monotonicity
    means = []
    weights = []
    sizes = []
    for val, wt in zip(v, w):
        means.append(val)
        weights.append(wt)
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, w2, s2 = means.pop(), weights.pop(), sizes.pop()
            m1, w1, s1 = means.pop(), weights.pop(), sizes.pop()
            wt_tot = w1 + w2
            means.append((m1 * w1 + m2 * w2) / wt_tot)
            weights.append(wt_tot)
            sizes.append(s1 + s2)
    out = np.empty_like(v)
    pos = 0
    for mval, s in zip(means, sizes):
        out[pos:pos + s] = mval
        pos += s
    return out


def _isotonic_periodic(v: np.ndarray, w: Optional[np.ndarray] = None) -> np.ndarray:
    """Monotone projection respecting the lift v(z+1) = v(z) + 1: project two
    stacked periods and keep the first."""
    n = v.size
    vv = np.concatenate([v, v + 1.0])
    ww = None if w is None else np.concatenate([w, w])
    fit = isotonic_fit(vv, ww)
    return fit[:n]


# widest rotation bracket [lambda-, lambda+] of a log in the traveling regime
WIDTH_THRESHOLD = 0.25


@dataclass
class HullFunction:
    """Sampled hull pair on a uniform phase grid over [0, 1): h[k] and g[k]
    are the (n, Z) profiles of the tau stratum frac(tau) in
    [k / n_tau, (k + 1) / n_tau), one stratum for an autonomous force."""

    p: Fraction
    lam: float
    z_grid: np.ndarray
    h: np.ndarray                  # (n_tau, n, Z)
    g: np.ndarray                  # (n_tau, n, Z)
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_tau(self) -> int:
        return self.h.shape[0]

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def Z(self) -> int:
        return self.h.shape[2]


def _stratum(tau, n_tau: int):
    """The k with frac(tau) in [k / n_tau, (k + 1) / n_tau), elementwise; a
    time within 1e-9 below a stratum edge counts as lying on that edge."""
    return np.floor((np.asarray(tau) % 1.0 + 1e-9) * n_tau).astype(int) % n_tau


def _interp_wrapped(row: np.ndarray, z_grid: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Evaluate a gridded profile at arbitrary phases using the +1 lift."""
    z = np.asarray(z, dtype=float)
    k = np.floor(z)
    zf = z - k
    nodes = np.concatenate([[z_grid[-1] - 1.0], z_grid, [z_grid[0] + 1.0]])
    vals = np.concatenate([[row[-1] - 1.0], row, [row[0] + 1.0]])
    return np.interp(zf, nodes, vals) + k


def hull_value(hull: HullFunction, j: int, z, which: str = "h", tau: float = 0.0):
    """h_j(tau, z) (or g_j) for any integer j via the type shift
    h_{j + n}(z) = h_j(z + p), on the stratum of tau."""
    if which not in ("h", "g"):
        raise ValueError(f"which must be 'h' or 'g', not {which!r}")
    shift, j0 = divmod(int(j) - 1, hull.n)
    rows = hull.h if which == "h" else hull.g
    row = rows[int(_stratum(tau, hull.n_tau)), j0]
    zz = np.asarray(z, dtype=float) + shift * float(hull.p)
    out = _interp_wrapped(row, hull.z_grid, zz)
    return float(out) if np.isscalar(z) else out


def extract_hull(log: TrajectoryLog, lam: float, p, *, Z: int = 64, n_tau: int = 1,
                 lambda_halfwidth: float = 0.0,
                 transient: Optional[float] = None) -> HullFunction:
    """Pool phase samples from snapshots, project monotone, resample on Z bins,
    one grid per tau stratum.

    Snapshots before the relaxation transient (default 5/alpha0 after the
    first sample) are dropped, and the rest are windowed so that the phase
    smear tau_window * halfwidth of the lambda estimate stays below one grid
    cell.  Refuses logs without snapshots or without any past the transient,
    one stratum for a tau-dependent force, logs that have not reached the
    traveling regime (bracket width above WIDTH_THRESHOLD), a stratum that
    receives no snapshot, and fewer than Z samples per particle type.  A
    tau-periodic force needs n_tau > 1 and a log that samples
    incommensurately enough to fill every stratum.
    """
    from .rotation import lambda_pm, LogTooShort

    p = Fraction(p)
    model = log.final_state.model
    if not log.snapshots:
        raise HullExtractionError("hull extraction needs full snapshots; "
                                  "rerun with snapshot_stride > 0")
    cut = _transient_cut(model, float(log.sample_times[0]), transient)
    settled = [s for s in log.snapshots if s[0] >= cut]
    if not settled:
        raise HullExtractionError("no snapshots past the relaxation transient")

    if n_tau == 1 and not model.is_autonomous:
        raise HullExtractionError(
            "a one-stratum hull needs an autonomous force; extract a "
            "tau-periodic family with n_tau > 1")

    try:
        lo, hi = lambda_pm(log, max(log.span / 4.0, log.sample_dt))
    except LogTooShort as exc:
        raise HullExtractionError(f"log too short to assess convergence: {exc}")
    if hi - lo > WIDTH_THRESHOLD:
        raise HullExtractionError(
            f"dynamics not in the traveling regime: bracket width {hi - lo:.3g} "
            f"exceeds {WIDTH_THRESHOLD}")

    tau, U, Xi = (np.array(a) for a in zip(*settled))   # (S,), (S, N), (S, N)
    if lambda_halfwidth > 0.0:
        tau_window = (1.0 / Z) / lambda_halfwidth
        keep = tau >= tau[-1] - tau_window
        tau, U, Xi = tau[keep], U[keep], Xi[keep]

    # phase z = frac(p y + lambda tau) of every particle in every snapshot,
    # and the integer lift that puts its position on the graph of h
    n = model.n
    q, r = p.numerator, p.denominator
    y = np.arange(U.shape[1]) // n   # integer cell index of each particle
    w = ((q * y) % r) / r + (lam * tau)[:, None]   # exact rational part + lambda tau
    fl = np.floor(w)
    z = w - fl
    lift = (q * y) // r + fl
    hs, gs = U - lift, Xi - lift

    strata = _stratum(tau, n_tau)
    z_grid = (np.arange(Z) + 0.5) / Z  # cell midpoints on [0, 1)
    h, g = np.empty((n_tau, n, Z)), np.empty((n_tau, n, Z))
    worst_iso = 0.0
    for k in range(n_tau):
        rows = strata == k
        count = int(rows.sum())
        if not count:
            raise HullExtractionError(
                f"tau stratum {k}/{n_tau} received no snapshots; sample "
                f"faster or longer")
        for t in range(n):
            # snapshot-major, then particle order within type t
            zt = z[rows, t::n].ravel()
            if zt.size < Z:
                need = math.ceil(Z / max(1, zt.size // count))
                raise HullExtractionError(
                    f"type {t + 1} supplies {zt.size} phase samples < Z = {Z}; "
                    f"need about {need} snapshots")
            h[k, t], g[k, t], iso = _grid_type(zt, hs[rows, t::n].ravel(),
                                               gs[rows, t::n].ravel(), Z, z_grid)
            worst_iso = max(worst_iso, iso)
    return HullFunction(p=p, lam=float(lam), z_grid=z_grid, h=h, g=g,
                        diagnostics={"isotonic_residual": worst_iso,
                                     "snapshots_used": len(tau),
                                     "lambda_halfwidth": lambda_halfwidth})


def extract_hull_periodic(log: TrajectoryLog, lam: float, p, *, Z: int = 32,
                          n_tau: int = 8) -> HullFunction:
    """:func:`extract_hull` with the tau-periodic defaults Z = 32, n_tau = 8."""
    return extract_hull(log, lam, p, Z=Z, n_tau=n_tau)


def _grid_type(z: np.ndarray, hv: np.ndarray, gv: np.ndarray, Z: int,
               z_grid: np.ndarray):
    """Grid one type's pooled (phase, h, g) samples: sort by phase, measure
    the isotonic residual, collapse repeated phases, project monotone with
    the +1 lift and resample on z_grid.  Returns (h row, g row, residual)."""
    order = np.argsort(z, kind="stable")
    z = z[order]
    # collapse repeated phases (pinned orbits revisit few of them) before
    # the weighted monotone projection
    z_u, inv, counts = np.unique(z, return_inverse=True, return_counts=True)
    wts = counts.astype(float)
    rows, iso = [], 0.0
    for v in (hv[order], gv[order]):
        if z.size > 1:
            iso = max(iso, float(np.maximum(v[:-1] - v[1:], 0.0).max()))
        v = _isotonic_periodic(np.bincount(inv, weights=v) / counts, wts)
        rows.append(_resample(z_u, v, wts, Z, z_grid))
    return rows[0], rows[1], iso


def _resample(z: np.ndarray, v: np.ndarray, w: np.ndarray, Z: int,
              z_grid: np.ndarray) -> np.ndarray:
    """Interpolate grid midpoints through per-cell weighted mean anchors.

    Averaging both phase and value per cell suppresses sample jitter without
    losing the exactness of affine hulls (interpolation through points on a
    line stays on the line); monotone input keeps the anchors monotone.
    """
    cell = np.minimum((z * Z).astype(int), Z - 1)
    wsum = np.bincount(cell, weights=w, minlength=Z)
    filled = wsum > 0
    zc = np.bincount(cell, weights=w * z, minlength=Z)[filled] / wsum[filled]
    vc = np.bincount(cell, weights=w * v, minlength=Z)[filled] / wsum[filled]
    zz = np.concatenate([zc - 1.0, zc, zc + 1.0])
    vv = np.concatenate([vc - 1.0, vc, vc + 1.0])
    return np.interp(z_grid, zz, vv)


# ---------------------------------------------------------------------------
# Residuals and axioms
# ---------------------------------------------------------------------------

def _one_stratum(hull: HullFunction, what: str):
    """The (h, g) rows of a one-stratum hull; refuses a tau-dependent one."""
    if hull.n_tau > 1:
        raise HullExtractionError(f"{what} need an autonomous hull; this one has "
                                  f"{hull.n_tau} tau strata")
    return hull.h[0], hull.g[0]


def hull_residual(hull: HullFunction, model: ForceModel) -> dict:
    """Sup-norm defects of the stationary hull equations on the grid.

    r_h checks lambda D_z h = alpha0 (g - h); r_g checks
    lambda D_z g = 2 F_j([h]_{j,m}(z)) + alpha0 (h - g).  One-sided
    differences are upwinded by the sign of lambda.  Refuses a hull with
    more than one tau stratum.
    """
    h, g = _one_stratum(hull, "stationary residuals")
    lam = hull.lam
    a0 = model.alpha0
    dz = 1.0 / hull.Z

    def d_z(rows: np.ndarray) -> np.ndarray:
        if lam >= 0:
            prev = np.roll(rows, 1, axis=1)
            prev[:, 0] -= 1.0       # h(z - dz) for z = 0 wraps to h(1 - dz) - 1
            return (rows - prev) / dz
        nxt = np.roll(rows, -1, axis=1)
        nxt[:, -1] += 1.0
        return (nxt - rows) / dz

    r_h = float(np.abs(lam * d_z(h) - a0 * (g - h)).max())

    # [h]_{j,m}(z) on the grid, window-major (2m+1, n Z): the values
    # h_{j+s}(z) for s in -m..m via the type-shift convention, type-major
    m = model.m
    win = np.array([[hull_value(hull, j + s, hull.z_grid, "h") for j in range(1, hull.n + 1)]
                    for s in range(-m, m + 1)]).reshape(2 * m + 1, -1)
    types = np.repeat(np.arange(hull.n), hull.Z)
    F = _force(model, 0.0, *_plan(model, win, types)).reshape(hull.n, hull.Z)
    r_g = float(np.abs(lam * d_z(g) - (2.0 * F + a0 * (h - g))).max())
    return {"r_h": r_h, "r_g": r_g}


@dataclass(frozen=True)
class HullAxiomReport:
    monotone_ok: bool
    monotone_worst: float          # most negative grid increment (0 if clean)
    monotone_witness: Optional[tuple]   # (h | g, stratum, j, z cell)
    ordering_ok: bool
    ordering_worst: float
    displacement: float
    displacement_bound: float
    displacement_ok: bool
    wrap_ok: bool = True           # wrap and n-shift hold by storage convention

    @property
    def all_ok(self) -> bool:
        return self.monotone_ok and self.ordering_ok and self.displacement_ok

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in
             ("monotone_ok", "monotone_worst", "ordering_ok", "ordering_worst",
              "displacement", "displacement_bound", "displacement_ok", "wrap_ok")}
        d["monotone_witness"] = list(self.monotone_witness) if self.monotone_witness else None
        return d


def verify_hull_axioms(hull: HullFunction, ledger: ConstantsLedger,
                       tol: float = 1e-9) -> HullAxiomReport:
    """Check, on every tau stratum, monotonicity (with the +1 wrap at the
    seam), ordering in j (including h_1(z + p) >= h_n(z) across the type
    period), and the displacement bound |h - id| <= 2 ceil(C3).  The
    monotone witness names the tau stratum, the type and the z cell of the
    worst decrease."""
    worst = 0.0
    witness = None
    for name, rows in (("h", hull.h), ("g", hull.g)):
        lifted = np.concatenate([rows, rows[..., :1] + 1.0], axis=-1)
        inc = np.diff(lifted, axis=-1)
        i = np.unravel_index(np.argmin(inc), inc.shape)
        if inc[i] < worst:
            worst = float(inc[i])
            witness = (name, int(i[0]), int(i[1]) + 1, int(i[2]))

    ord_worst = 0.0
    for rows in (hull.h, hull.g):
        for t in range(hull.n - 1):
            ord_worst = min(ord_worst, float((rows[:, t + 1] - rows[:, t]).min()))
        # seam ordering: h_{n+1}(z) = h_1(z + p) must dominate h_n(z)
        for k in range(hull.n_tau):
            top = _interp_wrapped(rows[k, 0], hull.z_grid, hull.z_grid + float(hull.p))
            ord_worst = min(ord_worst, float((top - rows[k, -1]).min()))

    disp = max(float(np.abs(hull.h - hull.z_grid).max()),
               float(np.abs(hull.g - hull.z_grid).max()))
    bound = 2.0 * math.ceil(ledger.C3)
    return HullAxiomReport(
        monotone_ok=worst >= -tol, monotone_worst=worst, monotone_witness=witness,
        ordering_ok=ord_worst >= -tol, ordering_worst=ord_worst,
        displacement=disp, displacement_bound=bound,
        displacement_ok=disp <= bound + tol)


def reconstruct_traveling_wave(hull: HullFunction, tau: float, y: float,
                               j: int) -> tuple[float, float]:
    """(U, Xi) of the traveling solution: (h_j(tau, p y + lambda tau), g_j(...))."""
    z = float(hull.p) * y + hull.lam * tau
    return (hull_value(hull, j, z, "h", tau), hull_value(hull, j, z, "g", tau))


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def hull_to_csv(hull: HullFunction) -> str:
    h, g = _one_stratum(hull, "hull CSV files")
    buf = io.StringIO()
    buf.write("j,z,h,g\n")
    for t in range(hull.n):
        for k in range(hull.Z):
            buf.write(f"{t + 1},{float(hull.z_grid[k])!r},{float(h[t, k])!r},{float(g[t, k])!r}\n")
    return buf.getvalue()


def hull_header_json(hull: HullFunction, residuals: Optional[dict] = None) -> str:
    d = {"p": f"{hull.p.numerator}/{hull.p.denominator}", "lambda": hull.lam,
         "Z": hull.Z, "residuals": residuals or {}, "diagnostics": hull.diagnostics}
    return json.dumps(d, indent=2, sort_keys=True)
