"""Rotation numbers with certified brackets and the effective Hamiltonian.

For slope-p initial data the orbit stays within C3 of the traveling line
p y + lambda tau for a unique lambda; the window rates

    lambda_plus(T)  = sup over tracked series v and times tau of (v(tau+T) - v(tau)) / T
    lambda_minus(T) = the corresponding inf

bracket lambda (T lambda_plus is sub-additive, so the brackets nest), and the
bracket width obeys the a-priori bound (lambda_plus - lambda_minus) <= C2 / T
with C2 from the constants ledger.  lambda_hat is the bracket midpoint, which
minimizes the worst-case error; the map (L, p) -> lambda is the effective
Hamiltonian F(L, p) tabulated by :func:`sweep`.

Sups over tau are taken on the sampled grid only; the induced slack
(sample_dt * max observed velocity, in lambda units divided by T) is reported
rather than hidden.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import (ForceModel, ConstantsLedger, constants_ledger,
                    require_monotone, with_extra_drive, _drive_column)
from .chain import (TrajectoryLog, cfl_dt, init_linear, NumericalError,
                    _clock, _march)


class LogTooShort(ValueError):
    pass


#: the first doubling window holds at least this many samples (one per Euler
#: step) and at least one time unit
FIRST_WINDOW_SAMPLES = 64.0


def lambda_pm(log: TrajectoryLog, T: float) -> tuple[float, float]:
    """Window rates (lambda_minus, lambda_plus) over all tracked U and Xi
    series; T snaps to the sample grid."""
    return _window_rates(log.tracked, log.sample_dt, T)


def _window_rates(series: np.ndarray, h: float, T: float) -> tuple[float, float]:
    """lambda_pm on tracked series of shape (2n, S+1) sampled every h."""
    K = int(round(T / h))
    if K < 1:
        raise LogTooShort(f"window T = {T} is below one sample spacing {h}")
    S = series.shape[1] - 1
    if S < 2 * K:
        raise LogTooShort(
            f"log spans {S * h:.6g}, need at least 2T = {2 * K * h:.6g}")
    T_eff = K * h
    d = (series[:, K:] - series[:, :-K]) / T_eff
    return float(d.min()), float(d.max())


@dataclass(frozen=True)
class RotationEstimate:
    """Bracketed rotation number with both error accountings.

    certified_halfwidth is the a-priori C2/T; the empirical bracket
    [lambda_minus, lambda_plus] contains lambda by sub-additivity up to the
    reported sampling slack.  history holds one row per doubling stage.
    """

    lambda_minus: float
    lambda_plus: float
    lambda_hat: float
    T: float
    certified_halfwidth: float
    empirical_width: float
    slack: float
    converged: bool
    ledger: ConstantsLedger
    p: Fraction
    history: tuple = ()

    @property
    def halfwidth_best(self) -> float:
        """Tightest valid half-width: empirical bracket or a-priori bound."""
        return min(self.certified_halfwidth, self.empirical_width / 2.0 + self.slack)


def rotation_number(model: ForceModel, p, L_extra: float = 0.0,
                    tol: float = 1e-3, T_cap: float = 2000.0, *,
                    cells: int = 1, safety: float = 0.5,
                    perturbation=None) -> RotationEstimate:
    """Certified rotation number for the family (L_extra + F_j) at slope p.

    Marches at dt = safety/alpha0, sampled every step, and doubles the window
    T from FIRST_WINDOW_SAMPLES steps (at least one time unit), reusing one
    trajectory, until min(empirical width, C2/T) <= 2 tol or T reaches T_cap;
    the estimate then carries the bracket, the certified half-width C2/T and
    a converged flag.  This is the one-row case of the column solver behind
    :func:`sweep`.
    """
    require_monotone(model)
    est, = _solve_column(model, p, [L_extra], tol, T_cap, cells=cells,
                         safety=safety, perturbation=perturbation)
    if isinstance(est, NumericalError):
        raise est
    return est


def _solve_column(model: ForceModel, p, Ls, tol: float, T_cap: float, *,
                  cells: int = 1, safety: float = 0.5,
                  perturbation=None) -> list:
    """Rotation numbers of the families (L + F_j) at slope p for every L in
    Ls, one RotationEstimate or NumericalError per L, on the clock and
    doubling schedule of :func:`rotation_number`.

    Every L shares the ring, the step and the doubling schedule, so the rows
    advance as one (B, N) ensemble with a per-row drive.  The window of a
    stage is K samples and its log 2K samples, all counted from the chain's
    start as in one run: a stage marches each live row's series on from its
    last sample to sample 2K.  Then each row takes its own bracket test and
    retires once it passes (or once 2T would pass T_cap), and a row that
    blows up retires with its error; the others go on.  Per row the
    arithmetic is that of a lone run, so every estimate is bitwise the one a
    single-row column gives, and its bracket is lambda_pm of one run of 2T.
    """
    p = Fraction(p)
    ledgers = [constants_ledger(with_extra_drive(model, L), p=float(p)) for L in Ls]
    # one sample per Euler step
    sample_dt = cfl_dt(model, safety=safety, check=False)
    clock = _clock(model, sample_dt, sample_dt)
    # windows are integer multiples of the sample spacing so that the T and 2T
    # sups run over aligned grids (exact bracket nesting)
    K = max(1, math.ceil(max(1.0, FIRST_WINDOW_SAMPLES * sample_dt) / sample_dt))
    T = K * sample_dt

    chain = init_linear(model, p, cells=cells, perturbation=perturbation)
    n, B = model.n, len(Ls)
    drive = _drive_column(model, Ls)
    U = np.repeat(chain.U[None, :], B, axis=0)
    Xi = np.repeat(chain.Xi[None, :], B, axis=0)
    # each live row's tracked series, (rows, 2n, samples so far)
    series = np.concatenate([U[:, :n], Xi[:, :n]], axis=1)[:, :, None]
    rows = np.arange(B)            # the input index of each live row
    # running max |sample increment| per row: the sampling slack is
    # max velocity * sample_dt / T over the whole log so far
    vmax = np.zeros(B)
    histories = [[] for _ in range(B)]
    results = [None] * B

    while rows.size:
        k = last = series.shape[2] - 1
        grown = np.empty((rows.size, 2 * n, 2 * K + 1))
        grown[:, :, :last + 1] = series
        # the row filters below copy series; no other name may keep the old one
        series = grown
        del grown
        while k < 2 * K and rows.size:
            U, Xi, k, errors = _march(model, U, Xi, chain.Q, chain.tau, k, 2 * K,
                                      clock, series, drive=drive)
            for b, exc in errors.items():
                results[rows[b]] = exc
            if errors:
                keep = [b for b in range(rows.size) if b not in errors]
                rows, U, Xi, drive, vmax, series = (
                    a[keep] for a in (rows, U, Xi, drive, vmax, series))

        keep = []
        for b, r in enumerate(rows):
            inc = np.abs(np.diff(series[b, :, last:], axis=1)).max()
            vmax[b] = max(vmax[b], inc)
            lam_lo, lam_hi = _window_rates(series[b], sample_dt, T)
            width = lam_hi - lam_lo
            certified = ledgers[r].C2 / T
            slack = float(vmax[b] / sample_dt) * sample_dt / T
            histories[r].append({"T": T, "lambda_minus": lam_lo,
                                 "lambda_plus": lam_hi,
                                 "certified_halfwidth": certified,
                                 "slack": slack})
            converged = min(width, certified) <= 2.0 * tol
            if converged or 2.0 * T > T_cap:
                results[r] = RotationEstimate(
                    lambda_minus=lam_lo, lambda_plus=lam_hi,
                    lambda_hat=0.5 * (lam_lo + lam_hi), T=T,
                    certified_halfwidth=certified, empirical_width=width,
                    slack=slack, converged=converged, ledger=ledgers[r], p=p,
                    history=tuple(histories[r]))
            else:
                keep.append(b)
        if len(keep) < rows.size:
            rows, U, Xi, drive, vmax, series = (
                a[keep] for a in (rows, U, Xi, drive, vmax, series))
        T = 2.0 * T
        K = 2 * K
    return results


def effective_hamiltonian(model: ForceModel, p, L: float = 0.0,
                          tol: float = 1e-3, T_cap: float = 2000.0, **kw) -> float:
    """F(L, p): the rotation number of the driven family at slope p."""
    return rotation_number(model, p, L_extra=L, tol=tol, T_cap=T_cap, **kw).lambda_hat


# ---------------------------------------------------------------------------
# Tables over (L, p)
# ---------------------------------------------------------------------------

@dataclass
class EffectiveTable:
    """Tabulated F(L, p) with per-entry half-widths and ledger metadata.

    lam[i, j] is the estimate at (L_grid[i], p_grid[j]); halfwidths holds the
    tightest valid per-entry half-width (empirical bracket vs C2/T).
    """

    p_grid: list                      # Fractions
    L_grid: np.ndarray
    lam: np.ndarray                   # (nL, nP)
    halfwidths: np.ndarray
    converged: np.ndarray             # bool (nL, nP)
    ledger_refs: list                 # per-entry dicts, row major
    failures: list = field(default_factory=list)

    @classmethod
    def _from_entries(cls, pairs, failures=()) -> "EffectiveTable":
        """The one table layout: ((L, p), (lambda, halfwidth, converged,
        ledger_ref)) pairs on the ascending distinct L and p values;
        ValueError unless every L is finite and the pairs fill the L x p grid
        exactly once."""
        entries = dict(pairs)
        L_grid = sorted({L for L, _ in entries})
        p_grid = sorted({p for _, p in entries})
        nL, nP = len(L_grid), len(p_grid)
        if not all(math.isfinite(L) for L in L_grid):
            raise ValueError(f"drive values {L_grid} are not all finite")
        if not entries or len(entries) != len(pairs) or len(entries) != nL * nP:
            raise ValueError(f"{len(pairs)} rows do not fill the {nL} x {nP} "
                             "(L, p) grid exactly once")
        lam, hw, conv, refs = zip(*(entries[L, p] for L in L_grid for p in p_grid))
        return cls(p_grid=p_grid, L_grid=np.array(L_grid),
                   lam=np.reshape(lam, (nL, nP)), halfwidths=np.reshape(hw, (nL, nP)),
                   converged=np.reshape(conv, (nL, nP)), ledger_refs=list(refs),
                   failures=list(failures))

    @property
    def diagnostics(self) -> dict:
        return _table_diagnostics(self)

    def column(self, p) -> np.ndarray:
        j = self.p_grid.index(Fraction(p))
        return self.lam[:, j]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("L,p,lambda,halfwidth,converged\n")
        for i, L in enumerate(self.L_grid):
            for j, p in enumerate(self.p_grid):
                buf.write(f"{float(L)!r},{p.numerator}/{p.denominator},"
                          f"{float(self.lam[i, j])!r},{float(self.halfwidths[i, j])!r},"
                          f"{int(self.converged[i, j])}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "EffectiveTable":
        """Parse :meth:`to_csv` output; ValueError unless every row has the 5
        fields and a slope with a nonzero denominator, and the rows meet
        :meth:`_from_entries`."""
        lines = [ln for ln in text.strip().splitlines()[1:] if ln]
        pairs = []
        for ln in lines:
            Ls, ps, lam, hw, conv = ln.split(",")
            try:
                p = Fraction(ps)
            except ZeroDivisionError:
                raise ValueError(f"row {ln!r}: slope {ps} has a zero denominator")
            pairs.append(((float(Ls), p), (float(lam), float(hw), bool(int(conv)), {})))
        return cls._from_entries(pairs)

    def to_json_dict(self) -> dict:
        return {
            "p_grid": [f"{p.numerator}/{p.denominator}" for p in self.p_grid],
            "L_grid": [float(x) for x in self.L_grid],
            "lambda": self.lam.tolist(),
            "halfwidths": self.halfwidths.tolist(),
            "converged": self.converged.astype(int).tolist(),
            "ledger_refs": self.ledger_refs,
            "failures": self.failures,
            "diagnostics": self.diagnostics,
        }


def _table_diagnostics(table: EffectiveTable) -> dict:
    """Monotonicity-in-L and continuity-in-p summaries."""
    diag = {}
    if table.L_grid.size >= 2:
        jumps = table.lam[:-1, :] - table.lam[1:, :]   # positive = downward in L
        with np.errstate(invalid="ignore"):
            diag["max_downward_jump_in_L"] = float(np.nanmax(np.maximum(jumps, 0.0))) \
                if np.isfinite(jumps).any() else float("nan")
    if len(table.p_grid) >= 2:
        dp = np.diff([float(p) for p in table.p_grid])
        dl = np.abs(np.diff(table.lam, axis=1))
        with np.errstate(invalid="ignore"):
            diag["max_p_increment"] = float(np.nanmax(dl)) if np.isfinite(dl).any() else float("nan")
            diag["min_p_spacing"] = float(dp.min())
    return diag


def sweep(model: ForceModel, p_grid, L_grid, tol: float = 1e-3,
          T_cap: float = 2000.0, **kw) -> EffectiveTable:
    """Fill the (L, p) table on the distinct grid values, in ascending order.

    Each p-column is one ensemble: every L at that p shares the ring, so the
    column solver steps all of them together and retires each entry on its
    own bracket test.  Entries equal those of per-entry :func:`rotation_number`
    calls bit for bit; an entry that blows up becomes NaN and is listed in
    ``failures``, the rest of its column is unaffected.
    """
    p_grid = sorted({Fraction(p) for p in p_grid})
    L_grid = np.array(sorted({float(L) for L in L_grid}))
    if not p_grid or L_grid.size == 0:
        raise ValueError("p_grid and L_grid must be nonempty")
    require_monotone(model)
    columns = [_solve_column(model, p, L_grid, tol, T_cap, **kw) for p in p_grid]

    pairs, failures = [], []
    for i, L in enumerate(L_grid.tolist()):
        for j, p in enumerate(p_grid):
            est = columns[j][i]
            if isinstance(est, NumericalError):
                failures.append({"L": L, "p": str(p), "error": str(est)})
                pairs.append(((L, p), (np.nan, np.nan, False, {})))
            else:
                pairs.append(((L, p), (est.lambda_hat, est.halfwidth_best, est.converged,
                                       {"C2": est.ledger.C2, "C4": est.ledger.C4,
                                        "K1": est.ledger.K1, "T": est.T})))
    return EffectiveTable._from_entries(pairs, failures)


def monotone_in_L_violation(table: EffectiveTable, j: Optional[int] = None) -> float:
    """Worst downward step of L -> lambda beyond the summed half-widths
    (negative or zero means monotone within certification)."""
    cols = range(len(table.p_grid)) if j is None else [j]
    worst = -math.inf
    for jj in cols:
        lam = table.lam[:, jj]
        hwc = table.halfwidths[:, jj]
        for i in range(lam.size - 1):
            if np.isnan(lam[i]) or np.isnan(lam[i + 1]):
                continue
            worst = max(worst, (lam[i] - lam[i + 1]) - (hwc[i] + hwc[i + 1]))
    return worst


def depinning_threshold(table: EffectiveTable, p, tol: float = 1e-6) -> tuple[float, float]:
    """Bracket the drive where the p-column leaves lambda = 0, from the table
    alone (measured, not asserted)."""
    j = table.p_grid.index(Fraction(p))
    lam = table.lam[:, j]
    moving = np.flatnonzero(lam > tol)
    if moving.size == 0:
        return float(table.L_grid[-1]), math.inf
    k = int(moving[0])
    lo = float(table.L_grid[k - 1]) if k > 0 else -math.inf
    return lo, float(table.L_grid[k])


def table_to_json(table: EffectiveTable, indent: int = 2) -> str:
    return json.dumps(table.to_json_dict(), indent=indent, sort_keys=True)
