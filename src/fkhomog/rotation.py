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

The bracket certifies the rotation number of the explicit Euler map at the
table's step, dt = cfl_dt(model, 0.5) by default (safety 0.5), not that of
the ODE.  The step bias is far larger than the half-width: for the classical
one-type model at 1/1.1 of the critical mass, L = 2, tol 2e-4, the p = 1
entry is 1.76072 with half-width 1.7e-4, against 1.75562 for the ODE (RK4
and DOP853 agree), a bias of +5.1e-3, about 30 times the half-width.

Every estimate carries the run of 2T its bracket was read from, which a
hull continues with :func:`fkhomog.chain.extend` instead of marching again.
Tables march through :func:`fkhomog.chain._advance`.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import (ForceModel, ConstantsLedger, constants_ledger,
                    require_monotone, with_extra_drive)
from .chain import (TrajectoryLog, cfl_dt, init_linear, NumericalError,
                    _advance, _clock, _start_log)


class LogTooShort(ValueError):
    pass


#: the first doubling window holds at least this many samples (one per Euler
#: step) and at least one time unit
FIRST_WINDOW_SAMPLES = 64.0


def lambda_pm(log: TrajectoryLog, T: float) -> tuple[float, float]:
    """Window rates (lambda_minus, lambda_plus) over all tracked U and Xi
    series; T snaps to the sample grid."""
    series, h = log.tracked, log.sample_dt
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
    reported sampling slack.  history holds one row per doubling stage, and
    log is the run of 2T that the bracket was read from (no snapshots),
    ready for :func:`fkhomog.chain.extend`.
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
    log: Optional[TrajectoryLog] = field(default=None, compare=False, repr=False)

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
    the estimate then carries the bracket, the certified half-width C2/T, a
    converged flag and the run of 2T (``log``).  This is the one-pair case of
    the table solver behind :func:`sweep`.
    """
    require_monotone(model)
    (_, est), = _solve_table(model, [(L_extra, p)], tol, T_cap, cells=cells,
                             safety=safety, perturbation=perturbation)
    if isinstance(est, NumericalError):
        raise est
    return est


def _solve_table(model: ForceModel, pairs, tol: float, T_cap: float, *,
                 cells: int = 1, safety: float = 0.5, perturbation=None):
    """Rotation numbers of the families (L + F_j) at slope p for every (L, p)
    in pairs, on the clock and doubling schedule of :func:`rotation_number`:
    a generator of (index into pairs, RotationEstimate or NumericalError),
    one per pair, each yielded when its row retires.

    Row r is a log of its ring under ``with_extra_drive(model, L)``.  Each
    stage marches the live rows' logs on to sample 2K (window K) through
    :func:`fkhomog.chain._advance`, counted as one run counts them, and a
    row retires on its error, on its bracket test or at T_cap, so every
    estimate is bitwise that of a one-pair table.  Its log, the run of 2T,
    is the only copy made of a row's series.  T_cap must be finite, or a
    row that misses tol would never stop.
    """
    if not math.isfinite(T_cap):
        raise ValueError(f"T_cap must be finite, got {T_cap}")
    pairs = [(float(L), Fraction(p)) for L, p in pairs]
    driven = [with_extra_drive(model, L) for L, _ in pairs]
    ledgers = [constants_ledger(m, p=float(p))
               for m, (_, p) in zip(driven, pairs)]
    # one sample per Euler step
    sample_dt = cfl_dt(model, safety=safety, check=False)
    clock = _clock(model, sample_dt, sample_dt)
    # windows are integer multiples of the sample spacing so that the T and 2T
    # sups run over aligned grids (exact bracket nesting)
    K = max(1, math.ceil(max(1.0, FIRST_WINDOW_SAMPLES * sample_dt) / sample_dt))
    T = K * sample_dt

    chains = {p: init_linear(model, p, cells=cells, perturbation=perturbation)
              for p in sorted({p for _, p in pairs})}
    # each live row's log, from its ring at tau = 0
    logs = {r: _start_log(replace(chains[p], model=driven[r]), clock)
            for r, (_, p) in enumerate(pairs)}
    # running max |sample increment| per row: the sampling slack is
    # max velocity * sample_dt / T over the whole log so far
    vmax = dict.fromkeys(logs, 0.0)
    histories = {r: [] for r in logs}
    last = 0                       # the live logs' last sample
    while logs:
        rows = list(logs)
        marched, errors = _advance(list(logs.values()), 2 * K - last, clock)
        for b, exc in errors.items():
            yield rows[b], exc
        logs = {}
        for r, log in zip(rows, marched):
            if log is None:
                continue
            vmax[r] = max(vmax[r], np.abs(np.diff(log.tracked[:, last:], axis=1)).max())
            lam_lo, lam_hi = lambda_pm(log, T)
            width = lam_hi - lam_lo
            certified = ledgers[r].C2 / T
            slack = float(vmax[r] / sample_dt) * sample_dt / T
            histories[r].append({"T": T, "lambda_minus": lam_lo,
                                 "lambda_plus": lam_hi,
                                 "certified_halfwidth": certified,
                                 "slack": slack})
            converged = min(width, certified) <= 2.0 * tol
            if converged or 2.0 * T > T_cap:
                yield r, RotationEstimate(
                    lambda_minus=lam_lo, lambda_plus=lam_hi,
                    lambda_hat=0.5 * (lam_lo + lam_hi), T=T,
                    certified_halfwidth=certified, empirical_width=width,
                    slack=slack, converged=converged, ledger=ledgers[r],
                    p=pairs[r][1], history=tuple(histories[r]),
                    log=replace(log, sample_times=log.sample_times.copy(),
                                tracked=log.tracked.copy()))
            else:
                logs[r] = log
        last, T, K = 2 * K, 2.0 * T, 2 * K


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
        """Monotonicity-in-L and continuity-in-p summaries."""
        diag = {}
        if self.L_grid.size >= 2:
            jumps = self.lam[:-1, :] - self.lam[1:, :]   # positive = downward in L
            with np.errstate(invalid="ignore"):
                diag["max_downward_jump_in_L"] = float(np.nanmax(np.maximum(jumps, 0.0))) \
                    if np.isfinite(jumps).any() else float("nan")
        if len(self.p_grid) >= 2:
            dp = np.diff([float(p) for p in self.p_grid])
            dl = np.abs(np.diff(self.lam, axis=1))
            with np.errstate(invalid="ignore"):
                diag["max_p_increment"] = float(np.nanmax(dl)) if np.isfinite(dl).any() else float("nan")
                diag["min_p_spacing"] = float(dp.min())
        return diag

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


def sweep(model: ForceModel, p_grid, L_grid, tol: float = 1e-3,
          T_cap: float = 2000.0, **kw) -> EffectiveTable:
    """Fill the (L, p) table on the distinct grid values, in ascending order.

    The whole table is one ensemble: every (L, p) entry is a row of the
    table solver, all rows step together and each retires on its own bracket
    test.  Entries equal those of per-entry :func:`rotation_number` calls bit
    for bit; an entry that blows up becomes NaN and is listed in
    ``failures``, the other rows run on.
    """
    p_grid = sorted({Fraction(p) for p in p_grid})
    L_grid = np.array(sorted({float(L) for L in L_grid}))
    if not p_grid or L_grid.size == 0:
        raise ValueError("p_grid and L_grid must be nonempty")
    require_monotone(model)
    grid = [(L, p) for L in L_grid.tolist() for p in p_grid]
    # keep each entry's numbers (or its error) as its row retires, not its run
    entries = [None] * len(grid)
    for i, est in _solve_table(model, grid, tol, T_cap, **kw):
        entries[i] = est if isinstance(est, NumericalError) else (
            est.lambda_hat, est.halfwidth_best, est.converged,
            {"C2": est.ledger.C2, "C4": est.ledger.C4, "K1": est.ledger.K1,
             "T": est.T})

    pairs, failures = [], []
    for (L, p), entry in zip(grid, entries):
        if isinstance(entry, NumericalError):
            failures.append({"L": L, "p": str(p), "error": str(entry)})
            entry = (np.nan, np.nan, False, {})
        pairs.append(((L, p), entry))
    return EffectiveTable._from_entries(pairs, failures)


def monotone_in_L_violation(table: EffectiveTable) -> float:
    """Worst downward step of L -> lambda beyond the summed half-widths over
    every p column (negative or zero means monotone within certification)."""
    worst = -math.inf
    for j in range(len(table.p_grid)):
        lam = table.lam[:, j]
        hwc = table.halfwidths[:, j]
        for i in range(lam.size - 1):
            if np.isnan(lam[i]) or np.isnan(lam[i + 1]):
                continue
            worst = max(worst, (lam[i] - lam[i + 1]) - (hwc[i] + hwc[i + 1]))
    return worst


def depinning_threshold(table: EffectiveTable, p, tol: float = 1e-6) -> tuple[float, float]:
    """Bracket the drive where the p-column leaves lambda = 0, from the table
    alone (measured, not asserted).  Only finite entries bracket: the upper
    end is the first drive whose lambda exceeds tol (inf if none), the lower
    end the largest drive below it with a finite entry (-inf if none), so a
    failed (NaN) entry is never read as pinned."""
    j = table.p_grid.index(Fraction(p))
    lam = table.lam[:, j]
    moving = np.flatnonzero(np.isfinite(lam) & (lam > tol))
    k = int(moving[0]) if moving.size else lam.size
    hi = float(table.L_grid[k]) if moving.size else math.inf
    pinned = np.flatnonzero(np.isfinite(lam[:k]))
    return (float(table.L_grid[pinned[-1]]) if pinned.size else -math.inf), hi


def table_to_json(table: EffectiveTable) -> str:
    return json.dumps(table.to_json_dict(), indent=2, sort_keys=True)
