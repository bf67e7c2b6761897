"""The three benchmark workloads.

Each workload builds its inputs once (:meth:`build`), runs one round of the
computation it is named for (:meth:`round`, the timed part), computes its
independent reference once (:meth:`reference`), checks a round's outputs
(:meth:`check`) and reads the quality metrics off them (:meth:`quality`).
fkhomog is imported inside the methods, once ``run.py`` has put this
checkout's ``src/`` first on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from fractions import Fraction

import numpy as np

import checks
from spans import EPS_LEVELS

TWO_PI = 2.0 * math.pi


def classical_alpha_min(theta, amplitude):
    """Smallest alpha0 for which the classical family is monotone (A3)."""
    n = len(theta)
    return max(2 * (theta[j] + theta[(j + 1) % n]) + 4 * math.pi * amplitude
               for j in range(n))


class DepinningSweep:
    """F(L, 1) for the one-type classical chain over the depinning range."""

    name = "depinning_sweep"
    modules = ("fkhomog",)
    L_GRID = [0.25 * k for k in range(13)]
    MARGIN = 1.15
    TOL, T_CAP, CELLS = 2e-3, 800.0, 2
    REF_HORIZON = 2000.0

    def build(self, seed, scratch):
        import fkhomog as fk
        alpha = classical_alpha_min([1.0], 1.0) * self.MARGIN
        return {"model": fk.build_classical_fk([1.0], amplitude=1.0,
                                               m0=1.0 / (2.0 * alpha))}

    def round(self, inp):
        import fkhomog as fk
        table = fk.sweep(inp["model"], [Fraction(1)], self.L_GRID, tol=self.TOL,
                         T_cap=self.T_CAP, cells=self.CELLS)
        return {"lam": table.lam[:, 0], "hw": table.halfwidths[:, 0],
                "converged": table.converged[:, 0]}

    def reference(self, inp):
        a0 = inp["model"].alpha0
        return checks.scalar_rotation(a0, 0.5 / a0, 1.0, self.L_GRID, self.REF_HORIZON)

    def check(self, out, ref):
        ref_lam, ref_hw = ref
        return (checks.entries_converged(out["converged"])
                + checks.monotone_in_L(out["lam"], out["hw"])
                + checks.matches_reference(out["lam"], out["hw"], ref_lam, ref_hw))

    def quality(self, out, ref):
        return {"max_halfwidth": float(np.max(out["hw"])),
                "homog_error": float(np.max(np.abs(out["lam"] - ref[0])))}


class EpsPipeline:
    """``fkhomog pipeline`` through cli.main, cold then warm, on one out dir."""

    name = "eps_pipeline"
    modules = ("fkhomog", "fkhomog.cli")
    L = 2.0
    MARGIN = 1.1
    P_GRID = [[4, 5], [9, 10], [1, 1], [9, 8], [5, 4]]
    WINDOW = (-5.0, 5.0)
    RIPPLE = 0.18
    FILES = ("effective_table.csv", "convergence.json", "macro.csv")
    REF_HORIZON = 2000.0

    def build(self, seed, scratch):
        from fkhomog.macro import Profile
        width = self.WINDOW[1] - self.WINDOW[0]
        u0 = Profile.from_callable(
            lambda x: x + self.RIPPLE * (width / TWO_PI) * math.sin(TWO_PI * x / width),
            self.WINDOW[0], self.WINDOW[1], 513)
        scratch.mkdir(parents=True, exist_ok=True)
        u0_file = scratch / "u0.csv"
        u0_file.write_text(u0.to_csv())
        m0 = 1.0 / (2.0 * classical_alpha_min([1.0], 1.0) * self.MARGIN)
        cfg = {
            "model": {"m0": m0, "force": {"kind": "classical_fk", "theta": [1.0],
                                          "amplitude": 1.0, "drive": 0.0}},
            "effham": {"p_grid": self.P_GRID, "L_grid": [self.L], "tol": 2e-3},
            "homogenize": {"u0_file": str(u0_file), "T": 1.0, "dx": 0.0125,
                           "L": self.L},
            "converge": {"u0_file": str(u0_file), "eps_list": list(EPS_LEVELS),
                         "T": 1.0, "window": list(self.WINDOW), "L": self.L},
            "seed": seed,
        }
        cfg_file = scratch / "config.json"
        cfg_file.write_text(json.dumps(cfg, indent=2))
        return {"config": cfg_file, "out": scratch / "out", "m0": m0,
                "slopes": (float(u0.slopes().min()), float(u0.slopes().max()))}

    def _main(self, inp):
        from fkhomog import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(["pipeline", "--config", str(inp["config"]),
                           "--out", str(inp["out"]), "--threads", "1"])
        return rc, buf.getvalue()

    def round(self, inp):
        out_dir = inp["out"]
        shutil.rmtree(out_dir, ignore_errors=True)
        rc_cold, _ = self._main(inp)
        cold = {f: (out_dir / f).read_bytes() for f in self.FILES}
        for f in self.FILES:
            (out_dir / f).unlink()
        rc_warm, warm_log = self._main(inp)
        warm = {f: (out_dir / f).read_bytes() for f in self.FILES
                if (out_dir / f).exists()}
        out_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        return {"rc": (rc_cold, rc_warm), "warm_log": warm_log, "cold": cold,
                "warm": warm, "out_bytes": out_bytes}

    def reference(self, inp):
        a0 = 1.0 / (2.0 * inp["m0"])
        lam, hw = checks.scalar_rotation(a0, 0.5 / a0, 1.0, [self.L], self.REF_HORIZON)
        return {"lam": lam, "hw": hw, "slopes": inp["slopes"]}

    def _parse(self, out):
        conv = json.loads(out["cold"]["convergence.json"])
        rows = [ln.split(",") for ln in
                out["cold"]["effective_table.csv"].decode().splitlines()[1:]]
        node = next(r for r in rows if r[1] == "1/1")
        macro = np.array([[float(v) for v in ln.split(",")] for ln in
                          out["cold"]["macro.csv"].decode().splitlines()[1:]])
        return conv, rows, node, macro

    def check(self, out, ref):
        conv, rows, node, macro = self._parse(out)
        ops = checks.cli_runs(*out["rc"])
        ops += checks.entries_converged([int(r[4]) for r in rows])
        ops += [(f"eps level {e:g} error finite", math.isfinite(err), f"{err}")
                for e, err in zip(conv["eps"], conv["error"])]
        ops += checks.errors_decrease(conv["error"])
        ops += checks.matches_reference([float(node[2])], [float(node[3])],
                                        ref["lam"], ref["hw"], label="p=1 node")
        for t in np.unique(macro[:, 0]):
            rec = macro[macro[:, 0] == t]
            ops += checks.slopes_in_range(rec[:, 1], rec[:, 2], *ref["slopes"])
        ops += checks.warm_call_cached(out["warm_log"], ("effham", "converge"),
                                       out["cold"], out["warm"])
        return ops

    def quality(self, out, ref):
        conv, rows, _, _ = self._parse(out)
        return {"max_halfwidth": max(float(r[3]) for r in rows),
                "homog_error": float(conv["error"][-1])}


class TwoTypeTabulated:
    """The general case: a user-supplied batch force, n = 2, m = 2,
    tau-periodic drive; a 2x2 table, then a hull at (p, L) = (3/2, 2)."""

    name = "twotype_tabulated"
    modules = ("fkhomog",)
    THETA = np.array([1.0, 0.6])
    KAPPA, A, B, M0 = 0.2, 0.8, 0.3, 0.03
    P_GRID = [Fraction(1), Fraction(3, 2)]
    L_GRID = [1.0, 2.0]
    TOL, T_CAP = 2e-3, 800.0
    HULL_P, HULL_L, Z, N_TAU = Fraction(3, 2), 2.0, 32, 8
    SNAPSHOT_SPAN = 40.0

    def force(self, j, tau, w):
        """F_j = theta_{j+1}(w1 - w0) - theta_j(w0 - w-1) + kappa(w2 - w0)
        - kappa(w0 - w-2) + A sin 2pi w0 + B sin 2pi tau, j 1-based."""
        w = np.asarray(w, dtype=float)
        j = np.asarray(j)
        th_self = self.THETA[(j - 1) % 2]
        th_next = self.THETA[j % 2]
        c = w[..., 2]
        return (th_next * (w[..., 3] - c) - th_self * (c - w[..., 1])
                + self.KAPPA * (w[..., 4] - c) - self.KAPPA * (c - w[..., 0])
                + self.A * np.sin(TWO_PI * c) + self.B * np.sin(TWO_PI * tau))

    def build(self, seed, scratch):
        import fkhomog as fk
        # sup-norm Lipschitz constant: per-slot |dF/dw| summed over the window
        lip = 2.0 * (self.THETA.sum() + 2.0 * self.KAPPA) + TWO_PI * self.A
        return {"model": fk.build_tabulated(self.force, n=2, m=2, m0=self.M0,
                                            lip_V=lip, f_at_zero_sup=self.B,
                                            batch=True)}

    def round(self, inp):
        import fkhomog as fk
        from fkhomog.hull import extract_hull_periodic
        model = inp["model"]
        report = fk.check_assumptions(model)
        table = fk.sweep(model, self.P_GRID, self.L_GRID, tol=self.TOL,
                         T_cap=self.T_CAP)
        i = self.L_GRID.index(self.HULL_L)
        j = self.P_GRID.index(self.HULL_P)
        lam = float(table.lam[i, j])
        T = table.ledger_refs[i * len(self.P_GRID) + j]["T"]
        driven = fk.with_extra_drive(model, self.HULL_L)
        dt = fk.cfl_dt(driven, 0.5, check=False)
        chain = fk.init_linear(driven, self.HULL_P, cells=1)
        # (A1)-(A5) were checked at the top of the round
        log = fk.run(chain, 10.0 / driven.alpha0 + T, dt, dt=dt, check=False)
        log = fk.extend(log, self.SNAPSHOT_SPAN, snapshot_stride=1)
        hull = extract_hull_periodic(log, lam, self.HULL_P, Z=self.Z, n_tau=self.N_TAU)
        return {"core_holds": report.core_holds, "lam": table.lam,
                "hw": table.halfwidths, "converged": table.converged,
                "hull_lam": lam, "hull_hw": float(table.halfwidths[i, j]),
                "snap_tau": np.array([s[0] for s in log.snapshots]),
                "snap_U": np.array([s[1] for s in log.snapshots]), "h": hull.h}

    def reference(self, inp):
        return None

    def _balance(self, out):
        return checks.force_balance(out["snap_tau"], out["snap_U"], self.HULL_L,
                                    self.A, self.B)

    def check(self, out, ref):
        ops = [("check_assumptions core_holds", bool(out["core_holds"]), "")]
        ops += checks.entries_converged(out["converged"])
        for j, p in enumerate(self.P_GRID):
            ops += checks.monotone_in_L(out["lam"][:, j], out["hw"][:, j],
                                        label=f"p={p} column")
        ops += checks.drive_bound(out["lam"], self.L_GRID, self.A + self.B)
        ops += checks.balances_force(out["hull_lam"], out["hull_hw"], *self._balance(out))
        ops += checks.hull_shape(out["h"], float(self.HULL_P))
        return ops

    def quality(self, out, ref):
        fb, _ = self._balance(out)
        return {"max_halfwidth": float(np.max(out["hw"])),
                "homog_error": abs(out["hull_lam"] - fb)}


WORKLOADS = {w.name: w for w in (DepinningSweep(), EpsPipeline(), TwoTypeTabulated())}
