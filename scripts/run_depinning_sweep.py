#!/usr/bin/env python3
"""Sweep the drive L for a classical FK chain and locate the depinning
transition from the effective Hamiltonian table.

Writes depinning_table.csv (L,p,lambda,halfwidth,converged) into --out and
prints the measured threshold bracket.
"""

import argparse
import math
from fractions import Fraction
from pathlib import Path

import fkhomog as fk
from fkhomog.rotation import depinning_threshold, monotone_in_L_violation


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, nargs="+", default=[1.0])
    ap.add_argument("--amplitude", type=float, default=1.0)
    ap.add_argument("--p", type=str, default="1/1", help="slope as q/r")
    ap.add_argument("--L-max", type=float, default=3.0)
    ap.add_argument("--L-step", type=float, default=0.25)
    ap.add_argument("--tol", type=float, default=2e-3)
    ap.add_argument("--margin", type=float, default=1.15,
                    help="mass margin below the monotonicity threshold")
    ap.add_argument("--out", type=Path, default=Path("out"))
    args = ap.parse_args()

    n = len(args.theta)
    alpha_min = max(2 * (args.theta[j] + args.theta[(j + 1) % n])
                    + 4 * math.pi * args.amplitude for j in range(n))
    model = fk.build_classical_fk(args.theta, amplitude=args.amplitude,
                                  m0=1.0 / (2.0 * alpha_min * args.margin))
    p = Fraction(args.p)
    L_grid = [k * args.L_step for k in range(int(args.L_max / args.L_step) + 1)]

    print(f"model: n={model.n} alpha0={model.alpha0:.4f} "
          f"(critical mass {fk.check_assumptions(model).critical_mass:.5f})")
    table = fk.sweep(model, [p], L_grid, tol=args.tol)

    args.out.mkdir(parents=True, exist_ok=True)
    out_csv = args.out / "depinning_table.csv"
    out_csv.write_text(table.to_csv())
    print(f"wrote {out_csv}")

    lo, hi = depinning_threshold(table, p, tol=5 * args.tol)
    print(f"depinning threshold for p={p}: bracketed in ({lo:.3g}, {hi:.3g}]")
    print(f"monotonicity-in-L violation beyond half-widths: "
          f"{monotone_in_L_violation(table):.3g}")


if __name__ == "__main__":
    main()
