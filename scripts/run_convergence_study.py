#!/usr/bin/env python3
"""End-to-end homogenization check: tabulate the effective Hamiltonian for a
driven classical FK chain, solve the macroscopic equation, and measure the
sup distance to the rescaled microscopic field as eps shrinks.

Writes convergence.json and the effective table into --out.
"""

import argparse
import math
from fractions import Fraction
from pathlib import Path

import fkhomog as fk
from fkhomog.macro import HamiltonianInterp, Profile


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--drive", type=float, default=2.0)
    ap.add_argument("--eps0", type=float, default=0.1)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--slope-ripple", type=float, default=0.18)
    ap.add_argument("--tol", type=float, default=1e-3)
    ap.add_argument("--out", type=Path, default=Path("out"))
    args = ap.parse_args()

    alpha_min = 4.0 + 4.0 * math.pi
    model = fk.build_classical_fk([1.0], amplitude=1.0,
                                  m0=1.0 / (2.0 * alpha_min * 1.1))
    span = (-5.0, 5.0)
    width = span[1] - span[0]
    amp = args.slope_ripple

    u0 = Profile.from_callable(
        lambda x: x + amp * math.sin(2 * math.pi * x / width) * width / (2 * math.pi),
        span[0], span[1], 513)

    p_grid = [Fraction(4, 5), Fraction(9, 10), Fraction(1), Fraction(9, 8),
              Fraction(5, 4)]
    print(f"tabulating effective Hamiltonian at L={args.drive} over {len(p_grid)} slopes")
    table = fk.sweep(model, p_grid, [args.drive], tol=args.tol)
    H = HamiltonianInterp.from_table(table, args.drive)
    print(f"  lambda(p): {[f'{v:.4f}' for v in table.lam[0]]}, lip ~ {H.lip_est:.3f}")

    eps_list = [args.eps0 * 2.0 ** (-k) for k in range(args.levels)]
    rep = fk.convergence_study(model, args.drive, u0, eps_list, args.T, span, H)

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "effective_table.csv").write_text(table.to_csv())
    (args.out / "convergence.json").write_text(rep.to_json())
    print(f"wrote {args.out / 'convergence.json'}")
    for eps, err in zip(rep.eps_list, rep.errors):
        print(f"  eps = {eps:<8.4g} sup error = {err:.5f}")
    print(f"  measured rates: {[f'{r:.2f}' for r in rep.rates]} "
          f"(scheme floor {rep.scheme_floor:.2g})")


if __name__ == "__main__":
    main()
