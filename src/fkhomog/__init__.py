"""Numerical homogenization of damped Frenkel-Kontorova chains.

Pipeline: define a force family (:mod:`fkhomog.model`), simulate the monotone
microscopic chain (:mod:`fkhomog.chain`), certify rotation numbers and
tabulate the effective Hamiltonian (:mod:`fkhomog.rotation`), extract hull
functions (:mod:`fkhomog.hull`), and solve the homogenized Hamilton-Jacobi
equation against the rescaled chain (:mod:`fkhomog.macro`).
"""

from .model import (AssumptionReport, ConstantsLedger, ForceModel,
                    build_classical_fk, build_constant_force, build_tabulated,
                    check_assumptions, constants_ledger, eval_force,
                    ledger_identity_exact, model_from_config, with_extra_drive)
from .chain import (InvariantReport, TrajectoryLog, TwistedChain, cfl_dt,
                    extend, init_linear, monitor_invariants, rk4_oracle, run,
                    step)
from .rotation import (EffectiveTable, RotationEstimate, lambda_pm,
                       rotation_number, sweep)
from .hull import (HullFunction, extract_hull, extract_hull_periodic,
                   hull_residual, hull_value, isotonic_fit,
                   reconstruct_traveling_wave, verify_hull_axioms)
from .macro import (ConvergenceReport, Field, HamiltonianInterp, Profile,
                    check_A0, convergence_study, gradient_sandwich_probe,
                    rescale_micro, solve_hj)

__version__ = "0.1.0"
