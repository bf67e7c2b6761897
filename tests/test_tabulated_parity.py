"""Tabulated marches write the same bytes as before their planned step.

The README parity test pins classical outputs only.  Here the sha256 of the
bytes of a tabulated table, runs and snapshots is compared with digests
recorded before tabulated marches gathered their windows window-last into
a per-call array with one combined shift (``chain._flat_gather``): a
two-type, m = 2, tau-periodic batch force marched as a ``sweep`` and as a
``run`` continued by ``extend`` with snapshots, a per-window force and the
constant force.  A change that is meant to alter outputs re-records them
from the failing assertion (``pytest -vv`` prints every digest).
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import fkhomog as fk

_THETA = np.array([1.0, 0.6])


def _two_type_force(j, tau, w):
    """n = 2, m = 2: springs, next-nearest springs, a pinning sine and a
    tau-periodic drive; j an int or an array of ints."""
    w = np.asarray(w, dtype=float)
    j = np.asarray(j)
    c = w[..., 2]
    return (_THETA[j % 2] * (w[..., 3] - c) - _THETA[(j - 1) % 2] * (c - w[..., 1])
            + 0.2 * (w[..., 4] - c) - 0.2 * (c - w[..., 0])
            + 0.8 * np.sin(2 * math.pi * c) + 0.3 * np.sin(2 * math.pi * tau))


def _model(batch=True):
    lip = 2.0 * (_THETA.sum() + 0.4) + 2 * math.pi * 0.8
    return fk.build_tabulated(_two_type_force, n=2, m=2, m0=0.03, lip_V=lip,
                              f_at_zero_sup=0.3, batch=batch)


def _log_parts(log):
    snaps = [np.array([tau]) for tau, _, _ in log.snapshots]
    snaps += [a for _, U, Xi in log.snapshots for a in (U, Xi)]
    return {"times": [log.sample_times], "tracked": [log.tracked],
            "final": [log.final_state.U, log.final_state.Xi,
                      np.array([log.final_state.tau])],
            "snapshots": snaps}


def _sweep():
    table = fk.sweep(_model(), [Fraction(1), Fraction(3, 2)], [0.0, 2.0],
                     tol=2e-3, T_cap=200.0)
    return {"lam": [table.lam], "halfwidths": [table.halfwidths]}


def _run_extend():
    driven = fk.with_extra_drive(_model(), 1.0)
    N = 6
    chain = fk.init_linear(driven, Fraction(3, 2), cells=N // 2,
                           perturbation=0.03 * np.sin(np.arange(2 * N)))
    h = fk.cfl_dt(driven, 0.5, check=False)
    # 2.5 h per sample: three Euler steps each
    log = fk.run(chain, 150 * h, 2.5 * h, dt=h, snapshot_stride=7, check=False)
    parts = {f"run.{k}": v for k, v in _log_parts(log).items()}
    ext = fk.extend(log, 90 * h, snapshot_stride=5)
    parts.update({f"extend.{k}": v for k, v in _log_parts(ext).items()})
    return parts


def _per_window():
    driven = fk.with_extra_drive(_model(batch=False), -0.4)
    h = fk.cfl_dt(driven, 0.5, check=False)
    log = fk.run(fk.init_linear(driven, Fraction(1), cells=3), 60 * h, 2 * h,
                 dt=h, snapshot_stride=4, check=False)
    return _log_parts(log)


def _constant():
    model = fk.build_constant_force(0.7, n=2, m=1, m0=0.05)
    h = fk.cfl_dt(model, 0.5, check=False)
    log = fk.run(fk.init_linear(model, Fraction(2, 3), cells=2), 80 * h, h,
                 dt=h, snapshot_stride=10, check=False)
    return _log_parts(log)


CASES = {"sweep": _sweep, "run_extend": _run_extend, "per_window": _per_window,
         "constant": _constant}

# case: {part: sha256 of the float64 bytes of its arrays, in order}
EXPECTED = {
    "constant": {
        "times": "551b27969d288cca2b1b50cea86a6da8664252dda230fde2ae9dd9fc340b11e7",
        "tracked": "f5e458d1dd42ff95aca26b27ad71695d14415635332d43f1a240a63818c2b774",
        "final": "3cbee772829ea2e3b629714783e9750b067c30971ef3a6ba8ec5cb9b6e29935c",
        "snapshots": "d09dba238da2effcb9ee92891b05b82f189f5f240962e55c63c3138f052fe633",
    },
    "per_window": {
        "times": "2a8d846feda2ffe2295b71f68afa7b46a1e18f65cce2219c30b0234f9ea46b5a",
        "tracked": "03a9361dd5dccf43aed2a9d44e028bd885a77d6023a5833e030c72e90b51dfa1",
        "final": "5406f9f4601977ebff2c782b5cdfb54e70464b6c2005daf5828c8e27174a6c5e",
        "snapshots": "e2b8e34474b2be9bc89ced3526e2ad833ba444adc7eeddc95d64172fe5e26365",
    },
    "run_extend": {
        "run.times": "7e9c902fce0cab782aa32541f40017ce5497703c1c1b362cffc6621a9f6e3450",
        "run.tracked": "70a3db6591b1c3d8baf709e50f35ace4f149721bce84ceb4fb4862572b667ca6",
        "run.final": "91c5a2de2a82a1de2e11455e7a372a7d81f4037375c6fc0762c4b2962eafaa1c",
        "run.snapshots": "073109fbbcb695d6e40d08437e35be308011a97d2b1d5a4875fa261825dde2dc",
        "extend.times": "605d5d6547406556811e096e42b05ace23cb87196e56982b419626bf6fae0078",
        "extend.tracked": "3327d79382de5467d343bcca393a430ca4db78a905f826f036ca521e27406d72",
        "extend.final": "a4583aa80662d845fec6a913ef2038241c7477e111833d2e2ba86d8616059933",
        "extend.snapshots": "99b5187034fafe03743046080239e90185fe35f6d48bd55951b570f7160ca0fe",
    },
    "sweep": {
        "lam": "fd9580eabfd1b8081915d533aa06e9b44e79e4434b4e19775df056d52b910093",
        "halfwidths": "26cdf259407d21f0e16c3950f9d0e9015b62d452ce0191f9d051aa76556c64e7",
    },
}


def _digests(parts):
    out = {}
    for name, arrays in parts.items():
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        out[name] = h.hexdigest()
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_tabulated_outputs_are_byte_identical(case):
    assert _digests(CASES[case]()) == EXPECTED[case]
