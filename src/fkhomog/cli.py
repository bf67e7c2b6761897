"""Command-line front end: deterministic, scriptable pipeline runs.

Subcommands cover the whole chain: ``check`` (structural assumptions),
``simulate`` (microscopic trajectories), ``effham`` (effective Hamiltonian
tables), ``hull`` (hull extraction), ``homogenize`` (macroscopic solve),
``converge`` (eps study) and ``pipeline`` (all stages with content-hash
caching).  Identical config + seed gives byte-identical outputs; --threads
is accepted and has no effect.  Exit codes, which only :func:`main` maps
from errors: 0 success, 2 validation, 3 numerical failure, 4 partial success.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from . import model as mdl
from . import chain as chn
from . import rotation as rot
from . import hull as hl
from . import macro as mac

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4

CACHE_VERSION = 1

_RATIONAL = {
    "type": "array", "items": {"type": "integer"},
    "minItems": 2, "maxItems": 2,
    "description": "exact rational as [numerator, denominator]",
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["model"],
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "required": ["force"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "m": {"type": "integer", "minimum": 0},
                "m0": {"type": "number", "exclusiveMinimum": 0},
                "alpha0": {"type": "number", "exclusiveMinimum": 0},
                "force": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["classical_fk", "constant"]},
                        "theta": {"type": "array", "minItems": 1,
                                  "items": {"type": "number", "exclusiveMinimum": 0}},
                        "amplitude": {"type": "number", "minimum": 0},
                        "drive": {"type": "number"},
                        "value": {"type": "number"},
                    },
                },
            },
        },
        "simulate": {
            "type": "object",
            "required": ["p", "T", "sample_dt"],
            "additionalProperties": False,
            "properties": {
                "p": _RATIONAL,
                "cells": {"type": "integer", "minimum": 1},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "dt": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "sample_dt": {"type": "number", "exclusiveMinimum": 0},
                "delta": {"type": "number", "minimum": 0, "maximum": 1},
                "a0": {"type": "number"},
                "snapshot_stride": {"type": "integer", "minimum": 0},
                "perturbation_scale": {"type": "number", "minimum": 0},
            },
        },
        "effham": {
            "type": "object",
            "required": ["p_grid", "L_grid"],
            "additionalProperties": False,
            "properties": {
                "p_grid": {"type": "array", "minItems": 1, "items": _RATIONAL},
                "L_grid": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "T_cap": {"type": "number", "exclusiveMinimum": 0},
                "cells": {"type": "integer", "minimum": 1},
            },
        },
        "hull": {
            "type": "object",
            "required": ["p"],
            "additionalProperties": False,
            "properties": {
                "p": _RATIONAL,
                "L": {"type": "number"},
                "Z": {"type": "integer", "minimum": 4},
                "snapshots": {"type": "integer", "minimum": 8},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "T_cap": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "homogenize": {
            "type": "object",
            "required": ["u0_file", "T", "dx", "L"],
            "additionalProperties": False,
            "properties": {
                "u0_file": {"type": "string"},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "dx": {"type": "number", "exclusiveMinimum": 0},
                "L": {"type": "number"},
                "table_file": {"type": "string"},
                "record_times": {"type": "array", "items": {"type": "number"}},
            },
        },
        "converge": {
            "type": "object",
            "required": ["u0_file", "eps_list", "T", "window", "L"],
            "additionalProperties": False,
            "properties": {
                "u0_file": {"type": "string"},
                "xi0_file": {"type": "string"},
                "M0": {"type": "number", "minimum": 0},
                "eps_list": {"type": "array", "minItems": 1,
                             "items": {"type": "number", "exclusiveMinimum": 0}},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "window": {"type": "array", "items": {"type": "number"},
                           "minItems": 2, "maxItems": 2},
                "L": {"type": "number"},
                "table_file": {"type": "string"},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
    },
}


# the force keys of one kind that the other kind does not read; drive
# drives either kind
_FOREIGN_FORCE_KEYS = {"classical_fk": ("value",),
                       "constant": ("theta", "amplitude")}


class ConfigError(ValueError):
    pass


def _finite(parse):
    """A json number hook: parse(literal), refusing NaN, +-Infinity and
    literals that overflow a float (1e999, huge integers), which pass every
    schema bound."""
    def hook(literal: str):
        # float reads an overflowing literal, integer or not, as +-inf
        if not math.isfinite(float(literal)):
            raise ValueError(f"{literal} is not a finite number")
        return parse(literal)
    return hook


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f, parse_float=_finite(float), parse_int=_finite(int),
                            parse_constant=_finite(float))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    errors = sorted(Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg),
                    key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = "config." + ".".join(str(p) for p in e.absolute_path) \
            if e.absolute_path else "config"
        raise ConfigError(f"{where}: {e.message}")
    # cross-field checks the schema cannot express
    force = cfg["model"]["force"]
    if force["kind"] == "classical_fk" and "theta" not in force:
        raise ConfigError("config.model.force.theta: required for classical_fk")
    for key in _FOREIGN_FORCE_KEYS[force["kind"]]:
        if key in force:
            raise ConfigError(f"config.model.force.{key}: not a key of "
                              f"force kind {force['kind']!r}")
    if "m0" not in cfg["model"] and "alpha0" not in cfg["model"]:
        raise ConfigError("config.model: m0 or alpha0 is required")
    for key in ("simulate", "hull", "effham"):
        blk = cfg.get(key)
        if not blk:
            continue
        ps = blk.get("p_grid") or ([blk["p"]] if "p" in blk else [])
        for p in ps:
            if p[1] == 0 or Fraction(p[0], p[1]) <= 0:
                raise ConfigError(f"config.{key}: slope p must be a positive rational")
    eff = cfg.get("effham")
    if eff:
        # a repeated node is a config mistake that sweep would hide by
        # tabulating the value once
        for name, value in (("p_grid", _frac), ("L_grid", float)):
            seen = set()
            for v in map(value, eff[name]):
                if v in seen:
                    raise ConfigError(f"config.effham.{name}: repeated value {v}")
                seen.add(v)
    conv = cfg.get("converge")
    if conv:
        eps = conv["eps_list"]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("config.converge.eps_list: must be strictly decreasing")
        if conv["window"][1] <= conv["window"][0]:
            raise ConfigError("config.converge.window: must have positive width")


def _frac(pair) -> Fraction:
    return Fraction(pair[0], pair[1])


def _block(cfg: dict, key: str) -> dict:
    """The config block a command needs; ConfigError if it is absent."""
    blk = cfg.get(key)
    if not blk:
        raise ConfigError(f"config.{key}: block required")
    return blk


# ---------------------------------------------------------------------------
# Content-hash cache
# ---------------------------------------------------------------------------

class Cache:
    """Stage outputs under content-hash keys; every lookup prints one
    ``[cache] hit|miss <stage> <key>`` line."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def key(self, stage: str, payload: dict) -> str:
        blob = json.dumps({"v": CACHE_VERSION, "version": __version__, "stage": stage,
                           "payload": payload}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def path(self, stage: str, key: str) -> Path:
        return self.root / f"{stage}-{key}.txt"

    def get_text(self, stage: str, payload: dict) -> tuple[str, str | None]:
        k = self.key(stage, payload)
        p = self.path(stage, k)
        if p.exists():
            print(f"[cache] hit {stage} {k}")
            try:
                return k, p.read_text()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"cache file {p} is corrupt: {exc}")
        print(f"[cache] miss {stage} {k}")
        return k, None

    def put_text(self, stage: str, key: str, text: str):
        # write beside the target, then rename: a run cut short leaves no
        # partial file under a name that later hits
        path = self.path(stage, key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)


def _get_or_compute(cache: Cache | None, stage: str, payload: dict, compute, parse):
    """(value, text) of a stage: parse(text) on a cache hit, else compute()
    with the text stored.  A hit that does not parse exits 2 naming the file."""
    if cache is None:
        return compute()
    key, text = cache.get_text(stage, payload)
    if text is None:
        value, text = compute()
        cache.put_text(stage, key, text)
        return value, text
    try:
        return parse(text), text
    except ValueError as exc:
        raise ConfigError(f"cache file {cache.path(stage, key)} is corrupt: {exc}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _out_dir(cfg: dict, args, *blocks) -> Path:
    """The output directory, created once the config blocks the command
    reads (:func:`_block`) are known to be there."""
    for key in blocks:
        _block(cfg, key)
    out = Path(args.out or cfg.get("out_dir", "out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out}: cannot create it: {exc}")
    return out


def cmd_check(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    model = mdl.model_from_config(cfg["model"])
    report = mdl.check_assumptions(model)
    (out / "assumptions.json").write_text(mdl.report_to_json(report))
    for key in ("a1", "a2", "a3", "a4", "a5", "a6"):
        c = getattr(report, key)
        print(f"{key}: holds={c.holds} margin={c.margin:.6g}")
    print(f"critical_mass: {report.critical_mass:.6g} (model m0 = {model.m0:.6g})")
    if not report.a6.holds:
        print("advisory: a6 (ordering between types) fails; "
              "particle-ordering results are not certified")
    return EXIT_OK if report.core_holds else EXIT_VALIDATION


def cmd_simulate(cfg: dict, args) -> int:
    out = _out_dir(cfg, args, "simulate")
    blk = _block(cfg, "simulate")
    model = mdl.model_from_config(cfg["model"])
    p = _frac(blk["p"])
    cells = blk.get("cells", 1)
    pert = None
    scale = blk.get("perturbation_scale", 0.0)
    if scale > 0:
        rng = np.random.default_rng(cfg.get("seed", 0))
        n_part = model.n * p.denominator * cells
        spacing = float(p) / model.n
        pert = rng.uniform(-1.0, 1.0, n_part) * min(scale, 0.45 * spacing)
    chain = chn.init_linear(model, p, cells=cells, perturbation=pert)
    delta, a0 = blk.get("delta", 0.0), blk.get("a0", 0.0)
    log = chn.run(chain, blk["T"], blk["sample_dt"], dt=blk.get("dt"),
                  delta=delta, a0=a0, snapshot_stride=blk.get("snapshot_stride", 0))
    # the a-priori bounds of the dynamics that ran, delta term included
    ledger = mdl.constants_ledger(model, p=float(p), delta=delta, a0=a0)
    inv = chn.monitor_invariants(log, ledger)
    (out / "trajectory.csv").write_text(chn.trajectory_to_csv(log))
    (out / "final_snapshot.csv").write_text(chn.snapshot_to_csv(log.final_state))
    (out / "invariants.json").write_text(json.dumps(inv.to_json_dict(), indent=2,
                                                    sort_keys=True))
    print(f"simulated to tau = {log.final_state.tau:.6g}; "
          f"ordering violation {inv.ordering_violation:.3g}, "
          f"u-xi gap {inv.u_xi_gap:.3g} (bound {inv.gap_bound:.3g})")
    return EXIT_OK


def _effham(cfg: dict, model: mdl.ForceModel, cache: Cache | None):
    """The effham table and its CSV text, from one sweep or one cache read."""
    blk = _block(cfg, "effham")
    p_grid = [_frac(p) for p in blk["p_grid"]]

    def compute():
        table = rot.sweep(model, p_grid, blk["L_grid"], tol=blk.get("tol", 1e-3),
                          T_cap=blk.get("T_cap", 2000.0), cells=blk.get("cells", 1))
        return table, table.to_csv()

    def parse(text):
        table = rot.EffectiveTable.from_csv(text)
        if (set(table.L_grid.tolist()) != {float(L) for L in blk["L_grid"]}
                or set(table.p_grid) != set(p_grid)):
            raise ValueError("it does not hold the requested (L, p) grid")
        return table

    payload = {"model": cfg["model"], "effham": blk, "seed": cfg.get("seed", 0)}
    return _get_or_compute(cache, "effham", payload, compute, parse)


def cmd_effham(cfg: dict, args) -> int:
    out = _out_dir(cfg, args, "effham")
    table, text = _effham(cfg, mdl.model_from_config(cfg["model"]), None)
    (out / "effective_table.csv").write_text(text)
    (out / "effective_table.json").write_text(rot.table_to_json(table))
    worst = rot.monotone_in_L_violation(table)
    print(f"monotonicity in L: worst downward step beyond half-widths = {worst:.3g} "
          f"({'ok' if worst <= 0 else 'VIOLATED'})")
    if table.failures:
        print(f"{len(table.failures)} entries failed numerically")
        return EXIT_NUMERICAL if len(table.failures) == table.lam.size else EXIT_PARTIAL
    if not table.converged.all():
        print(f"{int((~table.converged).sum())} entries hit T_cap before tol")
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_hull(cfg: dict, args) -> int:
    out = _out_dir(cfg, args, "hull")
    blk = _block(cfg, "hull")
    model = mdl.model_from_config(cfg["model"])
    p = _frac(blk["p"])
    L = blk.get("L", 0.0)
    Z = blk.get("Z", 64)
    model2 = mdl.with_extra_drive(model, L)
    if not model2.is_autonomous:
        raise ConfigError(f"config.model.force.kind: hull needs an autonomous "
                          f"force (classical_fk), not {cfg['model']['force']['kind']!r}")
    est = rot.rotation_number(model, p, L_extra=L, tol=blk.get("tol", 1e-3),
                              T_cap=blk.get("T_cap", 2000.0))
    # the certified run of 2T, continued by exactly `snapshots` samples
    log = chn.extend(est.log, blk.get("snapshots", 256) * est.log.sample_dt,
                     snapshot_stride=1)
    hull = hl.extract_hull(log, est.lambda_hat, p, Z=Z,
                           lambda_halfwidth=est.halfwidth_best)
    res = hl.hull_residual(hull, model2)
    axioms = hl.verify_hull_axioms(hull, est.ledger)
    (out / "hull.csv").write_text(hl.hull_to_csv(hull))
    (out / "hull.json").write_text(hl.hull_header_json(hull, res))
    (out / "hull_axioms.json").write_text(json.dumps(axioms.to_json_dict(),
                                                     indent=2, sort_keys=True))
    print(f"lambda = {est.lambda_hat:.6g} +- {est.halfwidth_best:.2g}; "
          f"axioms ok = {axioms.all_ok}; residuals = {res}")
    if not est.converged:
        print(f"lambda hit T_cap before tol (T = {est.T:.6g})")
    return EXIT_OK if axioms.all_ok and est.converged else EXIT_PARTIAL


def _load_profile(blk: dict, key: str) -> mac.Profile:
    path = blk[key]
    try:
        return mac.Profile.from_csv(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot read {path}: {exc}")


def _table_for(cfg, blk, model, table) -> rot.EffectiveTable:
    """The table in blk["table_file"], else the given table, else one sweep."""
    if "table_file" not in blk:
        return table if table is not None else _effham(cfg, model, None)[0]
    try:
        return rot.EffectiveTable.from_csv(Path(blk["table_file"]).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"table_file: cannot read {blk['table_file']}: {exc}")


def _report_unconverged(table: rot.EffectiveTable, L: float, n: int, K0: float) -> int:
    """Name every unconverged entry at drive L that H(n q) reads on the slopes
    q in [1/K0, K0] (the nodes in that range and the nearest node beyond each
    end); EXIT_PARTIAL if there is one."""
    q = np.array([float(p) for p in table.p_grid]) / n
    lo = q[max(np.searchsorted(q, 1.0 / K0, side="right") - 1, 0)]
    hi = q[min(np.searchsorted(q, K0), q.size - 1)]
    conv = table.converged[int(np.argmin(np.abs(table.L_grid - L)))]
    stale = [p for p, ok in zip(table.p_grid, conv)
             if not ok and lo <= float(p) / n <= hi]
    if stale:
        print(f"table entries read on the slopes [{1 / K0:.6g}, {K0:.6g}] that "
              f"hit T_cap before tol: L = {L}, p = {', '.join(map(str, stale))}")
    return EXIT_PARTIAL if stale else EXIT_OK


def _homogenize(cfg: dict, out: Path, model: mdl.ForceModel, table=None) -> int:
    blk = _block(cfg, "homogenize")
    u0 = _load_profile(blk, "u0_file")
    K0 = u0.slope_frame()
    table = _table_for(cfg, blk, model, table)
    # table slopes count cells of n particles, profile slopes count particles
    H = mac.HamiltonianInterp.from_table(table, blk["L"]).scaled(model.n)
    # an empty record_times list records the final row, like an absent one
    times = blk.get("record_times") or [blk["T"]]
    sol = mac.solve_hj(H, u0, blk["T"], blk["dx"], record_times=times)
    (out / "macro.csv").write_text(sol.to_csv())
    print(f"solved to t = {blk['T']:.6g}; slope range seen {sol.meta['slope_range_seen']}")
    return _report_unconverged(table, blk["L"], model.n, K0)


def cmd_homogenize(cfg: dict, args) -> int:
    return _homogenize(cfg, _out_dir(cfg, args, "homogenize"),
                       mdl.model_from_config(cfg["model"]))


def _converge(cfg: dict, out: Path, model: mdl.ForceModel, table=None,
              cache: Cache | None = None) -> int:
    blk = _block(cfg, "converge")
    u0 = _load_profile(blk, "u0_file")
    xi0 = _load_profile(blk, "xi0_file") if "xi0_file" in blk else None
    K0 = u0.slope_frame()
    table = _table_for(cfg, blk, model, table)
    H = mac.HamiltonianInterp.from_table(table, blk["L"])
    # key on what is solved, not on paths or table order: no stale hit, no spurious miss
    payload = {"model": cfg["model"], "seed": cfg.get("seed", 0),
               "converge": {k: v for k, v in blk.items() if not k.endswith("_file")},
               "profiles": [u0.to_csv(), None if xi0 is None else xi0.to_csv()],
               "H": [H.p_nodes.tolist(), H.values.tolist()]}

    def compute():
        report = mac.convergence_study(model, blk["L"], u0, blk["eps_list"], blk["T"],
                                       tuple(blk["window"]), H,
                                       xi0=xi0, M0=blk.get("M0", 0.0))
        return report.to_json_dict(), report.to_json()

    def parse(text):
        report = json.loads(text)
        lists = [report.get(k) if isinstance(report, dict) else None for k in ("error", "rate")]
        if not all(isinstance(v, list) and all(isinstance(x, (int, float)) for x in v)
                   for v in lists):
            raise ValueError("it does not hold the error and rate lists")
        return report

    report, text = _get_or_compute(cache, "converge", payload, compute, parse)
    (out / "convergence.json").write_text(text)
    decreasing = all(a > b for a, b in zip(report["error"], report["error"][1:]))
    print(f"errors: {report['error']}")
    print(f"rates: {report['rate']} (decreasing={decreasing})")
    return _report_unconverged(table, blk["L"], model.n, K0)


def cmd_converge(cfg: dict, args) -> int:
    return _converge(cfg, _out_dir(cfg, args, "converge"),
                     mdl.model_from_config(cfg["model"]))


def cmd_pipeline(cfg: dict, args) -> int:
    out = _out_dir(cfg, args, "effham", "homogenize", "converge")
    cache = Cache(out / "cache")
    stage = "effham"
    try:
        # sweep and convergence_study check the model; a warm run's cache
        # hits were written by a run with this model config, which was checked
        model = mdl.model_from_config(cfg["model"])
        table, text = _effham(cfg, model, cache)
        (out / "effective_table.csv").write_text(text)
        stage = "homogenize"
        # a partial result (unconverged table entries read) runs on
        rc = _homogenize(cfg, out, model, table)
        stage = "converge"
        return max(rc, _converge(cfg, out, model, table, cache))
    except Exception:
        print(f"pipeline failed at stage {stage}; artifacts are under {out}", file=sys.stderr)
        raise


COMMANDS = {
    "check": cmd_check,
    "simulate": cmd_simulate,
    "effham": cmd_effham,
    "hull": cmd_hull,
    "homogenize": cmd_homogenize,
    "converge": cmd_converge,
    "pipeline": cmd_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fkhomog",
                                 description="FK chain homogenization pipeline")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect (the "
                         "effective-Hamiltonian table runs as one batched "
                         "ensemble)")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
            validate_config(cfg)
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, mdl.ModelError, mac.MacroError, rot.LogTooShort,
            hl.HullExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except chn.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # an output or cache file that cannot be written or read, named
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
