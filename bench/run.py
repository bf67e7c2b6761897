#!/usr/bin/env python3
"""Benchmark of the fkhomog homogenization pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: depinning_sweep, eps_pipeline,
twotype_tabulated (see bench/README.md).  Serial, one process per workload.

With --trace 0 the run repeats whole rounds of the workload, untraced, for
about S seconds and reports the end-to-end metrics (median round time in
units of the calibration kernel, set-up time over several fresh interpreters,
peak resident memory, widest certified half-width, error against the
independent reference).  With --trace 1 it alternates untraced rounds with
rounds traced by :mod:`spans` and reports the per-layer metrics, the raw
median wall time of the untraced rounds and the tracing overhead.
Every round's outputs are checked.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh interpreters timed per run for setup_s (one more, untimed, compiles
#: the bytecode caches first)
SETUP_STARTS = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR",
                    help="internal: import and build the inputs in DIR, then exit")
    return ap.parse_args(argv)


def import_program():
    """Put this checkout's src/ first on sys.path; refuse any other fkhomog."""
    if not (SRC / "fkhomog" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fkhomog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fkhomog
    if Path(fkhomog.__file__).resolve().parent != (SRC / "fkhomog").resolve():
        raise SystemExit(f"bench: imported fkhomog from {fkhomog.__file__}, "
                         f"not from {SRC}")


def setup_probe(workload, seed, scratch: Path):
    import importlib
    import_program()
    for mod in workload.modules:
        importlib.import_module(mod)
    workload.build(seed, scratch)


def time_setup(args, scratch: Path) -> float:
    """Median wall time of fresh interpreters that import fkhomog and build
    the workload's inputs."""
    times = []
    for k in range(SETUP_STARTS + 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed),
               "--setup-probe", str(scratch / f"setup{k}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        if k > 0:
            times.append(t1 - t0)
    return statistics.median(times)


def timed_round(workload, inp):
    """One round under the calibrator: (outputs, wall time, wall time without
    the kernel's own time, that time in kernel units)."""
    with calib.Calibrator() as cal:
        t0 = time.perf_counter()
        out = workload.round(inp)
        wall = time.perf_counter() - t0
    net = wall - cal.total
    return out, wall, net, net / cal.mean


def run_rounds(workload, inp, budget: float, outputs: list, tracer=None):
    """Whole rounds until the next one would end past the budget (at least
    one).  With a tracer every untraced round is followed by a traced one, so
    a drift in the machine's speed reaches both alike.  Returns the net wall
    times and kernel-unit times of the untraced rounds and, with a tracer,
    the kernel-unit times of the traced ones (the tracer keeps their whole
    wall times, which contain the kernel's samples like their spans do)."""
    walls, units, traced_units, steps = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out, _, net, unit = timed_round(workload, inp)
        outputs.append(out)
        walls.append(net)
        units.append(unit)
        if tracer is not None:
            uninstall = spans.install(tracer)
            try:
                out, wall, _, unit = timed_round(workload, inp)
            finally:
                uninstall()
            outputs.append(out)
            tracer.rounds.append(wall)
            traced_units.append(unit)
            tracer.counts["cli.out_bytes"] += out.get("out_bytes", 0)
        end = time.perf_counter()
        steps.append(end - t0)
        if end - start + statistics.median(steps) > budget:
            return walls, units, traced_units


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed, Path(args.setup_probe))
        return 0

    import_program()
    scratch = HERE / "scratch" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = HERE / "results"
    try:
        setup_s = time_setup(args, scratch)
        inp = workload.build(args.seed, scratch / "inputs")
        outputs = []
        tracer = spans.Tracer() if args.trace else None
        walls, units, traced_units = run_rounds(workload, inp, args.seconds,
                                                outputs, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ref = workload.reference(inp)
        attempted = failed = 0
        for out in outputs:
            for op, ok, detail in workload.check(out, ref):
                attempted += 1
                if not ok:
                    failed += 1
                    print(f"FAILED {op}: {detail}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values = spans.layer_metrics(tracer)
        values["bench.wall_s"] = statistics.median(walls)
        values["trace.overhead"] = (statistics.median(traced_units)
                                    / statistics.median(units) - 1.0)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in spans.PER_LAYER}
    else:
        quality = workload.quality(outputs[0], ref)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_kernels": {"value": statistics.median(units), "unit": "kernels"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "max_halfwidth": {"value": quality["max_halfwidth"], "unit": "lambda"},
            "homog_error": {"value": quality["homog_error"], "unit": "u"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        dict(result, round_walls=walls, round_kernels=units), indent=2))
    if args.trace:
        tracer.write(results / f"{stem}-spans.csv.gz")
    print(f"{args.workload}: {len(walls)} untraced rounds, median "
          f"{statistics.median(walls):.3f} s; set-up {setup_s:.3f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
