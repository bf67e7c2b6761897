"""Span tracing of fkhomog from outside the package.

:func:`install` wraps every public function of the layer modules (``model``,
``chain``, ``rotation``, ``hull``, ``macro``, ``cli``) and rebinds each wrapper
under every module name that held the original, so calls are traced wherever
the caller looks the name up (``from .chain import run`` in ``rotation``,
``chn.run`` in ``cli``, the package namespace).  Spans (name, start, end,
parent) stay in memory; :meth:`Tracer.write` dumps them at the end of a run.
Counters are taken from the values the traced functions return, so the
program itself is left untouched.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import statistics
import time
from collections import defaultdict

LAYERS = ("model", "chain", "rotation", "hull", "macro", "cli")

#: eps levels of the eps_pipeline workload; each gets its own per-layer metric
EPS_LEVELS = tuple(0.1 * 2.0 ** -k for k in range(5))


def eps_metric(eps: float) -> str:
    return f"macro.rescale_micro_s.eps{eps:g}"


# name, unit of every per-layer metric, in report order
PER_LAYER = (
    [("model.check_s", "s"), ("model.check_calls", "count"),
     ("chain.run_s", "s"), ("chain.euler_steps", "count"),
     ("chain.particle_steps", "count"), ("chain.ns_per_particle_step", "ns"),
     ("chain.force_s", "s"),
     ("rotation.sweep_s", "s"), ("rotation.entries", "count"),
     ("rotation.entry_s", "s"), ("rotation.doublings", "count"),
     ("rotation.sim_time", "tau"),
     ("hull.extract_s", "s"), ("hull.samples", "count"),
     ("macro.rescale_micro_s", "s")]
    + [(eps_metric(e), "s") for e in EPS_LEVELS]
    + [("macro.particle_steps", "count"), ("macro.ns_per_particle_step", "ns"),
       ("macro.observed_share", "ratio"),
       ("macro.solve_hj_s", "s"), ("macro.solve_hj_calls", "count"),
       ("cli.pipeline_cold_s", "s"), ("cli.pipeline_warm_s", "s"),
       ("cli.cache_hits", "count"), ("cli.cache_misses", "count"),
       ("cli.out_bytes", "bytes")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("bench.self_s", "s"), ("bench.wall_s", "s"), ("trace.wall_s", "s"),
       ("trace.overhead", "ratio")]
)


class Tracer:
    """In-memory span recorder with per-function result hooks."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.rounds = []           # wall time of each traced round

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, span, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with gzip.open(path, "wt") as f:
            f.write("index,name,start,end,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{t0!r},{t1!r},{parent}\n")


# -- result hooks ----------------------------------------------------------

def _run_hook(counts, span, args, log):
    n_sub = max(1, round(log.sample_dt / log.dt))
    steps = (log.sample_times.size - 1) * n_sub
    counts["chain.euler_steps"] += steps
    counts["chain.particle_steps"] += steps * log.final_state.N


def _rotation_hook(counts, span, args, est):
    counts["rotation.doublings"] += len(est.history)
    counts["rotation.sim_time"] += 2.0 * est.T


def _hull_hook(counts, span, args, hull):
    log = args[0]
    counts["hull.samples"] += hull.diagnostics["snapshots_used"] * log.final_state.N


def _rescale_hook(counts, span, args, field):
    meta = field.meta
    counts["macro.particle_steps"] += meta["N_total"] * meta["n_steps"]
    eps = field.eps
    counts[eps_metric(eps)] += span[2] - span[1]
    if eps <= counts.get("macro.finest_eps", float("inf")):
        counts["macro.finest_eps"] = eps
        counts["macro.observed_share"] = field.values.shape[1] / meta["N_total"]


def _cache_hook(counts, span, args, out):
    counts["cli.cache_hits" if out[1] is not None else "cli.cache_misses"] += 1


HOOKS = {
    "chain.run": _run_hook,
    "rotation.rotation_number": _rotation_hook,
    "hull.extract_hull_periodic": _hull_hook,
    "macro.rescale_micro": _rescale_hook,
    "cli.Cache.get_text": _cache_hook,
}


def install(tracer: Tracer):
    """Wrap the public functions of every layer; returns an undo callable."""
    fkhomog = importlib.import_module("fkhomog")
    mods = {layer: importlib.import_module(f"fkhomog.{layer}") for layer in LAYERS}
    namespaces = [fkhomog] + list(mods.values())
    undo = []
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, obj, HOOKS.get(name))
            for ns in namespaces:
                if vars(ns).get(attr) is obj:
                    setattr(ns, attr, wrapped)
                    undo.append((ns, attr, obj))
    cache = mods["cli"].Cache
    undo.append((cache, "get_text", cache.get_text))
    cache.get_text = tracer.wrap("cli.Cache.get_text", cache.get_text,
                                 HOOKS["cli.Cache.get_text"])

    def uninstall():
        for ns, attr, obj in reversed(undo):
            setattr(ns, attr, obj)

    return uninstall


# -- aggregation -----------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics per traced round: totals divided by the number of
    traced rounds; entry_s, pipeline_*_s and trace.wall_s are medians.
    bench.wall_s and trace.overhead need the untraced rounds and are left to
    the caller."""
    spans = tracer.spans
    k = len(tracer.rounds)
    incl = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)     # time covered by direct children
    force_in_run = 0.0
    entry_times = []
    main_calls = []
    for name, t0, t1, parent in spans:
        d = t1 - t0
        incl[name] += d
        calls[name] += 1
        if parent >= 0:
            child[parent] += d
            if name == "chain.force_profile" and spans[parent][0] == "chain.run":
                force_in_run += d
        if name == "rotation.rotation_number":
            entry_times.append(d)
        if name == "cli.main":
            main_calls.append(d)
    self_by_layer = defaultdict(float)
    top = 0.0
    for i, (name, t0, t1, parent) in enumerate(spans):
        self_by_layer[name.split(".", 1)[0]] += (t1 - t0) - child[i]
        if parent < 0:
            top += t1 - t0

    c = tracer.counts
    run_s = incl["chain.run"]
    rescale_s = incl["macro.rescale_micro"]
    out = {
        "model.check_s": incl["model.check_assumptions"],
        "model.check_calls": calls["model.check_assumptions"],
        "chain.run_s": run_s,
        "chain.euler_steps": c["chain.euler_steps"],
        "chain.particle_steps": c["chain.particle_steps"],
        "chain.force_s": force_in_run,
        "rotation.sweep_s": incl["rotation.sweep"],
        "rotation.entries": calls["rotation.rotation_number"],
        "rotation.doublings": c["rotation.doublings"],
        "rotation.sim_time": c["rotation.sim_time"],
        "hull.extract_s": incl["hull.extract_hull_periodic"],
        "hull.samples": c["hull.samples"],
        "macro.rescale_micro_s": rescale_s,
        "macro.particle_steps": c["macro.particle_steps"],
        "macro.solve_hj_s": incl["macro.solve_hj"],
        "macro.solve_hj_calls": calls["macro.solve_hj"],
        "cli.cache_hits": c["cli.cache_hits"],
        "cli.cache_misses": c["cli.cache_misses"],
        "cli.out_bytes": c["cli.out_bytes"],
        "bench.self_s": sum(tracer.rounds) - top,
    }
    for eps in EPS_LEVELS:
        out[eps_metric(eps)] = c[eps_metric(eps)]
    out = {key: v / k for key, v in out.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer] / k
    out["chain.ns_per_particle_step"] = (
        1e9 * run_s / c["chain.particle_steps"] if c["chain.particle_steps"] else 0.0)
    out["macro.ns_per_particle_step"] = (
        1e9 * rescale_s / c["macro.particle_steps"] if c["macro.particle_steps"] else 0.0)
    out["macro.observed_share"] = c["macro.observed_share"]
    out["rotation.entry_s"] = statistics.median(entry_times) if entry_times else 0.0
    cold, warm = main_calls[0::2], main_calls[1::2]
    out["cli.pipeline_cold_s"] = statistics.median(cold) if cold else 0.0
    out["cli.pipeline_warm_s"] = statistics.median(warm) if warm else 0.0
    out["trace.wall_s"] = statistics.median(tracer.rounds)
    return out
