"""One round of every benchmark workload runs, and each of its checks holds.

The workloads are read from ``bench/workloads.py`` by path, with ``bench/``
on the import path for its ``checks`` and ``spans`` modules, so a round that
raises or an output that a benchmark check rejects fails here as well.

    python3 -m pytest tests/test_bench_rounds.py
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_round_passes_every_check(name, tmp_path):
    workload = WORKLOADS[name]
    inp = workload.build(1, tmp_path / "inputs")
    out = workload.round(inp)
    ops = workload.check(out, workload.reference(inp))
    assert ops
    assert [(op, detail) for op, ok, detail in ops if not ok] == []
