"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that the count metrics repeat exactly across two processes at one
seed, that another seed changes the inputs but not the set of metrics, and
that the benchmark fails cleanly where there are no library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".search_states", ".moves_listed", "decided_frac",
                  "failed_frac", "illegal_frac")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, proc.stderr
    assert out["attempted"] >= 1
    return out


def metric_set(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        metrics = result(workload, 1, trace)["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == metric_set(kind)
        for name, v in metrics.items():
            assert isinstance(v["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_seed_changes_inputs(workload):
    first = result(workload, 1, 1)["metrics"]
    again = result(workload, 1, 1)["metrics"]
    other = result(workload, 2, 1)["metrics"]
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: again[k]["value"] for k in counts}
    assert set(other) == set(first)

    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    try:
        import workloads

        wl = workloads.make(workload, True, str(BENCH_DIR))
        def digest(seed):
            return [(i.kind, repr(i.data)) for i in wl.make_round(seed, 0)]
        assert digest(1) == digest(1)
        assert digest(1) != digest(2)
    finally:
        del sys.path[:2]


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
