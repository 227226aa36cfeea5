"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Lines before it, starting with ``#``, are a
human-readable summary.  See ``perfbench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# set-up is timed this many times before the first round, and once more
# whenever the items have taken another tenth of the run since the last time
SETUP_BEFORE = 3
SETUP_EVERY = 0.1

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402  (needs the path above; imports no morsify)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fence_links", "orient_large", "move_walk", "equiv_search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and budgets, for the smoke test")
    return ap.parse_args()


def _own_modules() -> list:
    return [m for m in sys.modules
            if m in ("morsify", "workloads") or m.startswith("morsify.")]


def time_set_up(args, workdir: str):
    """One set-up from a purged module cache: import the library and the
    workload, and generate the first round's inputs.  Returns the seconds it
    took, the workload, its first round and the modules it replaced."""
    replaced = {name: sys.modules.pop(name) for name in _own_modules()}
    t0 = time.perf_counter()
    module = importlib.import_module("workloads")
    workload = module.make(args.workload, args.tiny, workdir)
    first = workload.make_round(args.seed, 0)
    return time.perf_counter() - t0, workload, first, replaced


def set_up(args, workdir: str):
    times = []
    for _ in range(SETUP_BEFORE):
        dt, workload, first, _ = time_set_up(args, workdir)
        times.append(dt)
    origin = Path(sys.modules["morsify"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"morsify was imported from {origin}, not from {SRC}")
    return workload, first, times


def retime_set_up(args, workdir: str) -> float:
    """Time one more set-up, then put the run's own modules back, so that
    the items keep running against the modules their inputs were made with."""
    dt, _, _, replaced = time_set_up(args, workdir)
    for name in _own_modules():
        del sys.modules[name]
    sys.modules.update(replaced)
    return dt


def measure(args, workload, first, tracer, workdir: str, setup_times: list) -> list:
    """Whole rounds, one item after another, until the items have taken
    ``--seconds`` in total.  Set-up is timed again between rounds, spread
    over the run like the items, so that a short slow spell of a shared
    machine at the start of a run does not set ``setup_s`` on its own."""
    logs, total, r, item_id, last_setup = [], 0.0, 0, 0, 0.0
    while True:
        items = first if r == 0 else workload.make_round(args.seed, r)
        log = harness.run_round(workload, items, tracer, item_id)
        logs.append(log)
        item_id += len(items)
        total += log.seconds
        r += 1
        if total >= args.seconds:
            return logs
        if total - last_setup >= SETUP_EVERY * args.seconds:
            setup_times.append(retime_set_up(args, workdir))
            last_setup = total


def write_spans(tracer, path: Path) -> None:
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for label, start, end, parent, item in tracer.spans:
            fh.write(json.dumps({"name": label, "start": start - t0, "end": end - t0,
                                 "parent": parent, "item": item}) + "\n")


def main() -> int:
    args = parse_args()
    # The library's work depends on set iteration order, hence on the
    # string-hash seed: the same fence takes 0.35-0.59 s to orient, and a
    # whole fence_links run 25% more or less time, from one hash seed to
    # another.  Fix the hash seed so that a run repeats its counts exactly
    # and the spread between seeds reflects the inputs alone.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__] + sys.argv[1:], env)
    if not (SRC / "morsify" / "__init__.py").is_file():
        print(f"error: no morsify sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        workload, first, setup_times = set_up(args, workdir)
        # the modules and inputs live for the whole run; keep the cyclic
        # collector from rescanning them
        gc.collect()
        gc.freeze()
        overhead = 0.0
        if args.trace:
            # the second untraced pass over the first round is the baseline;
            # the first one warms the interpreter up
            harness.run_round(workload, first, harness.Tracer(False), 0)
            plain = harness.run_round(workload, first, harness.Tracer(False), 0)
            tracer = harness.Tracer(True)
            logs = measure(args, workload, first, tracer, workdir, setup_times)
            # per-item ratios, so that one slow item on a shared machine
            # does not stand for the whole round
            overhead = statistics.median(
                traced / untraced for traced, untraced in zip(logs[0].times, plain.times)
            ) - 1.0
        else:
            tracer = harness.Tracer(False)
            logs = measure(args, workload, first, tracer, workdir, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [t for log in logs for t in log.times]
    failed = sum(log.failed for log in logs)
    tail_s, tail_pct, n = harness.tail(times)
    first_counts = logs[0].counts
    searched = first_counts["searched"]
    rates = sorted(len(log.times) / log.seconds for log in logs)
    print(f"# {args.workload} seed {args.seed}: {len(logs)} rounds, {n} items, "
          f"{failed} failed; tail at p{tail_pct:.1f} of {n} samples; "
          f"round items/s {rates[0]:.3f}-{rates[-1]:.3f}; "
          f"first round decided {first_counts['decided']}/{searched} searches; "
          f"set-up timed {len(setup_times)} times")
    for log in logs:
        for err in log.errors:
            print("# FAILED " + err.replace("\n", "\n# "), file=sys.stderr)

    if args.trace:
        metrics = harness.layer_metrics(tracer.spans, logs, workload.sizes, overhead)
        write_spans(tracer, OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        units = {name: unit for name, unit in harness.PER_LAYER_UNITS}
        out = {name: {"value": metrics[name], "unit": units[name]} for name, _ in harness.PER_LAYER_UNITS}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": n / sum(times), "unit": "1/s"},
            "item_p50_ms": {"value": 1000.0 * statistics.median(times), "unit": "ms"},
            "item_tail_ms": {"value": 1000.0 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
