"""Measurement machinery for the benchmark: spans, the closed loop, statistics.

This module does not import ``morsify``; the workloads do.  That keeps the
set-up timing honest: ``run.py`` purges and re-imports the library and the
workloads, but this module stays loaded.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import traceback
from collections import defaultdict

# Layers are the package modules the benchmark calls into; ``bench`` is the
# benchmark's own work inside an item (checks, bookkeeping).
LAYERS = ("divide", "agquiver", "quiver", "plabic", "braid", "link", "cli")

# Span labels reported as ``<label>_s`` (seconds per round in that call).
TIMED_LABELS = (
    "link.alexander_wirtinger",
    "link.alexander_burau",
    "link.jones",
    "link.closure",
    "plabic.orient",
    "plabic.link_build",
    "plabic.enumerate_moves",
    "plabic.apply_move",
    "plabic.transport",
    "plabic.quiver_of_plabic",
    "plabic.move_equivalent",
    "braid.solid_torus",
    "braid.normal_form",
    "braid.witness_replay",
    "quiver.mutation_equivalent",
    "quiver.is_isomorphic",
    "cli.main",
)

# Exponent metric -> span label whose mean duration is fitted against size.
EXPONENTS = {
    "link.wirtinger_exponent": "link.alexander_wirtinger",
    "plabic.orient_exponent": "plabic.orient",
    "plabic.link_build_exponent": "plabic.link_build",
}

# Counters the workloads keep per round; reported from the first round.
COUNTS = ("plabic.search_states", "plabic.moves_listed", "braid.search_states",
          "quiver.search_states")

SCALE_LAYERS = ("link", "plabic", "braid")


class CheckFailed(Exception):
    """An output of the library failed one of the benchmark's checks."""


class Tracer:
    """Spans around the benchmark's calls into the library.

    Disabled, :meth:`call` is a plain call.  Enabled, each call appends a span
    ``(label, start, end, parent, item)``; ``parent`` indexes the enclosing
    span, ``item`` the item being run.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self.item = None

    def call(self, label: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (label, t0, t1, parent, self.item)


class Item:
    """One unit of work: ``kind`` names the runner, ``size`` indexes the
    workload's three sizes (or is None), ``data`` is the generated input."""

    __slots__ = ("kind", "size", "data")

    def __init__(self, kind: str, size, data):
        self.kind, self.size, self.data = kind, size, data


class RoundLog:
    """What one round produced: per-item times and outcomes, and counters."""

    def __init__(self):
        self.times: list = []
        self.items: list = []  # (item id, Item)
        self.failed = 0
        self.errors: list = []
        self.counts: dict = defaultdict(int)
        self.seconds = 0.0


def run_round(workload, items, tracer: Tracer, first_id: int) -> RoundLog:
    log = RoundLog()
    for n, item in enumerate(items):
        item_id = first_id + n
        tracer.item = item_id
        # every item starts from the same collector state: garbage left by
        # the previous item is not charged to this one
        gc.collect()
        t0 = time.perf_counter()
        try:
            tracer.call("item." + item.kind, workload.run_item, item, tracer, log.counts)
        except Exception as exc:  # an item that fails is counted; the run goes on
            log.failed += 1
            if len(log.errors) < 5:
                log.errors.append(
                    f"{item.kind}: {type(exc).__name__}: {exc}\n"
                    + "".join(traceback.format_tb(exc.__traceback__)[-3:])
                )
        dt = time.perf_counter() - t0
        log.times.append(dt)
        log.items.append((item_id, item))
        log.seconds += dt
    tracer.item = None
    return log


# ---------------------------------------------------------------------------
# Statistics


def tail(times: list) -> tuple:
    """``(value, percentile, samples)``: the time at the highest percentile
    with at least ten samples beyond it (the eleventh largest)."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def loglog_slope(points: list) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 if under two points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    if sxx == 0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def self_times(spans: list) -> list:
    """Per span, its duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_of(label: str) -> str:
    head = label.split(".", 1)[0]
    return "bench" if head == "item" else head


def layer_metrics(spans: list, logs: list, sizes, overhead: float) -> dict:
    """The per-layer metrics of a traced run.

    Times are seconds per round over every traced round; counts come from
    the first traced round, so they repeat exactly at a fixed seed.
    """
    rounds = len(logs)
    first_ids = {item_id for item_id, _ in logs[0].items}
    item_of = {item_id: item for log in logs for item_id, item in log.items}
    selfs = self_times(spans)

    by_label: dict = defaultdict(float)
    by_layer: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    per_size: dict = defaultdict(list)  # (label, size) -> durations
    per_size_layer: dict = defaultdict(float)  # (layer, size) -> self seconds
    for s, self_s in zip(spans, selfs):
        label, t0, t1, _, item_id = s
        layer = layer_of(label)
        by_label[label] += t1 - t0
        by_layer[layer] += self_s
        if item_id in first_ids and layer != "bench":
            calls[layer] += 1
        size = item_of[item_id].size if item_id in item_of else None
        if size is not None:
            per_size[(label, size)].append(t1 - t0)
            per_size_layer[(layer, size)] += self_s

    m: dict = {}
    for label in TIMED_LABELS:
        m[label + "_s"] = by_label[label] / rounds
    for layer in LAYERS + ("bench",):
        if layer != "cli":
            m[layer + ".busy_s"] = by_layer[layer] / rounds
        if layer != "bench":
            m[layer + ".calls"] = calls[layer]

    counts = logs[0].counts
    for key in COUNTS:
        m[key] = counts[key]
    attempts = counts["plabic.move_attempts"]
    m["plabic.illegal_frac"] = counts["plabic.illegal"] / attempts if attempts else 0.0
    for layer, label in (("braid", "braid.solid_torus"), ("quiver", "quiver.mutation_equivalent")):
        states = sum(log.counts[layer + ".search_states"] for log in logs)
        m[layer + ".states_per_s"] = states / by_label[label] if by_label[label] else 0.0
    searched = counts["searched"]
    m["decided_frac"] = counts["decided"] / searched if searched else 0.0
    first_n = len(logs[0].items)
    m["failed_frac"] = logs[0].failed / first_n if first_n else 0.0

    all_times = [t for log in logs for t in log.times]
    _, pct, n = tail(all_times)
    m["items.tail_percentile"] = pct
    m["items.samples"] = n
    m["trace.overhead_frac"] = overhead

    size_items: dict = defaultdict(int)
    for log in logs:
        for _, item in log.items:
            if item.size is not None:
                size_items[item.size] += 1
    for name, label in EXPONENTS.items():
        pts = []
        if sizes:
            for i, letters in enumerate(sizes):
                ds = per_size.get((label, i))
                if ds:
                    pts.append((letters, statistics.fmean(ds)))
        m[name] = loglog_slope(pts)
    for i in range(3):
        letters = sizes[i] if sizes else 0
        m[f"scale.s{i + 1}.letters"] = letters
        for layer in SCALE_LAYERS:
            count = size_items[i]
            value = per_size_layer[(layer, i)] / count if count else 0.0
            m[f"scale.s{i + 1}.{layer}_s"] = value
    return m


def _per_layer_units() -> tuple:
    units = [(label + "_s", "s") for label in TIMED_LABELS]
    units += [(layer + ".busy_s", "s") for layer in LAYERS + ("bench",) if layer != "cli"]
    units += [(layer + ".calls", "count") for layer in LAYERS]
    units += [(key, "count") for key in COUNTS]
    units += [
        ("plabic.illegal_frac", "ratio"),
        ("braid.states_per_s", "1/s"),
        ("quiver.states_per_s", "1/s"),
        ("decided_frac", "ratio"),
        ("failed_frac", "ratio"),
        ("items.tail_percentile", "%"),
        ("items.samples", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
    units += [(name, "exponent") for name in EXPONENTS]
    for i in range(1, 4):
        units.append((f"scale.s{i}.letters", "letters"))
        units += [(f"scale.s{i}.{layer}_s", "s") for layer in SCALE_LAYERS]
    return tuple(units)


# Every per-layer metric of a traced run, in report order, with its unit.
PER_LAYER_UNITS = _per_layer_units()
