"""Span tracing around the public functions of each xbar layer.

Tracing is done from outside the package: while a `Tracer` is active, every
function listed in `TRACED` is replaced by a timing wrapper in each loaded
`xbar.*` module that holds it by name (modules import these functions with
`from ... import`, so the caller's namespace is the one that must be
patched).  Nothing under `src/xbar` changes.

A span is `(id, name, start, end, parent, cycle, thread, value)`.  The layer
of a span is the prefix of its name.  `value` carries the count a span
contributes (table points, energies, sweeps, bytes); it is `None` where the
span has no count.  Spans stay in memory until `write_spans` is called at
the end of the run.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import sys
import threading
import time

import numpy as np

# nodal.kirchhoff_row_solve runs its first Picard stage with at most this
# many sweeps; a row that used more went through the bias-ramp rescue
NODAL_FIRST_STAGE_CAP = 60

LAYERS = ("transport", "ivtable", "nodal", "crossbar", "montecarlo", "storage", "runio", "cli")


def _points(args, kwargs, result):
    # interpolate_current(table, v, delta): one table point per queried bias
    return int(np.size(kwargs["v"] if "v" in kwargs else args[1]))


def _energies(args, kwargs, result):
    # transmission_spectrum(h_b, partition, config, energies, threads)
    return int(np.size(kwargs["energies"] if "energies" in kwargs else args[3]))


def _iterations(args, kwargs, result):
    return int(result.iterations)


def _bytes_at(position):
    """Size of the file a writer just wrote; its path is argument `position`."""
    def count(args, kwargs, result):
        return os.path.getsize(kwargs["path"] if "path" in kwargs else args[position])
    return count


# (module defining the function, function name, span name, count extractor)
TRACED = (
    ("cli", "main", "cli.main", None),
    ("transport", "load_quantum_system", "transport.load", None),
    ("transport", "iv_sweep", "transport.iv_sweep", None),
    ("transport", "orthogonal_block_hamiltonian", "transport.hamiltonian", None),
    ("transport", "apply_bias_ramp", "transport.hamiltonian", None),
    ("transport", "transmission_spectrum", "transport.spectrum", _energies),
    ("transport", "landauer_current", "transport.landauer", None),
    ("ivtable", "load_table", "ivtable.load", None),
    ("ivtable", "interpolate_current", "ivtable.lookup", _points),
    ("ivtable", "small_signal_conductance", "ivtable.lookup", None),
    ("nodal", "kirchhoff_solve", "nodal.solve", None),
    ("nodal", "kirchhoff_row_solve", "nodal.row", _iterations),
    ("nodal", "solve_linear_homogeneous", "nodal.linear_homogeneous", None),
    ("crossbar", "calibrate_sneak_params", "crossbar.calibrate", None),
    ("crossbar", "parametric_solve", "crossbar.solve", _iterations),
    ("montecarlo", "load_mc_config", "montecarlo.load", None),
    ("montecarlo", "run_mc", "montecarlo.run", None),
    ("montecarlo", "sample_bits", "montecarlo.sample", None),
    ("montecarlo", "sample_deltas", "montecarlo.sample", None),
    ("montecarlo", "optimal_threshold", "montecarlo.threshold", None),
    ("storage", "run_storage_benchmark", "storage.run", None),
    ("storage", "image_to_bits", "storage.tiling", None),
    ("storage", "tile_bits", "storage.tiling", None),
    ("runio", "dump_json", "runio.write", _bytes_at(1)),
    ("runio", "write_rows_csv", "runio.write", _bytes_at(0)),
    ("runio", "write_matrix_csv", "runio.write", _bytes_at(0)),
    ("runio", "write_long_csv", "runio.write", _bytes_at(0)),
    ("runio", "digest_payload", "runio.digest", None),
)

# the storage layer calls the montecarlo threshold search; book that time
# to storage so that each campaign shows its own share
CALLER_SPAN_NAMES = {("storage", "optimal_threshold"): "storage.threshold"}


class Tracer:
    """Patches the traced functions on `start()` and restores them on
    `stop()`.  Spans opened on a worker thread with nothing open on that
    thread take as parent the innermost span open on the thread that
    started the tracer, which is the campaign call waiting on the pool."""

    def __init__(self):
        self.spans = []
        self.cycle = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = []
        self._home_thread = None
        self._patched = []

    def _stack(self):
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, span_name, count):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._home_stack:
                parent = tracer._home_stack[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = count(args, kwargs, result) if count is not None else None
            tracer.spans.append(
                (span_id, span_name, start, end, parent, tracer.cycle, threading.get_ident(), value)
            )
            return result

        return traced

    def start(self):
        self._home_thread = threading.get_ident()
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("xbar.") and mod is not None
        }
        for home, func_name, span_name, count in TRACED:
            original = getattr(modules[home], func_name)
            for mod_name, mod in modules.items():
                if getattr(mod, func_name, None) is original:
                    name = CALLER_SPAN_NAMES.get((mod_name, func_name), span_name)
                    setattr(mod, func_name, self._wrap(original, name, count))
                    self._patched.append((mod, func_name, original))
        return self

    def stop(self):
        for mod, func_name, original in reversed(self._patched):
            setattr(mod, func_name, original)
        self._patched.clear()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover.
    Children running in parallel on a pool are counted once."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - _covered(children.get(s[0], ()), s[2], s[3]) for s in spans}


def _median_tail(values):
    """Median, and the highest order statistic with ten samples above it.
    Below 21 samples no such value reaches the median, and the maximum is
    given instead."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    tail = ordered[-11] if len(ordered) >= 21 else ordered[-1]
    return float(np.median(ordered)), float(tail)


def layer_metrics(spans, cycles):
    """Per-layer metrics; totals are divided by the number of traced work
    cycles so that runs with different cycle counts stay comparable."""
    cycles = max(cycles, 1)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    selfs = self_times(spans)
    names = {s[0]: s[1] for s in spans}

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def count(name):
        return sum(s[7] for s in by_name.get(name, ()) if s[7] is not None)

    def layer_self(layer):
        return sum(selfs[s[0]] for s in spans if s[1].split(".", 1)[0] == layer)

    def per_cycle(x):
        return x / cycles

    # outermost table lookups only: small_signal_conductance wraps a nested
    # interpolate_current, and the nested span must not be counted twice
    lookups = by_name.get("ivtable.lookup", [])
    lookup_s = sum(s[3] - s[2] for s in lookups if names.get(s[4]) != "ivtable.lookup")
    lookup_calls = sum(1 for s in lookups if s[7] is not None)
    points = count("ivtable.lookup")
    energies = count("transport.spectrum")

    rows = by_name.get("nodal.row", [])
    row_p50, row_tail = _median_tail([s[3] - s[2] for s in rows])
    sweeps = [s[7] for s in rows]
    solves = by_name.get("crossbar.solve", [])
    solve_p50, solve_tail = _median_tail([s[3] - s[2] for s in solves])

    # summed solve time over campaign wall time: above 1 only when tiles
    # really overlap on the pool
    runs = by_name.get("storage.run", [])
    run_wall = sum(s[3] - s[2] for s in runs)
    solve_in_runs = sum(
        s[3] - s[2]
        for s in solves + by_name.get("nodal.solve", [])
        if any(r[2] <= s[2] and s[3] <= r[3] for r in runs)
    )

    metrics = {
        "transport.spectrum_s": (per_cycle(total("transport.spectrum")), "s"),
        "transport.energies": (per_cycle(energies), "count"),
        "transport.us_per_energy": (1e6 * total("transport.spectrum") / energies if energies else 0.0, "us"),
        "transport.landauer_s": (per_cycle(total("transport.landauer")), "s"),
        "transport.hamiltonian_s": (per_cycle(total("transport.hamiltonian")), "s"),
        "ivtable.calls": (per_cycle(lookup_calls), "count"),
        "ivtable.points": (per_cycle(points), "count"),
        "ivtable.s": (per_cycle(lookup_s), "s"),
        "ivtable.ns_per_point": (1e9 * lookup_s / points if points else 0.0, "ns"),
        "nodal.row_s.p50": (row_p50, "s"),
        "nodal.row_s.ptail": (row_tail, "s"),
        "nodal.row_s.n": (len(rows), "count"),
        "nodal.sweeps_per_row.mean": (float(np.mean(sweeps)) if sweeps else 0.0, "count"),
        "nodal.sweeps_per_row.max": (max(sweeps, default=0), "count"),
        "nodal.rescued_rows": (per_cycle(sum(1 for k in sweeps if k > NODAL_FIRST_STAGE_CAP)), "count"),
        "nodal.linear_homogeneous_s": (per_cycle(total("nodal.linear_homogeneous")), "s"),
        "crossbar.calibrate_s": (per_cycle(total("crossbar.calibrate")), "s"),
        "crossbar.calibrate_calls": (per_cycle(len(by_name.get("crossbar.calibrate", []))), "count"),
        "crossbar.solve_s.p50": (solve_p50, "s"),
        "crossbar.solve_s.ptail": (solve_tail, "s"),
        "crossbar.solve_s.n": (len(solves), "count"),
        "crossbar.iterations.mean": (float(np.mean([s[7] for s in solves])) if solves else 0.0, "count"),
        "montecarlo.sample_s": (per_cycle(total("montecarlo.sample")), "s"),
        "montecarlo.threshold_s": (per_cycle(total("montecarlo.threshold")), "s"),
        "storage.tiling_s": (per_cycle(total("storage.tiling")), "s"),
        "storage.threshold_s": (per_cycle(total("storage.threshold")), "s"),
        "storage.overlap": (solve_in_runs / run_wall if run_wall else 0.0, "ratio"),
        "runio.write_s": (per_cycle(total("runio.write")), "s"),
        "runio.bytes_written": (per_cycle(count("runio.write")), "bytes"),
        "runio.digest_s": (per_cycle(total("runio.digest")), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (per_cycle(layer_self(layer)), "s")
    return metrics


def exact_counts(spans):
    """Totals that must repeat exactly for identical inputs."""
    def total(name):
        return sum(s[7] for s in spans if s[1] == name and s[7] is not None)

    return {
        "nodal.sweeps_per_row": total("nodal.row"),
        "crossbar.iterations": total("crossbar.solve"),
        "ivtable.points": total("ivtable.lookup"),
        "transport.energies": total("transport.spectrum"),
        "runio.bytes_written": total("runio.write"),
    }


def write_spans(spans, path):
    """Spans as CSV, times relative to the first span's start."""
    origin = min((s[2] for s in spans), default=0.0)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "name", "start_s", "end_s", "parent", "cycle", "thread", "value"])
        for s in spans:
            out.writerow([s[0], s[1], f"{s[2] - origin:.9f}", f"{s[3] - origin:.9f}",
                          s[4] if s[4] is not None else "", s[5], s[6],
                          s[7] if s[7] is not None else ""])
