"""Benchmark of the xbar command line, end to end and layer by layer.

    python3 perfbench/run.py --workload mc-128 --seed 1 --seconds 25 --trace 0

Runs one workload in this process through `xbar.cli.main`, on inputs made
from --seed, for about --seconds seconds of closed-loop work cycles (one
call at a time; a cycle starts only if it is expected to end inside the
window, and at least one always runs).  Every cycle's outputs are checked,
and a canonical case is compared against the committed references.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics:
  setup_s      median over fresh interpreters of the time until xbar.cli is
               imported and the shipped tables are loaded
  items_per_s  work items (trials, driven oracle rows, tiles or table points)
               per second of counted calls, over all cycles of the window
  peak_rss_mb  peak resident memory of this process through the first cycle
Both times are in seconds of the reference machine: a shared virtual
machine's speed can drift by 1.3x within seconds, so a probe samples the
slowdown of the core while the work runs and the wall time is divided by it
(speed.py).  Raw wall times are kept in the saved record.

With --trace 1 the same cycles run with spans recorded around each layer's
public functions, and the JSON holds the per-layer metrics of spans.py plus
the tracing overhead.  Earlier lines give the machine facts, the metrics
under their workload names, and failures.  Spans and a full result record
go to .perfbench_out/.

The program is taken from src/ next to this directory; the run fails
before printing a result when it is missing.
"""

from __future__ import annotations

import os

from facts import BLAS_THREAD_VARS

if __name__ == "__main__":
    # thread counts are fixed here, before numpy is imported anywhere
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"
    os.environ["XBAR_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from facts import machine_facts  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
SETUP_CHILD = Path(__file__).resolve().parent / "setup_child.py"
# setup_child.py's typical kernel time on the reference machine
SETUP_PROBE_REFERENCE_S = 1.5e-4

# the names these rates go by in the workload descriptions
RATE_NAMES = {
    "mc-128": ("trials_per_s", "trials/s"),
    "oracle-64": ("oracle_rows_per_s", "rows/s"),
    "store-sweep": ("tiles_per_s", "tiles/s"),
    "ivgen-chain": ("iv_points_per_s", "points/s"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_cli():
    """Import xbar.cli from src/ next to the benchmark, and nowhere else."""
    package = SRC / "xbar"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no xbar sources at {package}")
    sys.path.insert(0, str(SRC))
    import xbar.cli

    if Path(xbar.cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"xbar imported from {xbar.cli.__file__}, not from {package}")
    return xbar.cli


def setup_seconds(repeats=SETUP_REPEATS):
    """Median over fresh interpreters of the wall time until xbar.cli is
    imported and the shipped tables are loaded, scaled to the reference
    machine's speed by the probe the child samples meanwhile."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(SETUP_CHILD)], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        fields = line.split()
        if code != 0 or len(fields) != 3 or Path(fields[0]).resolve().parent != (SRC / "xbar").resolve():
            raise BenchError(f"set-up interpreter failed (exit {code}, printed {line.strip()!r})")
        times.append((elapsed, elapsed * SETUP_PROBE_REFERENCE_S / float(fields[1])))
    return statistics.median(t[1] for t in times), statistics.median(t[0] for t in times)


def call_cli(cli, argv):
    # attribute lookup at call time, so a traced cli.main is the one called
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_cycle(cli, workload, k, tracer=None, probe=None):
    cycle = workload.cycle(k)
    if tracer is not None:
        tracer.cycle = f"{workload.name}/seed{workload.seed}/c{k}"
    codes, counted = [], 0.0
    first_sample = len(probe.samples) if probe is not None else 0
    start = time.perf_counter()
    for call in cycle.calls:
        t0 = time.perf_counter()
        codes.append(call_cli(cli, call.argv))
        if call.counted:
            counted += time.perf_counter() - t0
    done = {
        "cycle": cycle,
        "codes": codes,
        "counted_s": counted,
        "wall_s": time.perf_counter() - start,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if probe is not None:
        done["slowdown"] = probe.slowdown(first_sample)
    return done


def run_window(cli, workload, seconds=None, cycles=None, tracer=None, probe=None):
    """Closed loop of work cycles: a fixed count, or as many as are
    expected to finish within `seconds`."""
    done = []
    start = time.perf_counter()
    while True:
        done.append(run_cycle(cli, workload, len(done), tracer, probe))
        if cycles is not None:
            if len(done) >= cycles:
                return done
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(done) > seconds:
            return done


# what a check raises when the program left missing or malformed output
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, RuntimeError)


def check_cycles(workload, done):
    failed, problems, info = 0, [], []
    for d in done:
        try:
            res = workload.check(d["cycle"], d["codes"])
        except CHECK_ERRORS as err:
            problems.append(f"{workload.name} cycle {d['cycle'].index}: {err!r}")
            continue
        failed += res.failed_items
        problems.extend(res.problems)
        info.append(res.info)
    return failed, problems, info


def run_workload(name, seed, seconds=None, cycles=None, trace=False, scale="full", canonical=True):
    """Run one workload; returns a record with metrics, checks and counts."""
    cli = load_cli()
    workdir = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[name](SRC, workdir, seed, scale)
    record = {"workload": name, "seed": seed, "trace": trace, "load_before": os.getloadavg()}

    if not trace:
        record["setup_s"], record["setup_wall_s"] = setup_seconds()
    tracer = spans.Tracer() if trace else None
    with speed.SpeedProbe() as probe, tracer or contextlib.nullcontext():
        done = run_window(cli, workload, seconds, cycles, tracer, probe)
    # after the first cycle, so that it does not depend on how many cycles
    # fit in the window
    record["peak_rss_mb"] = done[0]["rss_mb"]

    failed, problems, info = check_cycles(workload, done)
    record["digests"] = [_digest_outputs(d["cycle"]) for d in done]
    attempted = sum(d["cycle"].items for d in done)
    record.update(
        cycles=len(done),
        attempted=attempted,
        raw_rates=[d["cycle"].items / d["counted_s"] for d in done],
        slowdowns=[d["slowdown"] for d in done],
        items_per_s=attempted / sum(d["counted_s"] / d["slowdown"] for d in done),
        wall_s=[d["wall_s"] for d in done],
        cycle_info=info,
    )

    if tracer is not None:
        # same inputs as the first traced cycle, tracing off; both walls in
        # reference seconds
        with speed.SpeedProbe() as probe:
            again = run_cycle(cli, workload, 0, probe=probe)
        f2, p2, _ = check_cycles(workload, [again])
        failed, problems = failed + f2, problems + p2
        traced_s = done[0]["wall_s"] / done[0]["slowdown"]
        untraced_s = again["wall_s"] / again["slowdown"]
        record["layers"] = spans.layer_metrics(tracer.spans, len(done))
        record["layers"]["trace.slowdown"] = (statistics.fmean(record["slowdowns"]), "ratio")
        record["layers"]["trace.overhead_s"] = (traced_s - untraced_s, "s")
        record["layers"]["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
        record["counts"] = spans.exact_counts(tracer.spans)
        record["spans"] = tracer.spans

    if canonical:
        try:
            got = workload.canonical(lambda argv: call_cli(cli, argv))
            problems.extend(workloads.compare_reference(name, got, workload.tolerances()))
        except CHECK_ERRORS as err:
            problems.append(f"{name} canonical case: {err!r}")
    record.update(failed=failed + len(problems), problems=problems, load_after=os.getloadavg())
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def _digest_outputs(cycle):
    """SHA-256 over every output file of a cycle except the manifests,
    which carry a timestamp."""
    h = hashlib.sha256()
    root = cycle.out_dir
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "run_manifest.json":
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def report(record, facts):
    """Human-readable lines, then the result object as the last line."""
    name = record["workload"]
    print("facts " + json.dumps({**facts, "load_before": record["load_before"], "load_after": record["load_after"]}))
    print(f"workload {name} seed {record['seed']}: {record['cycles']} cycles, "
          f"{record['attempted']} {workloads.WORKLOADS[name].item}, wall {sum(record['wall_s']):.3f} s")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    if record["trace"]:
        metrics = {k: _metric(v, u) for k, (v, u) in record["layers"].items()}
        for key, m in metrics.items():
            print(f"layer {key} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "setup_s": _metric(record["setup_s"], "s"),
            "items_per_s": _metric(record["items_per_s"], "1/s"),
            "peak_rss_mb": _metric(record["peak_rss_mb"], "MiB"),
        }
        rate_name, rate_unit = RATE_NAMES[name]
        named = {"setup_s": (record["setup_s"], "s"), rate_name: (record["items_per_s"], rate_unit)}
        errors = [i["model_err_pct"] for i in record["cycle_info"] if "model_err_pct" in i]
        if errors:
            named["model_err_pct"] = (statistics.mean(errors), "%")
        named["peak_rss_mb"] = (record["peak_rss_mb"], "MiB")
        named["failed_frac"] = (record["failed"] / record["attempted"], "ratio")
        for key, (value, unit) in named.items():
            print(f"metric {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not record["problems"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


def _save(record, facts):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    kept = {k: v for k, v in record.items() if k != "spans"}
    if "spans" in record:
        spans.write_spans(record["spans"], OUT_DIR / f"{stem}-spans.csv")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"facts": facts, **kept}, indent=1, default=str))


def write_reference(name):
    cli = load_cli()
    workdir = WORK_DIR / f"{name}-reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[name](SRC, workdir, 0)
    got = workload.canonical(lambda argv: call_cli(cli, argv))
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(got, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"wrote {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="solve the canonical case and store it as the reference")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            write_reference(args.workload)
            return 0
        record = run_workload(args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace))
        facts = machine_facts()
        _save(record, facts)
        report(record, facts)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
