"""Command-line front end.

Every subcommand writes its numeric outputs plus a RunManifest into the
directory named by --out.  The manifest digest covers the resolved inputs
(file contents, not paths), so two runs with equal manifests are
guaranteed to produce byte-identical numbers.

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

import argparse
import csv
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import runio
from .crossbar import SOLVERS, array_reader
from .ivtable import pair_payload, save_table, synthesize_table
from .model import load_crossbar_spec, save_readout_solution, spec_payload
from .montecarlo import load_mc_config, mc_config_payload, run_mc, save_mc_report
from .storage import load_store_config, run_storage_benchmark, save_storage_report, store_payload
from .transport import ContactProbeConfig, iv_sweep, load_quantum_system

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_size(text: str):
    try:
        m, n = (int(side) for side in text.split("x"))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected <m>x<n>, got '{text}'") from err
    return m, n


def _parse_rints(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad resistance list '{text}'") from err


def _parse_threads(text: str) -> int:
    try:
        threads = int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected a thread count, got '{text}'") from err
    if threads < 1:
        raise argparse.ArgumentTypeError("thread count must be at least 1")
    return threads


# the solver each readout subcommand runs, which its manifest records
_READOUT_SOLVERS = {"solve": "parametric", "oracle": "kirchhoff"}


def _command(args) -> str:
    """The command a run records in its manifest."""
    return _READOUT_SOLVERS.get(args.subcommand, args.subcommand)


def _check_out(args) -> None:
    """Refuse, before anything runs, an --out that is a file or holds another
    command's manifest, which this run would replace; a rerun overwrites its own."""
    if Path(args.out).exists() and not Path(args.out).is_dir():
        raise ValueError(f"{args.out}: --out exists and is not a directory")
    path = Path(args.out) / runio.MANIFEST_NAME
    if path.exists():
        owner = runio.RunManifest.from_file(path).command
        if owner != _command(args):
            raise ValueError(f"{args.out}: holds the outputs of {owner}; choose another --out")


def _write_manifest(args, payload, seed) -> None:
    digest = runio.digest_payload(payload)
    runio.RunManifest(command=_command(args), config_digest=digest, seed=seed).write(args.out)


# --- table generation -------------------------------------------------------


def _flag_payload(args) -> dict:
    """The parsed flags that shape a table, under their argparse names."""
    skip = ("subcommand", "func", "config", "out", "threads")
    return {key: value for key, value in vars(args).items() if key not in skip}


def cmd_iv_gen(args) -> int:
    system = load_quantum_system(args.config)
    with runio.named("--gamma-contact, --gamma-probe"):
        config = ContactProbeConfig(
            gamma_contact=args.gamma_contact, gamma_probe=args.gamma_probe
        )
    with runio.named("--v-max, --v-points, --delta-max, --delta-points, --temperature"):
        table = iv_sweep(
            system,
            config,
            np.linspace(0.0, args.v_max, args.v_points),
            np.linspace(0.0, args.delta_max, args.delta_points),
            temperature=args.temperature,
            threads=args.threads,
            strand_id=args.strand_id,
        )
    payload = {**_flag_payload(args), "system": runio.load_json(args.config)}
    _write_manifest(args, payload, None)
    save_table(table, Path(args.out) / "iv_table.json")
    print(f"iv-gen: {table.v_grid.size}x{table.delta_grid.size} grid -> iv_table.json")
    return EXIT_OK


def cmd_iv_synth(args) -> int:
    with runio.named("--r-low, --r-high, --knee, --sensitivity"):
        table = synthesize_table(
            args.r_low,
            args.r_high,
            knee=args.knee,
            delta_sensitivity=args.sensitivity,
            strand_id=args.strand_id,
        )
    _write_manifest(args, _flag_payload(args), None)
    save_table(table, Path(args.out) / "iv_table.json")
    print(f"iv-synth: strand '{table.strand_id}' -> iv_table.json")
    return EXIT_OK


# --- readout ----------------------------------------------------------------


def cmd_readout(args) -> int:
    solver = _READOUT_SOLVERS[args.subcommand]
    spec = load_crossbar_spec(args.config)
    solution = array_reader(solver, spec, args.threads)(spec)
    payload = {"spec": {**spec_payload(spec), **pair_payload(spec.pair)}, "solver": solver}
    _write_manifest(args, payload, None)
    save_readout_solution(solution, args.out)
    print(
        f"{solver}: power {solution.power:.6e} W in {solution.iterations} Newton steps,"
        f" residual {solution.residual:.3e} V"
    )
    if not solution.converged:
        print(f"{solver}: iteration did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# --- campaigns ----------------------------------------------------------------


def _with_flags(config, flags: dict):
    """config with the fields of every flag given replaced in it.

    flags maps each flag to the fields its value sets, a field set to None
    where the flag was not given.  The config's own checks run on the
    result, and their errors name the flags given.
    """
    given = {flag: fields for flag, fields in flags.items() if None not in fields.values()}
    if not given:
        return config
    changes = {name: value for fields in given.values() for name, value in fields.items()}
    with runio.named(", ".join(given)):
        return dataclasses.replace(config, **changes)


def cmd_mc(args) -> int:
    m, n = args.size or (None, None)
    flags = {
        "--seed": {"seed": args.seed},
        "--trials": {"trials": args.trials},
        "--rint": {"r_int": args.rint},
        "--delta-max": {"delta_max": args.delta_max},
        "--size": {"m": m, "n": n},
        "--solver": {"solver": args.solver},
    }
    config = _with_flags(load_mc_config(args.config), flags)
    report = run_mc(config, threads=args.threads)
    _write_manifest(args, mc_config_payload(config), config.seed)
    save_mc_report(report, args.out)
    print(
        f"mc: {report.trials} trials, mean BER {report.ber_mean:.6f},"
        f" {len(report.failed_trials)} failed"
    )
    return EXIT_OK


def cmd_store(args) -> int:
    flags = {
        "--size": {"sizes": args.size and [args.size]},
        "--rint": {"r_ints": args.rint},
        "--solver": {"solver": args.solver},
    }
    config = _with_flags(load_store_config(args.config), flags)
    report = run_storage_benchmark(config, threads=args.threads)
    _write_manifest(args, store_payload(config), None)
    save_storage_report(report, args.out)
    print(f"store: {len(report.per_tile)} tiles, {report.failures} failed")
    if report.per_tile and report.failures == len(report.per_tile):
        print("store: every tile failed to converge", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# --- plot export --------------------------------------------------------------


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _mc_plots(src):
    hist, trials = (_read_csv_rows(src / name) for name in ("mc_histogram.csv", "mc_trials.csv"))
    return {
        "histogram.csv": (
            ["bin_center_na", "count_logic0", "count_logic1"],
            [(0.5 * (float(lo) + float(hi)), int(c0), int(c1)) for lo, hi, c0, c1 in hist],
        ),
        "ber_series.csv": (["trial", "ber"], [(int(row[0]), float(row[1])) for row in trials]),
    }


def _store_plots(src):
    summary = runio.load_json(src / "storage_summary.json")

    def by_size(key, columns):
        return [(f"{row['m']}x{row['n']}", *(row[c] for c in columns)) for row in summary[key]]

    box = ("min", "q1", "median", "q3", "max")
    return {
        "boxplot.csv": (
            ["size", "r_int_ohm", "bit_load_pct", "count", *(f"{k}_ber" for k in box)],
            by_size("binned_ber", ("r_int_ohm", "bit_load_pct", "count", *box)),
        ),
        "power.csv": (
            ["size", "r_int_ohm", "power_mean_w"],
            by_size("power_vs_rint", ("r_int_ohm", "power_mean_w")),
        ),
    }


def _heat_plots(src):
    return {
        f"heat_{name}.csv": np.loadtxt(src / f"{name}.csv", delimiter=",", ndmin=2)
        for name in ("v_cell", "i_out")
    }


# each report kind: the files plot-data reads from it, the first of which
# marks the kind, and the function from the report directory to its plot
# tables by file name, each (header, rows) or a matrix for a heat map
_PLOT_KINDS = (
    (("mc_histogram.csv", "mc_trials.csv"), _mc_plots),
    (("storage_summary.json",), _store_plots),
    (("v_cell.csv", "i_out.csv"), _heat_plots),
)


def cmd_plot_data(args) -> int:
    src, out = Path(args.config), Path(args.out)
    if not src.is_dir():
        raise ValueError(f"{src}: expected a report directory")
    for files, plots in _PLOT_KINDS:
        if (src / files[0]).exists():
            break
    else:
        raise ValueError(f"{src}: no recognizable report files")
    contents = {name: runio.read_referenced(src, src / name, Path.read_bytes) for name in files}
    tables = plots(src)
    sources = {name: hashlib.sha256(data).hexdigest() for name, data in contents.items()}
    for name, table in tables.items():
        if isinstance(table, np.ndarray):
            runio.write_long_csv(out / name, table)
        else:
            runio.write_rows_csv(out / name, *table)
    _write_manifest(args, {"sources": sources}, None)
    print(f"plot-data: wrote {', '.join(tables)}")
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="xbar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text, config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if config:
            p.add_argument("--config", required=True, help="input file or directory")
        p.add_argument("--out", required=True, help="output directory")
        return p

    def add_threaded(name, func, help_text):
        p = add(name, func, help_text)
        p.add_argument("--threads", type=_parse_threads, default=1, help="worker threads (default: 1)")
        return p

    p = add_threaded("iv-gen", cmd_iv_gen, "integrate a current table from a quantum system")
    p.add_argument("--strand-id", default="system")
    p.add_argument("--v-max", type=float, default=1.0)
    p.add_argument("--v-points", type=int, default=21)
    p.add_argument("--delta-max", type=float, default=0.2)
    p.add_argument("--delta-points", type=int, default=5)
    p.add_argument("--gamma-contact", type=float, default=1.0)
    p.add_argument("--gamma-probe", type=float, default=0.010)
    p.add_argument("--temperature", type=float, default=300.0)

    p = add("iv-synth", cmd_iv_synth, "synthesize a smooth current table", config=False)
    p.add_argument("--r-low", type=float, required=True)
    p.add_argument("--r-high", type=float, required=True)
    p.add_argument("--knee", type=float, default=0.35)
    p.add_argument("--sensitivity", type=float, default=8.0)
    p.add_argument("--strand-id", default="synth")

    # the parametric readout runs on one thread, but solve keeps --threads:
    # the benchmark (perfbench/workloads.py) passes it to solve and oracle alike
    add_threaded("solve", cmd_readout, "readout via the sneak-path model")
    add_threaded("oracle", cmd_readout, "readout via full nodal analysis")

    p = add_threaded("mc", cmd_mc, "seeded variability campaign")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--rint", type=float, default=None)
    p.add_argument("--delta-max", type=float, default=None)
    p.add_argument("--size", type=_parse_size, default=None)
    p.add_argument("--solver", choices=SOLVERS, default=None)

    p = add_threaded("store", cmd_store, "image storage benchmark sweep")
    p.add_argument("--rint", type=_parse_rints, default=None)
    p.add_argument("--size", type=_parse_size, default=None)
    p.add_argument("--solver", choices=SOLVERS, default=None)

    add("plot-data", cmd_plot_data, "export gnuplot-ready columns from a report")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out(args)
        return args.func(args)
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
