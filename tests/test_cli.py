"""Command-line behavior: exit codes, file outputs, manifest determinism,
and the analytic anchor for table generation."""

import csv
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

import xbar.cli as cli
from xbar import crossbar, montecarlo, runio, storage, transport as tp
from xbar.ivtable import IVTable, StrandPair, load_table, save_table, synthesize_table
from xbar.model import CrossbarSpec, ReadoutSolution, load_crossbar_spec, save_crossbar_spec
from xbar.runio import RunManifest

from factories import linear_table


def write_single_cell_spec(tmp_path, r_cell=1e6, r_int=1e4):
    save_table(linear_table(r_cell, "eq1"), tmp_path / "t1.json")
    save_table(linear_table(r_cell, "eq0"), tmp_path / "t0.json")
    pair = StrandPair(
        logic0_table=linear_table(r_cell, "eq0"),
        logic1_table=linear_table(r_cell, "eq1"),
    )
    spec = CrossbarSpec(m=1, n=1, r_int=r_int, bits=[[1]], pair=pair)
    save_crossbar_spec(spec, tmp_path / "spec.json", "t1.json", "t0.json")
    return tmp_path / "spec.json"


def write_mc_config(tmp_path, **extra):
    save_table(linear_table(1e6, "lin1"), tmp_path / "t1.json")
    save_table(linear_table(1e8, "lin0"), tmp_path / "t0.json")
    payload = {
        "m": 8,
        "n": 8,
        "r_int_ohm": 1e5,
        "delta_max_ev": 0.2,
        "seed": 11,
        "trials": 4,
        "logic1_table": "t1.json",
        "logic0_table": "t0.json",
    }
    payload.update(extra)
    runio.dump_json(payload, tmp_path / "mc.json")
    return tmp_path / "mc.json"


# --- readout commands -------------------------------------------------------


def test_solve_single_cell_summary_power(tmp_path, capsys):
    config = write_single_cell_spec(tmp_path)
    out = tmp_path / "sol"
    assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
    summary = runio.load_json(out / "summary.json")
    assert summary["power_w"] == pytest.approx(1.0 / 1.02e6, rel=1e-9)
    assert summary["converged"]
    assert (out / runio.MANIFEST_NAME).exists()
    assert "power" in capsys.readouterr().out


def test_oracle_single_cell_matches_series_formula(tmp_path):
    config = write_single_cell_spec(tmp_path)
    out = tmp_path / "orc"
    assert cli.main(["oracle", "--config", str(config), "--out", str(out)]) == 0
    summary = runio.load_json(out / "summary.json")
    assert summary["power_w"] == pytest.approx(1.0 / 1.02e6, rel=1e-9)
    assert summary["solver"] == "kirchhoff"


def test_solve_exit_two_when_not_converged(tmp_path, monkeypatch):
    config = write_single_cell_spec(tmp_path)

    def stuck(spec, params, threads=None):
        zeros = np.zeros((spec.m, spec.n))
        return ReadoutSolution(
            v_cell=zeros,
            i_out=zeros,
            power=0.0,
            iterations=200,
            converged=False,
            residual=1.0,
            solver="parametric",
        )

    monkeypatch.setattr(crossbar, "parametric_solve", stuck)
    code = cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2


def test_numerical_runtime_error_maps_to_exit_two(tmp_path, monkeypatch):
    config = write_single_cell_spec(tmp_path)

    def explode(spec, threads=None):
        raise RuntimeError("singular system")

    monkeypatch.setattr(crossbar, "kirchhoff_solve", explode)
    code = cli.main(["oracle", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2


# --- campaign commands --------------------------------------------------------


def test_mc_rerun_with_same_seed_is_byte_identical(tmp_path):
    config = write_mc_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["mc", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli.main(["mc", "--config", str(config), "--out", str(out_b)]) == 0
    for name in ("mc_trials.csv", "mc_histogram.csv", "mc_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    first = RunManifest.from_file(out_a / runio.MANIFEST_NAME)
    second = RunManifest.from_file(out_b / runio.MANIFEST_NAME)
    assert first.same_inputs(second)


def test_mc_seed_override_changes_manifest_and_outputs(tmp_path):
    config = write_mc_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["mc", "--config", str(config)]
    assert cli.main(base + ["--out", str(out_a)]) == 0
    assert cli.main(base + ["--out", str(out_b), "--seed", "12"]) == 0
    first = RunManifest.from_file(out_a / runio.MANIFEST_NAME)
    second = RunManifest.from_file(out_b / runio.MANIFEST_NAME)
    assert not first.same_inputs(second)
    assert second.seed == 12


def test_mc_flag_overrides_reach_the_report(tmp_path):
    config = write_mc_config(tmp_path)
    out = tmp_path / "o"
    code = cli.main(
        [
            "mc",
            "--config",
            str(config),
            "--out",
            str(out),
            "--size",
            "4x6",
            "--trials",
            "2",
            "--rint",
            "2e4",
            "--solver",
            "kirchhoff",
        ]
    )
    assert code == 0
    summary = runio.load_json(out / "mc_summary.json")
    assert summary["trials"] == 2
    assert summary["solver"] == "kirchhoff"


def test_campaign_spec_follows_the_flags(tmp_path, monkeypatch):
    """A flag that replaces a campaign's geometry or interconnect rebuilds
    the campaign's spec, so every trial reads arrays of the flagged size on
    the flagged interconnect rather than the file's."""
    config = cli._with_flags(
        montecarlo.load_mc_config(write_mc_config(tmp_path)),
        {"--size": {"m": 6, "n": 5}, "--rint": {"r_int": 2e4}},
    )
    assert (config.spec.m, config.spec.n, config.spec.r_int) == (6, 5, 2e4)

    built, read_shapes = [], []
    array_reader = montecarlo.array_reader

    def recording_reader(solver, spec, threads):
        built.append((spec.m, spec.n, spec.r_int))
        read = array_reader(solver, spec, threads)

        def recorded(stack):
            read_shapes.append(stack.bits.shape[-2:])
            return read(stack)

        return recorded

    monkeypatch.setattr(montecarlo, "array_reader", recording_reader)
    path = write_mc_config(tmp_path)
    out = tmp_path / "out"
    argv = ["mc", "--config", str(path), "--out", str(out), "--size", "6x5", "--rint", "2e4"]
    assert cli.main(argv) == cli.EXIT_OK
    assert built == [(6, 5, 2e4)]
    assert read_shapes and all(shape == (6, 5) for shape in read_shapes)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("mc", "--delta-max", "0.5"),
        ("mc", "--trials", "0"),
        ("mc", "--size", "0x3"),
        ("mc", "--rint", "-1"),
        ("mc", "--seed", "-1"),
        ("store", "--rint", "1e4,1e4"),
        ("store", "--rint", "-1"),
        ("store", "--size", "0x3"),
    ],
    ids=["mc-delta-max-past-tables", "mc-trials-zero", "mc-size-zero", "mc-rint-negative",
         "mc-seed-negative", "store-rint-repeated", "store-rint-negative", "store-size-zero"],
)
def test_out_of_range_flag_exits_one_and_names_the_flag(tmp_path, capsys, command, flag, value):
    """A flag value goes through the checks of the file value it replaces,
    and the error names the flag, raised before anything is written."""
    config = {"mc": write_mc_config, "store": write_store_config}[command](tmp_path)
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out), flag, value]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("iv-gen", "--v-max", "-1"),
        ("iv-gen", "--v-points", "0"),
        ("iv-gen", "--delta-points", "0"),
        ("iv-gen", "--temperature", "0"),
        ("iv-gen", "--gamma-probe", "-1"),
        ("iv-gen", "--gamma-contact", "0"),
        ("iv-synth", "--r-low", "-1"),
        ("iv-synth", "--knee", "2"),
        ("iv-synth", "--sensitivity", "-1"),
    ],
)
def test_out_of_range_table_flag_exits_one_and_names_it(tmp_path, capsys, command, flag, value):
    """A table generator's flag goes through the library's own check, and
    the error names the flags that fed the failing call, this one among
    them, before anything is written."""
    out = tmp_path / "out"
    argv = pinned_run(tmp_path, command) + ["--out", str(out), flag, value]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: --")
    named = err.removeprefix("error: ").split(": ")[0].split(", ")
    assert flag in named and all(name.startswith("--") for name in named)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [("mc", "every trial failed to converge"), ("store", "every tile failed to converge")],
)
def test_campaign_where_every_array_fails_exits_two(tmp_path, capsys, monkeypatch, command, message):
    read = crossbar.parametric_solve

    def unconverged(spec, params, **kwargs):
        sol = read(spec, params, **kwargs)
        sol.converged[:] = False  # one flag per array of the stack
        return sol

    monkeypatch.setattr(crossbar, "parametric_solve", unconverged)
    config = {"mc": write_mc_config, "store": write_store_config}[command](tmp_path)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "oracle", "mc", "store", "iv-gen"])
@pytest.mark.parametrize("threads", ["0", "-1", "x"])
def test_thread_count_below_one_exits_one_and_writes_nothing(tmp_path, capsys, command, threads):
    """--threads is checked as the flags are parsed: a count below one, or
    no count at all, is an input error, raised before anything is written."""
    out = tmp_path / "out"
    argv = pinned_run(tmp_path, command) + ["--out", str(out), "--threads", threads]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "argument --threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("mc", "--size", "8by8", "expected <m>x<n>, got '8by8'"),
        ("store", "--rint", "1e6,abc", "bad resistance list '1e6,abc'"),
    ],
    ids=["size-without-x", "rint-not-a-number"],
)
def test_unparsable_flag_exits_one_and_names_it(tmp_path, capsys, command, flag, value, message):
    """A flag value that does not parse is an input error naming the flag
    and the value, raised as the flags are parsed."""
    out = tmp_path / "out"
    argv = pinned_run(tmp_path, command) + ["--out", str(out), flag, value]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


# config digests of one run of each command on the fixtures in this file; a
# change to how the CLI serializes its inputs must leave them byte-identical.
# mc was re-pinned once, when booleans began to serialize as JSON booleans:
# its payload's only boolean, per_cell, went from 1 to true (before that the
# pin was e421dab6d428183f759f943f07f464d8832f3e76b88bf7b682b2567fd7248662)
PINNED_DIGESTS = {
    "solve": "3730b4db52eec0838689294706ab0e4910568569dff04a19e6c5fb8fc11efce1",
    "oracle": "79f0acf8903788f72f04d9a2d1fbd529401068171f2e450f9281d1ff3978e27c",
    "mc": "10e84baed9bf75552a8f9d7ad664c871c55f8776b487a23ad7cfe68de5c9221a",
    "store": "c696c1b8b91e8a75a8ccc2de04ca8aaf28b2fdbf7bc927c49e0ec8e953bf51c4",
    "store-shipped": "1ae402a335bcb57bd142ea7ac148a163c4f64d072c846b65096f49130a833649",
    "iv-synth": "92a58d312ad719d6c1a2064e9dc23addbe0346aff1911c39957e4c38bcb696bd",
    "iv-gen": "9b686a41e13129f71fc82dc1ab1014caa9648edb71291014596c382c4a3866c1",
}


def pinned_run(tmp_path, case):
    """argv of the run whose digest PINNED_DIGESTS[case] records."""
    if case in ("solve", "oracle"):
        spec = write_single_cell_spec(tmp_path)
        write_mc_config(tmp_path)  # the readout pins read the spec with the mc tables
        return [case, "--config", str(spec)]
    if case == "mc":
        return ["mc", "--config", str(write_mc_config(tmp_path))]
    if case == "store":
        return ["store", "--config", str(write_store_config(tmp_path))]
    if case == "store-shipped":
        config = write_store_config(tmp_path)
        raw = runio.load_json(config)
        del raw["logic1_table"], raw["logic0_table"]
        runio.dump_json(raw, config)
        return ["store", "--config", str(config), "--size", "16x16"]
    if case == "iv-synth":
        return ["iv-synth", "--r-low", "1e6", "--r-high", "2e7", "--strand-id", "pin"]
    tp.save_quantum_system(
        tp.QuantumSystem([[-5.3]], [[1.0]], [1], homo_energy=-5.3), tmp_path / "site.json"
    )
    return ["iv-gen", "--config", str(tmp_path / "site.json"), "--v-points", "3", "--delta-points", "2"]


@pytest.mark.parametrize("case", list(PINNED_DIGESTS))
def test_manifest_digests_are_pinned(tmp_path, case):
    out = tmp_path / "out"
    assert cli.main(pinned_run(tmp_path, case) + ["--out", str(out)]) == 0
    manifest = RunManifest.from_file(out / runio.MANIFEST_NAME)
    assert manifest.config_digest == PINNED_DIGESTS[case]


def write_store_config(tmp_path):
    rng = np.random.default_rng(5)
    (tmp_path / "img.bin").write_bytes(bytes(rng.integers(0, 256, 64, dtype=np.uint8)))
    save_table(linear_table(1e6, "lin1"), tmp_path / "t1.json")
    save_table(linear_table(1e8, "lin0"), tmp_path / "t0.json")
    runio.dump_json(
        {
            "images": [{"path": "img.bin", "name": "img"}],
            "sizes": [[8, 8]],
            "r_int_ohm": [1e4, 1e5],
            "logic1_table": "t1.json",
            "logic0_table": "t0.json",
        },
        tmp_path / "store.json",
    )
    return tmp_path / "store.json"


def test_store_benchmark_writes_report(tmp_path):
    config = write_store_config(tmp_path)
    out = tmp_path / "st"
    code = cli.main(["store", "--config", str(config), "--out", str(out)])
    assert code == 0
    tiles = (out / "storage_tiles.csv").read_text().splitlines()
    assert tiles[0] == "tile_id,size,r_int_ohm,bit_load_pct,ber,power_w"
    assert len(tiles) == 1 + 16  # 8 tiles per interconnect value
    assert (out / runio.MANIFEST_NAME).exists()


def test_store_with_a_repeated_rint_exits_one(tmp_path, capsys):
    config = write_store_config(tmp_path)
    out = tmp_path / "st"
    code = cli.main(["store", "--config", str(config), "--rint", "1e4,1e4", "--out", str(out)])
    assert code == cli.EXIT_INPUT
    assert "r_int 10000 is listed more than once" in capsys.readouterr().err
    assert not (out / "storage_tiles.csv").exists()


@pytest.mark.parametrize(
    "images, message",
    [
        ([{"path": "a/img.bin"}, {"path": "b/img.bin"}], "image img is listed more than once"),
        ([{"path": "img.bin", "name": ""}], "field 'name' must not be empty"),
    ],
    ids=["same-stem", "empty-name"],
)
def test_store_image_names_are_distinct_and_not_empty(tmp_path, capsys, images, message):
    """Each tile id starts with its image's name: two images of one name
    would write tiles of the same id, and an empty name would write ids
    naming no image."""
    config = write_store_config(tmp_path)
    for folder, seed in (("a", 1), ("b", 2)):
        (tmp_path / folder).mkdir()
        data = np.random.default_rng(seed).integers(0, 256, 64, dtype=np.uint8)
        (tmp_path / folder / "img.bin").write_bytes(bytes(data))
    raw = runio.load_json(config)
    raw["images"] = images
    runio.dump_json(raw, config)
    out = tmp_path / "out"
    assert cli.main(["store", "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:.*does not span")
@pytest.mark.parametrize("command", ["mc", "store"])
def test_table_short_of_read_bias_exits_one_and_names_remedy(tmp_path, capsys, command):
    """A table generated with iv-gen --v-max below 1 V cannot serve a read
    at 1 V; the error names the strand, where its grid ends and the flag."""
    config = write_mc_config(tmp_path)
    v = np.linspace(0.0, 0.8, 5)
    short = IVTable("short0", v, [0.0, 0.2], np.tile(v / 1e8, (2, 1)))
    save_table(short, tmp_path / "t0.json")
    if command == "store":
        (tmp_path / "img.bin").write_bytes(bytes(range(8)))
        config = tmp_path / "store.json"
        runio.dump_json(
            {
                "images": [{"path": "img.bin", "name": "img"}],
                "sizes": [[8, 8]],
                "r_int_ohm": [1e4],
                "logic1_table": "t1.json",
                "logic0_table": "t0.json",
            },
            config,
        )
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "'short0' ends at 0.8 V" in err
    assert "--v-max" in err


# --- plot export ----------------------------------------------------------------


def test_plot_data_exports_heatmaps_from_readout(tmp_path):
    config = write_single_cell_spec(tmp_path)
    sol = tmp_path / "sol"
    assert cli.main(["solve", "--config", str(config), "--out", str(sol)]) == 0
    plots = tmp_path / "plots"
    assert cli.main(["plot-data", "--config", str(sol), "--out", str(plots)]) == 0
    for name in ("heat_v_cell.csv", "heat_i_out.csv"):
        lines = (plots / name).read_text().splitlines()
        assert lines[0] == "row,col,value"
        assert len(lines) == 2  # 1x1 array


def test_both_solvers_write_one_readout_contract(tmp_path):
    """solve and oracle write the same files for one spec, and plot-data
    exports the same heatmaps from either."""
    config = write_single_cell_spec(tmp_path)
    written = {}
    for command in ("solve", "oracle"):
        out, plots = tmp_path / command, tmp_path / f"plots-{command}"
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
        assert cli.main(["plot-data", "--config", str(out), "--out", str(plots)]) == 0
        written[command] = [sorted(path.name for path in d.iterdir()) for d in (out, plots)]
    assert written["solve"] == written["oracle"]
    assert written["solve"][1] == ["heat_i_out.csv", "heat_v_cell.csv", runio.MANIFEST_NAME]


def test_plot_data_exports_histogram_and_boxplot(tmp_path):
    config = write_mc_config(tmp_path)
    mc_out = tmp_path / "mc"
    assert cli.main(["mc", "--config", str(config), "--out", str(mc_out)]) == 0
    plots = tmp_path / "p1"
    assert cli.main(["plot-data", "--config", str(mc_out), "--out", str(plots)]) == 0
    hist = (plots / "histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_center_na,count_logic0,count_logic1"
    series = (plots / "ber_series.csv").read_text().splitlines()
    assert series[0] == "trial,ber"
    assert len(series) == 1 + 4


def test_plot_data_exports_boxplot_and_power_from_a_store_report(tmp_path):
    """boxplot.csv and power.csv hold the summary's binned BER and mean
    power rows, and the manifest digests the summary they came from."""
    config = write_store_config(tmp_path)
    report = tmp_path / "st"
    assert cli.main(["store", "--config", str(config), "--out", str(report)]) == 0
    plots = tmp_path / "plots"
    assert cli.main(["plot-data", "--config", str(report), "--out", str(plots)]) == 0
    summary = runio.load_json(report / "storage_summary.json")
    stats = ["min", "q1", "median", "q3", "max"]
    exports = [
        ("boxplot.csv", "binned_ber", ["r_int_ohm", "bit_load_pct", "count", *stats],
         ["r_int_ohm", "bit_load_pct", "count", *(f"{k}_ber" for k in stats)]),
        ("power.csv", "power_vs_rint", ["r_int_ohm", "power_mean_w"],
         ["r_int_ohm", "power_mean_w"]),
    ]
    for name, key, fields, header in exports:
        with open(plots / name, newline="") as fh:
            head, *rows = list(csv.reader(fh))
        assert head == ["size", *header]
        expected = [[f"{row['m']}x{row['n']}", *(row[f] for f in fields)] for row in summary[key]]
        assert expected and [[size, *map(float, values)] for size, *values in rows] == expected
    manifest = RunManifest.from_file(plots / runio.MANIFEST_NAME)
    digest = hashlib.sha256((report / "storage_summary.json").read_bytes()).hexdigest()
    assert manifest.config_digest == runio.digest_payload({"sources": {"storage_summary.json": digest}})


def test_plot_data_rejects_unknown_directory(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = cli.main(["plot-data", "--config", str(tmp_path / "empty"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "no recognizable report" in capsys.readouterr().err


def test_plot_data_rejects_a_file_for_its_report_directory(tmp_path, capsys):
    report = tmp_path / "mc_summary.json"
    report.write_text("{}")
    code = cli.main(["plot-data", "--config", str(report), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {report}: expected a report directory\n"
    assert not (tmp_path / "o").exists()


def _files(root):
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("case", ["plot-data-into-its-mc-report", "store-into-a-solve-directory"])
def test_out_holding_another_commands_outputs_exits_one(tmp_path, capsys, case):
    """A command refuses an --out whose manifest records another command,
    before it solves or writes anything: its own manifest would replace
    that one.  The error names the directory and that command."""
    if case == "plot-data-into-its-mc-report":
        out, owner = tmp_path / "mc", "mc"
        assert cli.main(["mc", "--config", str(write_mc_config(tmp_path)), "--out", str(out)]) == 0
        argv = ["plot-data", "--config", str(out), "--out", str(out)]
    else:
        out, owner = tmp_path / "sol", "parametric"
        spec = write_single_cell_spec(tmp_path)
        assert cli.main(["solve", "--config", str(spec), "--out", str(out)]) == 0
        argv = ["store", "--config", str(write_store_config(tmp_path)), "--out", str(out)]
    before = _files(out)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {out}: holds the outputs of {owner}; choose another --out\n"
    assert _files(out) == before


def test_rerun_into_its_own_out_overwrites_it(tmp_path):
    """The same command, run again into its own --out, replaces its outputs;
    a readout's manifest records its solver, not the subcommand."""
    configs = {"mc": write_mc_config(tmp_path), "oracle": write_single_cell_spec(tmp_path)}
    for command, config in configs.items():
        out = tmp_path / command
        for _ in range(2):
            assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    assert RunManifest.from_file(tmp_path / "mc" / runio.MANIFEST_NAME).seed == 11
    assert RunManifest.from_file(tmp_path / "oracle" / runio.MANIFEST_NAME).command == "kirchhoff"


def test_out_naming_a_file_exits_one_before_reading(tmp_path, capsys, monkeypatch):
    """An --out that exists and is not a directory is an input error naming
    it, raised before any array is read; the file is left as it was."""

    def no_reads(*args):
        raise AssertionError("an array reader was built")

    monkeypatch.setattr(montecarlo, "array_reader", no_reads)
    out = tmp_path / "afile"
    out.write_text("kept")
    argv = ["mc", "--config", str(write_mc_config(tmp_path)), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {out}: --out exists and is not a directory\n"
    assert out.read_text() == "kept"


def test_plot_data_names_a_missing_companion_file(tmp_path, capsys):
    """A report directory with mc_histogram.csv but no mc_trials.csv is an
    input error naming the directory and the missing file; nothing is written."""
    mc_out, plots = tmp_path / "mc", tmp_path / "plots"
    assert cli.main(["mc", "--config", str(write_mc_config(tmp_path)), "--out", str(mc_out)]) == 0
    (mc_out / "mc_trials.csv").unlink()
    capsys.readouterr()
    assert cli.main(["plot-data", "--config", str(mc_out), "--out", str(plots)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mc_out}: cannot read '{mc_out / 'mc_trials.csv'}': ")
    assert not plots.exists()


# --- table generation -------------------------------------------------------------


def test_iv_synth_round_trips_the_synthesized_table(tmp_path):
    out = tmp_path / "synth"
    code = cli.main(
        [
            "iv-synth",
            "--out",
            str(out),
            "--r-low",
            "1e6",
            "--r-high",
            "2e7",
            "--knee",
            "0.4",
            "--sensitivity",
            "6.0",
            "--strand-id",
            "demo",
        ]
    )
    assert code == 0
    back = load_table(out / "iv_table.json")
    direct = synthesize_table(1e6, 2e7, knee=0.4, delta_sensitivity=6.0, strand_id="demo")
    np.testing.assert_array_equal(back.current, direct.current)
    np.testing.assert_array_equal(back.v_grid, direct.v_grid)


def test_iv_gen_single_site_matches_analytic_current(tmp_path):
    eps = -5.3
    tp.save_quantum_system(
        tp.QuantumSystem([[eps]], [[1.0]], [1], homo_energy=eps),
        tmp_path / "site.json",
    )
    out = tmp_path / "gen"
    code = cli.main(
        [
            "iv-gen",
            "--config",
            str(tmp_path / "site.json"),
            "--out",
            str(out),
            "--v-points",
            "3",
            "--delta-points",
            "2",
            "--gamma-contact",
            "1.0",
        ]
    )
    assert code == 0
    table = load_table(out / "iv_table.json")
    kt = tp.KB_EV * 300.0
    for idl, delta in enumerate(table.delta_grid):
        for iv, v in enumerate(table.v_grid):
            if v == 0.0:
                assert table.current[idl, iv] == 0.0
                continue
            mu_l = eps + delta
            mu_r = mu_l + v
            fine = np.arange(mu_l - 10 * kt, mu_r + 10 * kt + 5e-6, 1e-5)
            level = eps + 0.5 * v
            t_analytic = 1.0 / ((fine - level) ** 2 + 1.0)
            window = tp.fermi_occupation(fine, mu_r, kt) - tp.fermi_occupation(
                fine, mu_l, kt
            )
            oracle = tp.G0_S * trapezoid(t_analytic * window, fine)
            assert table.current[idl, iv] == pytest.approx(oracle, rel=5e-3)


# --- round trips and input errors ----------------------------------------------


def test_large_spec_round_trip_is_identity(tmp_path):
    rng = np.random.default_rng(9)
    pair = StrandPair(
        logic0_table=linear_table(1e8, "lin0"),
        logic1_table=linear_table(1e6, "lin1"),
    )
    save_table(pair.logic1_table, tmp_path / "t1.json")
    save_table(pair.logic0_table, tmp_path / "t0.json")
    bits = rng.integers(0, 2, size=(128, 128)).astype(np.int8)
    delta = rng.uniform(0.0, 0.2, size=(128, 128))
    spec = CrossbarSpec(m=128, n=128, r_int=5e4, bits=bits, delta=delta, pair=pair)
    save_crossbar_spec(spec, tmp_path / "spec.json", "t1.json", "t0.json")
    back = load_crossbar_spec(tmp_path / "spec.json")
    np.testing.assert_array_equal(back.bits, spec.bits)
    np.testing.assert_array_equal(back.delta, spec.delta)
    assert back.r_int == spec.r_int
    assert back.v_in == spec.v_in


def test_truncated_config_exits_one_and_names_field(tmp_path, capsys):
    runio.dump_json({"m": 1, "n": 1}, tmp_path / "broken.json")
    code = cli.main(["solve", "--config", str(tmp_path / "broken.json"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "r_int_ohm" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "mc", "store", "iv-gen"])
def test_config_holding_a_json_array_exits_one_and_names_it(tmp_path, capsys, command):
    """A config file whose top level is not a JSON object is an input
    error naming the file and the first field it was read for."""
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: field '") and "must be in a JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("store", "r_int_ohm", 1e5),
        ("store", "sizes", [8, 8]),
        ("store", "images", {"path": "img.bin"}),
        ("store", "images", ["img.bin"]),
        ("mc", "m", None),
        ("mc", "m", 8.7),
        ("mc", "per_cell", "false"),
        ("solve", "m", 2.5),
    ],
    ids=["store-rint-scalar", "store-sizes-flat", "store-images-object", "store-image-string",
         "mc-m-null", "mc-m-fraction", "mc-per-cell-string", "spec-m-fraction"],
)
def test_mistyped_config_field_exits_one_and_names_it(tmp_path, capsys, command, key, value):
    """A field of the wrong JSON kind is an input error naming the file and
    the field: never a traceback, and never coerced into a run."""
    write = {"store": write_store_config, "mc": write_mc_config, "solve": write_single_cell_spec}
    config = write[command](tmp_path)
    raw = runio.load_json(config)
    raw[key] = value
    runio.dump_json(raw, config)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(config) in err and f"'{key}'" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "key, value",
    [("level", 300), ("sizes", [[0, 8]]), ("sizes", [[8, -1]]), ("images", []), ("sizes", []),
     ("r_int_ohm", []), ("r_int_ohm", [1e4, 0.0]), ("r_int_ohm", [-1e4]), ("v_in_v", 0.0),
     ("v_in_v", -1.0)],
    ids=["store-level-300", "store-size-zero", "store-size-negative", "store-images-empty",
         "store-sizes-empty", "store-rint-empty", "store-rint-zero", "store-rint-negative",
         "store-vin-zero", "store-vin-negative"],
)
def test_out_of_range_store_value_exits_one_and_names_it(tmp_path, capsys, key, value):
    """A store value of the right kind but out of range is an input error
    naming the file and the field, raised before any tile is read."""
    config = write_store_config(tmp_path)
    raw = runio.load_json(config)
    if key == "level":
        raw["images"][0]["level"] = value
    else:
        raw[key] = value
    runio.dump_json(raw, config)
    out = tmp_path / "out"
    assert cli.main(["store", "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: field '{key}'")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "key, value",
    [("r_int_ohm", -1.0), ("trials", 0), ("delta_max_ev", 0.5), ("v_in_v", 0.0)],
    ids=["mc-rint-negative", "mc-trials-zero", "mc-delta-max-past-tables", "mc-vin-zero"],
)
def test_out_of_range_mc_value_exits_one_and_names_the_file(tmp_path, capsys, key, value):
    """A campaign value of the right kind but out of range is an input
    error naming the file, raised before any trial is read."""
    config = write_mc_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert cli.main(["mc", "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {config}: ")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, key, value, expect",
    [
        ("mc", "v_in_v", 1.5, "v_in_v"),
        ("store", "v_in_v", 1.5, "v_in_v"),
        ("mc", "delta_grid_ev", [0.05, 0.2], "delta_grid_ev"),
        ("store", "delta_grid_ev", [0.05, 0.2], "delta_grid_ev"),
    ],
    ids=["mc-vin-past-tables", "store-vin-past-tables", "mc-delta-grid-above-zero",
         "store-delta-grid-above-zero"],
)
def test_campaign_past_the_tables_exits_one_before_reading(tmp_path, capsys, monkeypatch,
                                                          command, key, value, expect):
    """A read bias past the tables' last bias node, or offsets off their
    offset grid, is an input error naming the file and the field; it is
    raised while the file is read, before any array is read."""
    config = {"mc": write_mc_config, "store": write_store_config}[command](tmp_path)
    if key == "v_in_v":
        raw = runio.load_json(config)
        raw[key] = value
        runio.dump_json(raw, config)
    else:
        raw = runio.load_json(tmp_path / "t0.json")
        raw[key] = value
        runio.dump_json(raw, tmp_path / "t0.json")

    def no_reads(*args):
        raise AssertionError("an array reader was built")

    monkeypatch.setattr(montecarlo, "array_reader", no_reads)
    monkeypatch.setattr(storage, "array_reader", no_reads)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the grid fails validate_table too
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and expect in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, key, value, flags",
    [
        ("solve", "r_int_ohm", float("nan"), []),
        ("oracle", "r_int_ohm", float("nan"), []),
        ("oracle", "r_int_ohm", float("inf"), []),
        ("oracle", "v_in_v", float("nan"), []),
        ("oracle", "delta_ev", [float("nan")], []),
        ("mc", "r_int_ohm", float("inf"), []),
        ("mc", "v_in_v", float("nan"), []),
        ("mc", "--rint", "nan", ["--solver", "kirchhoff"]),
        ("mc", "--rint", "inf", []),
        ("store", "r_int_ohm", [float("inf")], []),
        ("store", "--rint", "nan", []),
    ],
    ids=["solve-rint-nan", "oracle-rint-nan", "oracle-rint-inf", "oracle-vin-nan",
         "oracle-delta-nan", "mc-rint-inf", "mc-vin-nan", "mc-flag-rint-nan", "mc-flag-rint-inf",
         "store-rint-inf", "store-flag-rint-nan"],
)
def test_non_finite_value_exits_one_and_names_it(tmp_path, capsys, command, key, value, flags):
    """NaN and infinity pass a plain sign check: each is an input error
    naming the field or flag, raised before anything is solved or written."""
    write = {"store": write_store_config, "mc": write_mc_config, "solve": write_single_cell_spec,
             "oracle": write_single_cell_spec}
    config = write[command](tmp_path)
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out), *flags]
    if key.startswith("--"):
        argv += [key, value]
    else:
        raw = runio.load_json(config)
        raw[key] = value
        runio.dump_json(raw, config)
    assert cli.main(argv) == cli.EXIT_INPUT
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_spec_bits_outside_zero_one_exit_one_and_name_the_file(tmp_path, capsys):
    """257 overflows int8 and would wrap to 1 in an int64 array: the spec
    is rejected as an input error before any cast."""
    config = write_single_cell_spec(tmp_path)
    raw = runio.load_json(config)
    for bits in ([257], [2], [-1]):
        raw["bits"] = bits
        runio.dump_json(raw, config)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and "bits" in err
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, key, value",
    [("mc", "trails", 3), ("store", "solver", "kirchhoff"), ("store", "levl", 100),
     ("oracle", "delta", [0.1])],
    ids=["mc-trails", "store-solver", "store-image-levl", "spec-delta"],
)
def test_unknown_config_field_exits_one_and_names_it(tmp_path, capsys, command, key, value):
    """A key the loader does not read is an input error naming the file and
    the key: a misspelled field would otherwise run on its default."""
    write = {"store": write_store_config, "mc": write_mc_config, "oracle": write_single_cell_spec}
    config = write[command](tmp_path)
    raw = runio.load_json(config)
    (raw["images"][0] if key == "levl" else raw)[key] = value
    runio.dump_json(raw, config)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {config}: unknown field '{key}'")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, file",
    [("store", "img.bin"), ("mc", "t1.json"), ("oracle", "t0.json")],
    ids=["store-image", "mc-table", "spec-table"],
)
def test_missing_referenced_file_exits_one_and_names_the_config(tmp_path, capsys, command, file):
    """An image or table the config names but that cannot be read is an
    input error naming the config, the file and the reason."""
    write = {"store": write_store_config, "mc": write_mc_config, "oracle": write_single_cell_spec}
    config = write[command](tmp_path)
    (tmp_path / file).unlink()
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {config}: cannot read '{tmp_path / file}': No such file or directory\n"
    )
    assert not out.exists()


def write_system(tmp_path):
    tp.save_quantum_system(tp.tight_binding_chain(2, block_size=2), tmp_path / "system.json")
    return tmp_path / "system.json"


@pytest.mark.parametrize(
    "command, file, edit, message",
    [
        ("oracle", "spec.json", {"m": 0, "bits": [], "delta_ev": []},
         "array dimensions must be at least 1x1"),
        ("solve", "spec.json", {"m": -2, "n": -2, "bits": [1, 0, 1, 0], "delta_ev": [0.0] * 4},
         "array dimensions must be at least 1x1"),
        ("oracle", "spec.json", {"m": 2, "n": 2, "bits": [1, 0, 1]},
         "bits has 3 entries, expected 4"),
        ("oracle", "spec.json", {"m": 2, "n": 2, "bits": [1, 0, 1, 0], "delta_ev": [0.1]},
         "delta_ev has 1 entries, expected 4"),
        ("store", "store.json", {"sizes": [[8, 8, 8]]}, "field 'sizes' must list [m, n] pairs"),
        ("iv-gen", "system.json", {"fock": [-5.0] * 15}, "fock has 15 entries, expected 16"),
        ("iv-gen", "system.json", {"partition": [2, 3]}, "partition sums to 5, expected 4"),
        ("iv-gen", "system.json", {"partition": []}, "partition is empty"),
        ("iv-gen", "system.json", {"partition": [4, 0]}, "partition entries must be positive"),
        ("oracle", "t1.json", {"current_a": [0.0] * 5}, "current_a has 5 entries, expected 6"),
        ("oracle", "t1.json", {"v_grid_v": [0.0, 1.0, 0.5]}, "v_grid must be strictly increasing"),
        ("oracle", "t1.json", {"v_grid_v": [], "current_a": []}, "v_grid needs at least one point"),
        ("oracle", "t1.json", {"delta_grid_ev": [], "current_a": []},
         "delta_grid needs at least one point"),
        ("oracle", "t1.json", {"delta_grid_ev": [0.2, 0.0]}, "delta_grid must be strictly increasing"),
    ],
    ids=["spec-empty", "spec-negative-size", "spec-bits-short", "spec-delta-short", "store-size-triple",
         "system-fock-short", "system-partition-sum", "system-partition-empty",
         "system-partition-zero", "table-current-short", "table-v-grid-swapped", "table-v-grid-empty",
         "table-delta-grid-empty", "table-delta-grid-decreasing"],
)
def test_inconsistent_input_file_exits_one_and_names_it(tmp_path, capsys, command, file, edit,
                                                        message):
    """A file whose fields disagree with each other, or with the shape they
    declare, is an input error naming that file."""
    write = {"oracle": write_single_cell_spec, "solve": write_single_cell_spec,
             "store": write_store_config, "iv-gen": write_system}
    config = write[command](tmp_path)
    raw = runio.load_json(tmp_path / file)
    raw.update(edit)
    runio.dump_json(raw, tmp_path / file)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / file}: ") and message in err
    assert not out.exists() or not any(out.iterdir())


def test_dump_json_writes_booleans_as_json_booleans(tmp_path):
    path = tmp_path / "flags.json"
    runio.dump_json({"t": True, "f": False, "np": np.bool_(True), "arr": np.array([False])}, path)
    text = path.read_text()
    for key, word in (("t", "true"), ("f", "false"), ("np", "true")):
        assert f'"{key}": {word}' in text
    assert runio.load_json(path)["arr"] == [False] and "0" not in text


def test_numpy_values_are_written_as_their_python_values(tmp_path):
    """dump_json and digest_payload write numpy scalars and arrays, 0-d and
    nested, and tuples exactly as the same values in plain Python types;
    an object JSON has no form for is still a TypeError, and dump_json
    then leaves the file it would have replaced as it was."""
    nan = float("nan")
    as_numpy = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7), "flag": np.bool_(True),
        "nan": np.float64(nan), "zero_d": np.array(2.5), "grid": np.array([[1.0, nan], [3.0, 4.0]]),
        "pair": (np.int64(1), np.array([0.5, 2.0])),
        "nested": [{"ids": np.arange(3)}, (np.float32(2.0),)],
    }
    as_python = {
        "f64": 0.1, "f32": float(np.float32(0.1)), "i64": -7, "flag": True,
        "nan": nan, "zero_d": 2.5, "grid": [[1.0, nan], [3.0, 4.0]],
        "pair": [1, [0.5, 2.0]],
        "nested": [{"ids": [0, 1, 2]}, [2.0]],
    }
    for name, payload in (("numpy", as_numpy), ("python", as_python)):
        runio.dump_json(payload, tmp_path / f"{name}.json")
    text = (tmp_path / "numpy.json").read_bytes()
    assert text == (tmp_path / "python.json").read_bytes() and b"NaN" in text
    assert runio.digest_payload(as_numpy) == runio.digest_payload(as_python)
    with pytest.raises(TypeError):
        runio.dump_json({"ids": {1, 2}}, tmp_path / "numpy.json")
    assert (tmp_path / "numpy.json").read_bytes() == text  # not truncated
    with pytest.raises(TypeError):
        runio.digest_payload({"ids": {1, 2}})


def test_unknown_flag_prints_usage_and_exits_one(tmp_path, capsys):
    assert cli.main(["solve", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert cli.main(["transmogrify"]) == 1
    assert "usage" in capsys.readouterr().err


def run_child(argv):
    # the child does not inherit pytest's pythonpath setting, so hand it src
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )


def test_module_entry_point_runs():
    result = run_child(["-m", "xbar", "--help"])
    assert result.returncode == 0
    assert "iv-synth" in result.stdout


# Imports xbar.cli, loads the shipped tables, then runs a tiny iv-gen (two
# blocks of two orbitals, a 3 x 2 grid) and an 8 x 8 oracle on them, and
# prints after each step the scipy modules it has loaded.
NO_SCIPY_CHILD = """
import sys
from pathlib import Path

import numpy as np


def step(name):
    print("scipy after", name, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), flush=True)


import xbar.cli as cli
from xbar import defaults, transport as tp
from xbar.model import CrossbarSpec, save_crossbar_spec

step("import")
pair = defaults.shipped_pair()
step("tables")
out = Path(sys.argv[1])
fock = np.array([[-5.3, -0.2, -0.1, 0.0], [-0.2, -5.0, -0.2, 0.0], [-0.1, -0.2, -5.4, -0.3], [0.0, 0.0, -0.3, -5.1]])
tp.save_quantum_system(tp.QuantumSystem(fock, np.eye(4), [2, 2], homo_energy=-5.3), out / "chain.json")
argv = ["--config", str(out / "chain.json"), "--v-points", "3", "--delta-points", "2"]
assert cli.main(["iv-gen", *argv, "--out", str(out / "gen")]) == 0
step("iv-gen")
rng = np.random.default_rng(3)
spec = CrossbarSpec(m=8, n=8, r_int=1e6, bits=rng.integers(0, 2, (8, 8)), pair=pair, delta=rng.uniform(0.0, 0.2, (8, 8)))
paths = [str(defaults.shipped_table_path(name)) for name in (defaults.LOGIC1_NAME, defaults.LOGIC0_NAME)]
save_crossbar_spec(spec, out / "spec.json", *paths)
assert cli.main(["oracle", "--config", str(out / "spec.json"), "--out", str(out / "orc")]) == 0
step("oracle")
"""


def test_cli_loads_no_scipy_for_tables_iv_gen_or_oracle(tmp_path):
    """A fresh interpreter that imports the CLI, loads the shipped tables and
    runs iv-gen and the oracle never imports scipy: it is loaded only where
    a command solves with it (the ladder and the oracle's sparse route)."""
    result = run_child(["-c", NO_SCIPY_CHILD, str(tmp_path)])
    assert result.returncode == 0, result.stderr
    steps = [line.split(" ", 3)[2:] for line in result.stdout.splitlines() if line.startswith("scipy after ")]
    assert steps == [[name, "[]"] for name in ("import", "tables", "iv-gen", "oracle")]
