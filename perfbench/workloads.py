"""The four benchmark workloads: seeded inputs, CLI calls, output checks.

A workload is a sequence of work cycles.  Cycle k gets its inputs from
`SeedSequence(seed, spawn_key=(k,))`, written as plain JSON and byte files
by this module (xbar sees only those files), and runs one or more
`xbar.cli.main` calls on them.  Calls marked as counted make up the timed
part of the cycle that the workload's rate is taken over.

Each workload also has a canonical case: fixed inputs at the workload's own
array size, solved after the timed window and compared against the
reference outputs committed in `references/` at solver tolerance.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# seed of every canonical case; never derived from the run's --seed
CANONICAL_SEED = 20230428


@dataclass
class Call:
    argv: list
    counted: bool  # part of the timed span the rate is taken over


@dataclass
class Cycle:
    index: int
    calls: list
    items: int  # trials, driven oracle rows, tiles or table points
    out_dir: Path  # every output of the cycle lands below here
    context: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    failed_items: int = 0
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok


def _rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def _write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _copy_tables(src_root, workdir):
    data = Path(src_root) / "xbar" / "data"
    for name in ("logic1.json", "logic0.json"):
        shutil.copyfile(data / name, Path(workdir) / name)


TABLES = {"logic1_table": "logic1.json", "logic0_table": "logic0.json"}


class Workload:
    """Base: subclasses fill in sizes, `cycle`, `check` and `canonical`."""

    name = ""
    item = ""

    def __init__(self, src_root, workdir, seed, scale="full"):
        if scale not in ("full", "tiny"):
            raise ValueError(f"unknown scale '{scale}'")
        self.src_root = Path(src_root)
        self.workdir = Path(workdir)
        self.seed = seed
        self.workdir.mkdir(parents=True, exist_ok=True)
        _copy_tables(self.src_root, self.workdir)

    def cycle_dir(self, k):
        path = self.workdir / f"c{k}"
        path.mkdir(parents=True, exist_ok=True)
        return path


# --- mc-128 -------------------------------------------------------------------


def _check_mc_outputs(out, trials, cells, res):
    summary = json.loads((out / "mc_summary.json").read_text())
    res.require(summary["trials"] == trials, f"{out.name}: {summary['trials']} trials, expected {trials}")
    res.failed_items += len(summary["failed_trials"])
    _, rows = _read_csv(out / "mc_trials.csv")
    res.require([int(r[0]) for r in rows] == list(range(trials)), f"{out.name}: trial rows out of order")
    for r in rows:
        ber, pol, v_bar = float(r[1]), int(r[3]), float(r[4])
        if not (0.0 <= ber <= 0.5 and pol in (-1, 1) and 0.0 < v_bar <= 1.0):
            res.failed_items += 1
            res.problems.append(f"{out.name}: trial {r[0]} out of range: {r}")
    _, hist = _read_csv(out / "mc_histogram.csv")
    pooled = sum(int(h[2]) + int(h[3]) for h in hist)
    res.require(pooled == trials * cells, f"{out.name}: histogram holds {pooled} cells, expected {trials * cells}")
    return rows


class McWorkload(Workload):
    """`xbar mc`, parametric solver, per-cell disorder, one thread."""

    name = "mc-128"
    item = "trials"

    def __init__(self, src_root, workdir, seed, scale="full"):
        super().__init__(src_root, workdir, seed, scale)
        self.size = 128 if scale == "full" else 8
        self.trials = 6 if scale == "full" else 2

    def _config(self, path, xbar_seed, trials):
        _write_json(
            {"m": self.size, "n": self.size, "r_int_ohm": 1e6, "delta_max_ev": 0.2,
             "seed": xbar_seed, "trials": trials, "p_one": 0.5, "per_cell": True, **TABLES},
            path,
        )

    def cycle(self, k):
        out = self.cycle_dir(k)
        cfg = self.workdir / f"mc{k}.json"
        self._config(cfg, int(_rng(self.seed, k).integers(2**31)), self.trials)
        argv = ["mc", "--config", str(cfg), "--out", str(out / "mc"), "--threads", "1"]
        return Cycle(k, [Call(argv, True)], self.trials, out, {"out": out / "mc"})

    def check(self, cycle, codes):
        res = CheckResult()
        if res.require(codes == [0], f"mc cycle {cycle.index}: exit codes {codes}"):
            _check_mc_outputs(cycle.context["out"], self.trials, self.size**2, res)
        return res

    def canonical(self, run_cli):
        cfg = self.workdir / "mc-canonical.json"
        out = self.workdir / "canonical"
        self._config(cfg, CANONICAL_SEED, 1)
        code = run_cli(["mc", "--config", str(cfg), "--out", str(out), "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"canonical mc exited with {code}")
        res = CheckResult()
        rows = _check_mc_outputs(out, 1, self.size**2, res)
        if res.problems:
            raise RuntimeError("; ".join(res.problems))
        return {
            "ber": [float(r[1]) for r in rows],
            "threshold_a": [float(r[2]) for r in rows],
            "mean_cell_voltage_v": [float(r[4]) for r in rows],
        }

    def tolerances(self):
        # a BER may move by a few cells sitting on the cut; voltages and the
        # cut itself by the solver's 1e-6 V stopping tolerance
        return {"ber": (0.0, 3.0 / self.size**2), "threshold_a": (1e-4, 0.0),
                "mean_cell_voltage_v": (0.0, 1e-5)}


# --- oracle-64 ----------------------------------------------------------------


def _spec(rng, m, r_int):
    return {
        "m": m, "n": m, "r_int_ohm": r_int, "v_in_v": 1.0,
        "bits": rng.integers(0, 2, size=m * m).tolist(),
        "delta_ev": rng.uniform(0.0, 0.2, size=m * m).tolist(),
        **TABLES,
    }


def _load_matrix(path):
    return np.atleast_2d(np.loadtxt(path, delimiter=",", ndmin=2))


class OracleWorkload(Workload):
    """`xbar oracle` and `xbar solve` on the same two random specs."""

    name = "oracle-64"
    item = "oracle rows"

    def __init__(self, src_root, workdir, seed, scale="full"):
        super().__init__(src_root, workdir, seed, scale)
        # (rows, interconnect): the reference size and the sneak-heavy case
        self.specs = ((64, 1e6), (32, 1e7)) if scale == "full" else ((8, 1e6), (6, 1e7))

    def _write_specs(self, rng, tag):
        paths = []
        for m, r_int in self.specs:
            path = self.workdir / f"spec{tag}-{m}.json"
            _write_json(_spec(rng, m, r_int), path)
            paths.append(path)
        return paths

    def cycle(self, k):
        out = self.cycle_dir(k)
        paths = self._write_specs(_rng(self.seed, k), k)
        calls, pairs = [], []
        for path, (m, _) in zip(paths, self.specs):
            calls.append(Call(["oracle", "--config", str(path), "--out", str(out / f"oracle{m}"), "--threads", "1"], True))
            pairs.append((m, out / f"oracle{m}", out / f"solve{m}"))
        for path, (m, _) in zip(paths, self.specs):
            calls.append(Call(["solve", "--config", str(path), "--out", str(out / f"solve{m}"), "--threads", "1"], False))
        rows = sum(m for m, _ in self.specs)
        return Cycle(k, calls, rows, out, {"pairs": pairs})

    def check(self, cycle, codes):
        res = CheckResult()
        n_oracle = len(self.specs)
        for code, (m, _, _) in zip(codes[:n_oracle], cycle.context["pairs"]):
            if code != 0:
                res.failed_items += m
        if not res.require(all(c == 0 for c in codes), f"oracle cycle {cycle.index}: exit codes {codes}"):
            return res
        errors = []
        for m, oracle_dir, solve_dir in cycle.context["pairs"]:
            for d in (oracle_dir, solve_dir):
                summary = json.loads((d / "summary.json").read_text())
                res.require(summary["converged"], f"{d.name}: did not converge")
            i_oracle = _load_matrix(oracle_dir / "i_out.csv")
            i_param = _load_matrix(solve_dir / "i_out.csv")
            ok = (i_oracle.shape == (m, m) == i_param.shape
                  and np.all(np.isfinite(i_oracle)) and np.all(i_oracle > 0)
                  and np.all(np.isfinite(i_param)) and np.all(i_param > 0))
            if res.require(ok, f"{oracle_dir.name}: currents missing, non-finite or not positive"):
                errors.append(np.abs(i_param - i_oracle) / np.abs(i_oracle))
        if errors:
            err_pct = 100.0 * float(np.mean(np.concatenate([e.ravel() for e in errors])))
            # the model is an approximation, but not one that misses by the
            # whole signal
            res.require(err_pct < 100.0, f"oracle cycle {cycle.index}: model error {err_pct:.1f} %")
            res.info["model_err_pct"] = err_pct
        return res

    def canonical(self, run_cli):
        # driven rows at both edges and the middle, straight through the
        # layers, plus the full parametric readout of the same specs
        import xbar.crossbar as crossbar
        import xbar.model as model
        import xbar.nodal as nodal

        ref = {}
        for path, (m, _) in zip(self._write_specs(np.random.default_rng(CANONICAL_SEED), "-canonical"), self.specs):
            spec = model.load_crossbar_spec(path)
            rows = sorted({0, m // 2, m - 1})
            oracle = np.vstack([nodal.kirchhoff_row_solve(spec, i).i_out for i in rows])
            param = crossbar.parametric_solve(spec, crossbar.calibrate_sneak_params(spec), threads=1)
            ref[f"oracle{m}_i_out"] = oracle.ravel().tolist()
            ref[f"param{m}_i_out"] = param.i_out[rows].ravel().tolist()
            ref[f"model{m}_err_pct"] = [100.0 * float(np.mean(np.abs(param.i_out[rows] - oracle) / oracle))]
        return ref

    def tolerances(self):
        # both solvers stop once no node voltage moves by more than 1e-6 V
        tol = {}
        for m, _ in self.specs:
            tol[f"oracle{m}_i_out"] = (1e-4, 0.0)
            tol[f"param{m}_i_out"] = (1e-4, 0.0)
            tol[f"model{m}_err_pct"] = (0.0, 0.01)
        return tol


# --- store-sweep --------------------------------------------------------------


def smooth_raster(rng, height, width):
    """Grayscale bytes: one slow wave down the rows plus a weaker ripple,
    so that bands of rows, and with them the tiles read with a mid-gray
    threshold, range from all zeros to all ones."""
    y, x = np.mgrid[0:height, 0:width] / np.array([height, width]).reshape(2, 1, 1)
    field_ = np.cos(2 * np.pi * rng.uniform(0.8, 1.6) * y + rng.uniform(0, 2 * np.pi))
    field_ += 0.3 * np.cos(
        2 * np.pi * (rng.uniform(0.5, 2.0) * x + rng.uniform(-0.5, 0.5) * y) + rng.uniform(0, 2 * np.pi)
    )
    field_ = (field_ - field_.min()) / (field_.max() - field_.min())
    return np.round(255 * field_).astype(np.uint8).tobytes()


class StoreWorkload(Workload):
    """`xbar store` over a smooth raster and a random blob, two sizes, two
    interconnect values, one thread.  On two threads a 2-vCPU Intel Xeon
    virtual machine gave rates spread by 12 % across ten seeds
    (interpreter-lock contention that the speed probe cannot see), so the
    timed sweep stays on one thread and only the canonical case, which must
    match at any thread count, runs the pool."""

    name = "store-sweep"
    item = "tiles"
    LEVEL = 128

    def __init__(self, src_root, workdir, seed, scale="full"):
        super().__init__(src_root, workdir, seed, scale)
        if scale == "full":
            self.sizes, self.raster_shape, self.blob_bytes = [(32, 32), (64, 64)], (96, 64), 1024
        else:
            self.sizes, self.raster_shape, self.blob_bytes = [(8, 8), (16, 16)], (16, 12), 24
        self.r_ints = [1e4, 1e6]

    def _write_corpus(self, rng, tag, raster_shape, blob_bytes):
        raster = smooth_raster(rng, *raster_shape)
        blob = rng.integers(0, 256, size=blob_bytes, dtype=np.uint8).tobytes()
        (self.workdir / f"raster{tag}.gray").write_bytes(raster)
        (self.workdir / f"blob{tag}.bin").write_bytes(blob)
        cfg = self.workdir / f"store{tag}.json"
        _write_json(
            {"images": [
                {"path": f"raster{tag}.gray", "binarization": "gray-threshold", "level": self.LEVEL, "name": "raster"},
                {"path": f"blob{tag}.bin", "binarization": "raw-bits", "name": "blob"}],
             "sizes": [list(s) for s in self.sizes], "r_int_ohm": self.r_ints, **TABLES},
            cfg,
        )
        bits = {
            "raster": (np.frombuffer(raster, dtype=np.uint8) >= self.LEVEL).astype(np.int8),
            "blob": np.unpackbits(np.frombuffer(blob, dtype=np.uint8)).astype(np.int8),
        }
        return cfg, self._expected_tiles(bits)

    def _expected_tiles(self, bits):
        """(tile id, size, r_int, bit load %) in report order, computed here
        independently of xbar's tiling."""
        expected = []
        for m, n in self.sizes:
            tiles = []
            for name, b in bits.items():
                count = math.ceil(b.size / (m * n))
                for t in range(count):
                    chunk = b[t * m * n:(t + 1) * m * n]
                    tiles.append((f"{name}/t{t}", 100.0 * float(chunk.sum()) / chunk.size))
            for r_int in self.r_ints:
                expected.extend((tid, f"{m}x{n}", r_int, load) for tid, load in tiles)
        return expected

    def cycle(self, k):
        out = self.cycle_dir(k) / "store"
        cfg, expected = self._write_corpus(_rng(self.seed, k), k, self.raster_shape, self.blob_bytes)
        argv = ["store", "--config", str(cfg), "--out", str(out), "--threads", "1"]
        return Cycle(k, [Call(argv, True)], len(expected), out.parent, {"out": out, "expected": expected})

    @staticmethod
    def _check_tiles(out, expected, res):
        summary = json.loads((out / "storage_summary.json").read_text())
        res.failed_items += int(summary["failures"])
        _, rows = _read_csv(out / "storage_tiles.csv")
        got = [(r[0], r[1], float(r[2])) for r in rows]
        if not res.require(got == [e[:3] for e in expected], f"{out.name}: tile list differs from the corpus"):
            return rows
        for r, e in zip(rows, expected):
            load, ber, power = float(r[3]), float(r[4]), float(r[5])
            if not (abs(load - e[3]) <= 1e-9 and 0.0 <= ber <= 0.5 and power > 0.0):
                res.failed_items += 1
                res.problems.append(f"{out.name}: tile {r[0]} at {r[2]} out of range: {r}")
        return rows

    def check(self, cycle, codes):
        res = CheckResult()
        if res.require(codes == [0], f"store cycle {cycle.index}: exit codes {codes}"):
            self._check_tiles(cycle.context["out"], cycle.context["expected"], res)
        return res

    def canonical(self, run_cli):
        # a third of the raster and a quarter of the blob: a dozen tiles
        height, width = self.raster_shape
        cfg, expected = self._write_corpus(
            np.random.default_rng(CANONICAL_SEED), "-canonical", (height // 3, width), self.blob_bytes // 4
        )
        out = self.workdir / "canonical"
        code = run_cli(["store", "--config", str(cfg), "--out", str(out), "--threads", "2"])
        if code != 0:
            raise RuntimeError(f"canonical store exited with {code}")
        res = CheckResult()
        rows = self._check_tiles(out, expected, res)
        if res.problems or res.failed_items:
            raise RuntimeError("; ".join(res.problems) or "canonical tiles failed")
        return {
            "ber": [float(r[4]) for r in rows],
            "bit_load_pct": [float(r[3]) for r in rows],
            "power_w": [float(r[5]) for r in rows],
        }

    def tolerances(self):
        cells = min(m * n for m, n in self.sizes)
        return {"ber": (0.0, 3.0 / cells), "bit_load_pct": (0.0, 1e-9), "power_w": (1e-4, 0.0)}


# --- ivgen-chain --------------------------------------------------------------


def chain_system(rng, n_blocks, block_size, onsite=-5.2, intra_hop=0.2, inter_hop=0.1, jitter=0.05):
    """System file contents for a nearest-neighbour chain with seeded
    onsite disorder and an identity overlap."""
    n_orb = n_blocks * block_size
    fock = np.diag(onsite + rng.uniform(-jitter, jitter, size=n_orb))
    for a in range(n_orb - 1):
        hop = inter_hop if (a + 1) % block_size == 0 else intra_hop
        fock[a, a + 1] = fock[a + 1, a] = hop
    return {
        "n_orb": n_orb,
        "partition": [block_size] * n_blocks,
        "homo_energy_ev": onsite,
        "fock": fock.ravel().tolist(),
        "overlap": np.eye(n_orb).ravel().tolist(),
    }


class IvgenWorkload(Workload):
    """`xbar iv-gen` on a seeded tight-binding chain, one thread."""

    name = "ivgen-chain"
    item = "table points"

    def __init__(self, src_root, workdir, seed, scale="full"):
        super().__init__(src_root, workdir, seed, scale)
        if scale == "full":
            self.chain, self.grid = (7, 4), (11, 3)
        else:
            self.chain, self.grid = (2, 2), (3, 2)

    def _argv(self, system, out, grid):
        return ["iv-gen", "--config", str(system), "--out", str(out), "--threads", "1",
                "--v-points", str(grid[0]), "--delta-points", str(grid[1]), "--strand-id", "chain"]

    def cycle(self, k):
        out = self.cycle_dir(k) / "iv"
        system = self.workdir / f"chain{k}.json"
        _write_json(chain_system(_rng(self.seed, k), *self.chain), system)
        points = (self.grid[0] - 1) * self.grid[1]  # v = 0 costs nothing
        return Cycle(k, [Call(self._argv(system, out, self.grid), True)], points, out.parent, {"out": out})

    def _check_table(self, out, grid, res):
        table = json.loads((out / "iv_table.json").read_text())
        v = np.asarray(table["v_grid_v"])
        cur = np.asarray(table["current_a"], dtype=float)
        if not res.require(v.size == grid[0] and len(table["delta_grid_ev"]) == grid[1]
                           and cur.size == grid[0] * grid[1], f"{out.name}: table grid has the wrong shape"):
            return cur
        cur = cur.reshape(grid[1], grid[0])
        bad = ~np.isfinite(cur[:, 1:]) | (cur[:, 1:] <= 0)
        res.failed_items += int(bad.sum())
        res.require(not bad.any(), f"{out.name}: {int(bad.sum())} non-positive or non-finite currents")
        res.require(np.all(cur[:, 0] == 0.0), f"{out.name}: nonzero current at zero bias")
        return cur

    def check(self, cycle, codes):
        res = CheckResult()
        if res.require(codes == [0], f"iv-gen cycle {cycle.index}: exit codes {codes}"):
            self._check_table(cycle.context["out"], self.grid, res)
        return res

    def canonical(self, run_cli):
        system = self.workdir / "chain-canonical.json"
        _write_json(chain_system(np.random.default_rng(CANONICAL_SEED), *self.chain), system)
        out = self.workdir / "canonical"
        grid = (3, 2)
        code = run_cli(self._argv(system, out, grid))
        if code != 0:
            raise RuntimeError(f"canonical iv-gen exited with {code}")
        res = CheckResult()
        cur = self._check_table(out, grid, res)
        if res.problems:
            raise RuntimeError("; ".join(res.problems))
        return {"current_a": cur.ravel().tolist()}

    def tolerances(self):
        # currents are integrated on a 1 meV energy grid
        return {"current_a": (1e-3, 1e-15)}


WORKLOADS = {w.name: w for w in (McWorkload, OracleWorkload, StoreWorkload, IvgenWorkload)}


def compare_reference(name, got, tolerances):
    """Problems found comparing canonical outputs with the committed
    reference; every value must satisfy |got - ref| <= atol + rtol*|ref|."""
    path = REFERENCE_DIR / f"{name}.json"
    ref = json.loads(path.read_text())
    problems = []
    for key, (rtol, atol) in tolerances.items():
        a, b = np.asarray(got.get(key, []), dtype=float), np.asarray(ref.get(key, []), dtype=float)
        if a.shape != b.shape:
            problems.append(f"{name} reference {key}: shape {a.shape} vs {b.shape}")
            continue
        worst = np.abs(a - b) - (atol + rtol * np.abs(b))
        if worst.size and not np.all(worst <= 0):
            k = int(np.argmax(worst))
            problems.append(f"{name} reference {key}[{k}]: {float(a.flat[k])!r} vs {float(b.flat[k])!r}")
    return problems
