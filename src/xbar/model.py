"""Data model shared by the crossbar solvers: array description, sneak-path
parameters, and the solved readout."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from xbar import runio
from xbar.ivtable import StrandPair, load_table


@dataclass
class CrossbarSpec:
    """An m x n array with its bit pattern, per-cell Fermi offsets, uniform
    interconnect segments, and the strand pair the bits map to."""

    m: int
    n: int
    r_int: float
    bits: np.ndarray
    pair: StrandPair
    delta: np.ndarray | None = None
    v_in: float = 1.0

    def __post_init__(self):
        self.m = int(self.m)
        self.n = int(self.n)
        if self.m < 1 or self.n < 1:
            raise ValueError("array dimensions must be at least 1x1")
        if self.r_int <= 0:
            raise ValueError("interconnect resistance must be positive")
        if self.v_in <= 0:
            raise ValueError("input bias must be positive")
        self.bits = np.asarray(self.bits, dtype=np.int8)
        if self.bits.shape != (self.m, self.n):
            raise ValueError(
                f"bits shape {self.bits.shape} does not match {self.m}x{self.n}"
            )
        if not np.all((self.bits == 0) | (self.bits == 1)):
            raise ValueError("bits must be 0 or 1")
        if self.delta is None:
            self.delta = np.zeros((self.m, self.n))
        self.delta = np.asarray(self.delta, dtype=float)
        if self.delta.shape != (self.m, self.n):
            raise ValueError(
                f"delta shape {self.delta.shape} does not match {self.m}x{self.n}"
            )
        for table in (self.pair.logic0_table, self.pair.logic1_table):
            d_lo, d_hi = table.delta_grid[0], table.delta_grid[-1]
            if self.delta.min() < d_lo or self.delta.max() > d_hi:
                raise ValueError(
                    f"delta values outside table '{table.strand_id}' range "
                    f"[{d_lo:.6g}, {d_hi:.6g}]"
                )
            if self.v_in > table.v_grid[-1]:
                raise ValueError(
                    f"v_in = {self.v_in:.6g} exceeds table '{table.strand_id}' "
                    f"bias range (max {table.v_grid[-1]:.6g})"
                )

    @property
    def g_int(self) -> float:
        return 1.0 / self.r_int


@dataclass
class SneakParams:
    """Row factors alpha_i and column factors beta_j, both in (0, 1].

    alpha is smallest at the first row, whose return path to ground is the
    longest.  The worst read distortion lands at (first row, last column):
    the row factor and the in-row voltage droop compound there.  The column
    factors carry no such guarantee; in sneak-heavy regimes the far columns
    receive current from neighbouring rows and their raw calibration ratio
    saturates at the clamp.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        for name, arr in (("alpha", self.alpha), ("beta", self.beta)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if np.any(arr <= 0) or np.any(arr > 1.0):
                raise ValueError(f"{name} entries must lie in (0, 1]")


@dataclass
class ReadoutSolution:
    """Converged cell voltages and measurable column currents, one activated
    row per matrix row, plus convergence bookkeeping."""

    v_cell: np.ndarray
    i_out: np.ndarray
    power: float
    iterations: int
    converged: bool
    residual: float
    solver: str
    source_current: np.ndarray | None = None
    v_normalized: np.ndarray | None = None


def compute_power(spec: CrossbarSpec, solution: ReadoutSolution) -> float:
    """Total power drawn from the source across the m row activations.

    Summing over activations (rather than averaging) keeps the number
    monotone in array size, which is how read cost scales in practice.
    Both solvers report power through this rule.  The nodal oracle reports
    the source current directly; the parametric model recovers it as the
    sum of measured column currents, which is the same number whenever
    charge is conserved.
    """
    if solution.source_current is not None:
        total = float(np.sum(solution.source_current))
    else:
        total = float(np.sum(solution.i_out))
    return spec.v_in * total


def save_readout_solution(solution: ReadoutSolution, out_dir) -> None:
    """CSV matrices plus a small JSON summary."""
    out = Path(out_dir)
    runio.write_matrix_csv(out / "v_cell.csv", solution.v_cell)
    runio.write_matrix_csv(out / "i_out.csv", solution.i_out)
    if solution.v_normalized is not None:
        runio.write_matrix_csv(out / "v_normalized.csv", solution.v_normalized)
    runio.dump_json(
        {
            "power_w": solution.power,
            "iterations": solution.iterations,
            "converged": bool(solution.converged),
            "residual_v": solution.residual,
            "solver": solution.solver,
        },
        out / "summary.json",
    )


def load_crossbar_spec(path) -> CrossbarSpec:
    """Read an array description; table paths resolve relative to the file."""
    path = Path(path)
    raw = runio.load_json(path)
    m = int(runio.require(raw, "m", path))
    n = int(runio.require(raw, "n", path))
    r_int = float(runio.require(raw, "r_int_ohm", path))
    v_in = float(raw.get("v_in_v", 1.0))
    bits = np.asarray(runio.require(raw, "bits", path), dtype=np.int8)
    if bits.size != m * n:
        raise ValueError(f"{path}: bits has {bits.size} entries, expected {m * n}")
    delta = raw.get("delta_ev")
    if delta is not None:
        delta = np.asarray(delta, dtype=float)
        if delta.size != m * n:
            raise ValueError(
                f"{path}: delta_ev has {delta.size} entries, expected {m * n}"
            )
        delta = delta.reshape(m, n)
    base = path.parent
    logic1 = load_table(base / str(runio.require(raw, "logic1_table", path)))
    logic0 = load_table(base / str(runio.require(raw, "logic0_table", path)))
    pair = StrandPair(logic0_table=logic0, logic1_table=logic1)
    return CrossbarSpec(
        m=m, n=n, r_int=r_int, bits=bits.reshape(m, n), pair=pair, delta=delta, v_in=v_in
    )


def save_crossbar_spec(spec: CrossbarSpec, path, logic1_path: str, logic0_path: str) -> None:
    """Write the array description; the tables are referenced, not embedded."""
    runio.dump_json(
        {
            "m": spec.m,
            "n": spec.n,
            "r_int_ohm": spec.r_int,
            "v_in_v": spec.v_in,
            "bits": spec.bits.ravel().tolist(),
            "delta_ev": spec.delta.ravel().tolist(),
            "logic1_table": logic1_path,
            "logic0_table": logic0_path,
        },
        path,
    )
