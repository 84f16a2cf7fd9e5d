"""Data model shared by the crossbar solvers: array description, sneak-path
parameters, and the solved readout."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from xbar import runio
from xbar.ivtable import PAIR_KEYS, StrandPair, load_pair


@dataclass
class CrossbarSpec:
    """An m x n array with its bit pattern, per-cell Fermi offsets, uniform
    interconnect segments, and the strand pair the bits map to.

    bits and delta may also hold a stack of B arrays, shaped (B, m, n),
    that share everything else; a solver then reads every array of the
    stack and reports each on its own (see ReadoutSolution)."""

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
        if not (self.r_int > 0 and np.isfinite(self.r_int)):
            raise ValueError(f"r_int_ohm must be positive and finite, got {self.r_int:g}")
        if not (self.v_in > 0 and np.isfinite(self.v_in)):
            raise ValueError(f"v_in_v must be positive and finite, got {self.v_in:g}")
        bits = np.asarray(self.bits)
        if bits.ndim not in (2, 3) or bits.shape[-2:] != (self.m, self.n) or bits.size == 0:
            raise ValueError(
                f"bits shape {bits.shape} does not match {self.m}x{self.n}"
            )
        # before the cast, which would wrap 257 to 1
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must be 0 or 1")
        self.bits = bits.astype(np.int8, copy=False)
        if self.delta is None:
            self.delta = np.zeros(self.bits.shape)
        self.delta = np.asarray(self.delta, dtype=float)
        if self.delta.shape != self.bits.shape:
            raise ValueError(
                f"delta shape {self.delta.shape} does not match bits shape {self.bits.shape}"
            )
        self.pair.check_range(self.v_in, self.delta, "delta_ev values")

    @property
    def g_int(self) -> float:
        return 1.0 / self.r_int

    @property
    def stack_shape(self) -> tuple:
        """() for a single array, (B,) for a stack of B arrays."""
        return self.bits.shape[:-2]

    def arrays(self) -> list:
        """Each array of a stack as a spec of its own; a single array
        gives [self]."""
        if not self.stack_shape:
            return [self]
        return [replace(self, bits=b, delta=d) for b, d in zip(self.bits, self.delta)]


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
    row per matrix row, plus convergence bookkeeping.

    The readout of a stack mirrors its spec: v_cell, i_out and
    source_current carry the stack axis first, and power and converged
    hold one entry per array.  iterations and residual are the maxima over
    every row read."""

    v_cell: np.ndarray
    i_out: np.ndarray
    power: float | np.ndarray
    iterations: int
    converged: bool | np.ndarray
    residual: float
    solver: str
    source_current: np.ndarray | None = None

    @classmethod
    def from_rows(
        cls, spec: CrossbarSpec, solver: str, v_cell, i_out, steps, converged, size,
        source_current=None,
    ) -> ReadoutSolution:
        """The readout of spec from the results of its rows, row b m + i
        being row i of array b: cell voltages and column currents (n each),
        Newton step counts, convergence flags and last step sizes, and
        optionally source currents.  An array has converged when all its
        rows have.

        power is v_in times the current drawn over the m row activations of
        each array: the source current when it is reported (the oracle),
        the column currents otherwise (the parametric model, which does not
        model the source); the two agree whenever charge is conserved.
        Summing rather than averaging keeps power monotone in array size,
        as read cost scales."""
        rows = spec.stack_shape + (spec.m,)
        converged = np.reshape(converged, rows).all(axis=-1)
        i_out = np.reshape(i_out, spec.bits.shape)
        if source_current is not None:
            source_current = np.reshape(source_current, rows)
        drawn = i_out if source_current is None else source_current
        total = np.sum(np.reshape(drawn, spec.stack_shape + (-1,)), axis=-1)
        return cls(
            v_cell=np.reshape(v_cell, spec.bits.shape),
            i_out=i_out,
            power=spec.v_in * (total if spec.stack_shape else float(total)),
            iterations=int(np.max(steps)),
            converged=converged if spec.stack_shape else bool(converged),
            residual=float(np.max(size)),
            solver=solver,
            source_current=source_current,
        )


def save_readout_solution(solution: ReadoutSolution, out_dir) -> None:
    """CSV matrices plus a small JSON summary."""
    out = Path(out_dir)
    runio.write_matrix_csv(out / "v_cell.csv", solution.v_cell)
    runio.write_matrix_csv(out / "i_out.csv", solution.i_out)
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
    m = runio.require(raw, "m", path, int)
    n = runio.require(raw, "n", path, int)
    r_int = runio.require(raw, "r_int_ohm", path, float)
    v_in = runio.require(raw, "v_in_v", path, float, 1.0)
    bits = runio.require(raw, "bits", path, [int])
    delta = runio.require(raw, "delta_ev", path, [float], None)
    for key, cells in (("bits", bits), ("delta_ev", delta)):
        if cells is not None and len(cells) != m * n:
            raise ValueError(f"{path}: {key} has {len(cells)} entries, expected {m * n}")
    bits = np.reshape(bits, (m, n))
    delta = None if delta is None else np.reshape(delta, (m, n))
    pair = load_pair(raw, path)
    try:
        return CrossbarSpec(m=m, n=n, r_int=r_int, bits=bits, pair=pair, delta=delta, v_in=v_in)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def spec_payload(spec: CrossbarSpec) -> dict:
    """The array less its tables, as a spec file and a readout manifest hold it."""
    return {
        "m": spec.m,
        "n": spec.n,
        "r_int_ohm": spec.r_int,
        "v_in_v": spec.v_in,
        "bits": spec.bits.ravel().tolist(),
        "delta_ev": spec.delta.ravel().tolist(),
    }


def save_crossbar_spec(spec: CrossbarSpec, path, logic1_path: str, logic0_path: str) -> None:
    """Write the array description; the tables are referenced, not embedded."""
    refs = dict(zip(PAIR_KEYS, (logic1_path, logic0_path)))
    runio.dump_json({**spec_payload(spec), **refs}, path)
