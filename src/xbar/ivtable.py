"""Per-strand current lookup tables on a (Fermi offset, bias) grid.

The tables bridge the transport and circuit layers: the transport engine
writes them, the crossbar solvers only ever read currents and chord
conductances back out through bilinear interpolation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from xbar import runio

V_FLOOR = 1e-3  # volts; below this, conductance falls back to the secant slope

# grids and knee width of every synthesized table
SYNTH_V_GRID = np.linspace(0.0, 1.0, 21)
SYNTH_DELTA_GRID = np.linspace(0.0, 0.2, 11)
KNEE_WIDTH = 0.1


@dataclass
class IVTable:
    """Current matrix indexed (delta, v); grids strictly increasing."""

    strand_id: str
    v_grid: np.ndarray
    delta_grid: np.ndarray
    current: np.ndarray

    def __post_init__(self):
        self.v_grid = np.asarray(self.v_grid, dtype=float)
        self.delta_grid = np.asarray(self.delta_grid, dtype=float)
        self.current = np.asarray(self.current, dtype=float)
        if self.v_grid.ndim != 1 or self.v_grid.size < 1:
            raise ValueError("v_grid needs at least one point")
        if self.delta_grid.ndim != 1 or self.delta_grid.size < 1:
            raise ValueError("delta_grid needs at least one point")
        if np.any(np.diff(self.v_grid) <= 0):
            raise ValueError("v_grid must be strictly increasing")
        if np.any(np.diff(self.delta_grid) <= 0):
            raise ValueError("delta_grid must be strictly increasing")
        expected = (self.delta_grid.size, self.v_grid.size)
        if self.current.shape != expected:
            raise ValueError(
                f"current shape {self.current.shape} does not match grids {expected}"
            )


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class StrandPair:
    """The two tables a crossbar draws from, keyed by stored bit."""

    logic0_table: IVTable
    logic1_table: IVTable

    def __post_init__(self):
        if self.logic0_table.strand_id == self.logic1_table.strand_id:
            raise ValueError("strand ids of a pair must be distinct")
        for table in (self.logic0_table, self.logic1_table):
            if table.v_grid[-1] < 1.0 - 1e-12:  # the lookup's own edge slack
                raise ValueError(
                    f"table '{table.strand_id}' ends at {table.v_grid[-1]:.6g} V; "
                    "a strand pair needs tables reaching the 1 V read bias "
                    "(regenerate it with iv-gen --v-max 1 or more)"
                )
        i1 = interpolate_current(self.logic1_table, 1.0, 0.0)
        i0 = interpolate_current(self.logic0_table, 1.0, 0.0)
        if i1 < i0:
            warnings.warn(
                "logic-1 strand carries less current than logic-0 at 1 V; "
                "inverted mapping assumed intentional",
                stacklevel=2,
            )

    def table_for(self, bit: int) -> IVTable:
        return self.logic1_table if bit else self.logic0_table


def _axis_weights(grid: np.ndarray, q: np.ndarray, name: str):
    lo, hi = grid[0], grid[-1]
    span = max(abs(lo), abs(hi), 1.0)
    bad = (q < lo - 1e-12 * span) | (q > hi + 1e-12 * span)
    if np.any(bad):
        worst = np.asarray(q)[bad].ravel()[0]
        raise ValueError(
            f"{name} = {worst:.6g} outside table range [{lo:.6g}, {hi:.6g}]"
        )
    q = np.clip(q, lo, hi)
    if grid.size == 1:  # degenerate axis: exact-node queries only
        return np.zeros_like(q, dtype=int), np.zeros_like(q, dtype=float)
    idx = np.clip(np.searchsorted(grid, q, side="right") - 1, 0, grid.size - 2)
    w = (q - grid[idx]) / (grid[idx + 1] - grid[idx])
    return idx, w


def interpolate_current(table: IVTable, v, delta):
    """Bilinear current lookup; exact on grid nodes.

    Queries outside the stored box are rejected with the admissible range
    rather than extrapolated.
    """
    v_arr = np.asarray(v, dtype=float)
    d_arr = np.asarray(delta, dtype=float)
    iv, wv = _axis_weights(table.v_grid, v_arr, "v")
    idl, wd = _axis_weights(table.delta_grid, d_arr, "delta")
    c = table.current
    iv1 = np.minimum(iv + 1, c.shape[1] - 1)
    idl1 = np.minimum(idl + 1, c.shape[0] - 1)
    out = (
        (1 - wd) * (1 - wv) * c[idl, iv]
        + (1 - wd) * wv * c[idl, iv1]
        + wd * (1 - wv) * c[idl1, iv]
        + wd * wv * c[idl1, iv1]
    )
    if np.isscalar(v) and np.isscalar(delta):
        return float(out)
    return out


def small_signal_conductance(table: IVTable, v, delta):
    """Chord conductance I(v)/v, with the secant at V_FLOOR near zero bias.

    Even in v (tables store the forward branch; current is treated as odd),
    so callers may pass the raw signed drop.
    """
    v_arr = np.abs(np.asarray(v, dtype=float))
    v_eval = np.maximum(v_arr, V_FLOOR)
    g = interpolate_current(table, v_eval, delta) / v_eval
    if np.isscalar(v) and np.isscalar(delta):
        return float(g)
    return g


def cell_lookup(pair: StrandPair, bits, delta, v, chord: bool = False) -> np.ndarray:
    """Per-cell lookup through the table of each cell's stored bit.

    bits, delta and v share one shape, any shape.  Returns the current at
    bias v or, with chord=True, the chord conductance at |v| clamped to each
    table's bias range: iterates may overshoot the physical window, and a
    linearization point is free to sit anywhere.  One table call per bit
    value, however many cells are asked for.
    """
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape)
    for bit, table in ((0, pair.logic0_table), (1, pair.logic1_table)):
        mask = bits == bit
        if np.any(mask):
            if chord:
                v_eval = np.minimum(np.abs(v[mask]), table.v_grid[-1])
                out[mask] = small_signal_conductance(table, v_eval, delta[mask])
            else:
                out[mask] = interpolate_current(table, v[mask], delta[mask])
    return out


def validate_table(table: IVTable) -> ValidationReport:
    """Check the table invariants; returns a report, never raises."""
    report = ValidationReport()
    if not np.all(np.isfinite(table.current)):
        bad = np.argwhere(~np.isfinite(table.current))[0]
        report.violations.append(
            f"non-finite current at (delta index {bad[0]}, v index {bad[1]})"
        )
        return report
    if table.v_grid[0] > 0.0 or table.v_grid[-1] < 1.0:
        report.violations.append(
            f"v grid [{table.v_grid[0]:.6g}, {table.v_grid[-1]:.6g}] does not span [0, 1]"
        )
    if table.delta_grid[0] > 0.0 or table.delta_grid[-1] < 0.2:
        report.violations.append(
            f"delta grid [{table.delta_grid[0]:.6g}, {table.delta_grid[-1]:.6g}] "
            "does not span [0, 0.2]"
        )
    zero_nodes = np.where(np.abs(table.v_grid) <= 1e-12)[0]
    for iz in zero_nodes:
        nonzero = np.where(table.current[:, iz] != 0.0)[0]
        if nonzero.size:
            report.violations.append(
                f"current at zero bias must vanish; delta index {nonzero[0]} "
                f"holds {table.current[nonzero[0], iz]:.3e} A"
            )
    in_unit = (table.v_grid >= 0.0) & (table.v_grid <= 1.0)
    cols = np.where(in_unit)[0]
    if cols.size >= 2:
        seg = table.current[:, cols]
        drops = np.argwhere(np.diff(seg, axis=1) < 0)
        for idl, k in drops[:8]:  # report the first few, not thousands
            report.violations.append(
                f"current decreasing in v at delta index {idl}, "
                f"between v indices {cols[k]} and {cols[k + 1]}"
            )
    return report


def synthesize_table(
    r_low: float,
    r_high: float,
    knee: float = 0.35,
    delta_sensitivity: float = 8.0,
    strand_id: str = "synthetic",
) -> IVTable:
    """Smooth monotone synthetic I-V table on SYNTH_V_GRID x SYNTH_DELTA_GRID.

    Conductance rises from 1/r_high at low bias toward 1/r_low past the
    knee (a tanh turn-on of width KNEE_WIDTH); growing the Fermi offset
    scales the whole curve down by exp(-delta_sensitivity * delta).  With
    r_low == r_high the table is exactly ohmic.
    """
    if r_low <= 0 or r_high <= 0:
        raise ValueError("resistances must be positive")
    if r_low > r_high:
        raise ValueError("r_low must not exceed r_high")
    if not 0 < knee < 1:
        raise ValueError("knee must lie in (0, 1)")
    if delta_sensitivity < 0:
        raise ValueError("delta_sensitivity must be non-negative")
    v, d = SYNTH_V_GRID.copy(), SYNTH_DELTA_GRID.copy()
    g_lo, g_hi = 1.0 / r_high, 1.0 / r_low
    conductance = g_lo + (g_hi - g_lo) * 0.5 * (1.0 + np.tanh((v - knee) / KNEE_WIDTH))
    base = conductance * v
    scale = np.exp(-delta_sensitivity * d)
    table = IVTable(strand_id, v, d, np.outer(scale, base))
    report = validate_table(table)
    if not report.ok:
        raise ValueError(
            "synthesized table violates its own contract: " + "; ".join(report.violations)
        )
    return table


def table_payload(table: IVTable) -> dict:
    """The table as the JSON mapping load_table reads, and manifests digest."""
    return {
        "strand_id": table.strand_id,
        "v_grid_v": table.v_grid.tolist(),
        "delta_grid_ev": table.delta_grid.tolist(),
        "current_a": table.current.ravel().tolist(),
    }


def save_table(table: IVTable, path) -> None:
    runio.dump_json(table_payload(table), path)


def load_table(path) -> IVTable:
    """Read a table file; invariant violations surface as warnings."""
    raw = runio.load_json(path)
    strand = runio.require(raw, "strand_id", path)
    v = np.asarray(runio.require(raw, "v_grid_v", path), dtype=float)
    d = np.asarray(runio.require(raw, "delta_grid_ev", path), dtype=float)
    cur = np.asarray(runio.require(raw, "current_a", path), dtype=float)
    if cur.size != v.size * d.size:
        raise ValueError(
            f"{path}: current_a has {cur.size} entries, expected {v.size * d.size}"
        )
    try:
        table = IVTable(str(strand), v, d, cur.reshape(d.size, v.size))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    report = validate_table(table)
    for violation in report.violations:
        warnings.warn(f"{path}: {violation}", stacklevel=2)
    return table
