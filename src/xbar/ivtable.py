"""Per-strand current lookup tables on a (Fermi offset, bias) grid.

The tables bridge the transport and circuit layers: the transport engine
writes them, the crossbar solvers only ever read currents and chord
conductances back out through bilinear interpolation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from xbar import runio

V_FLOOR = 1e-3  # volts; below this, conductance falls back to the secant slope

# grids and knee width of every synthesized table
SYNTH_V_GRID = np.linspace(0.0, 1.0, 21)
SYNTH_DELTA_GRID = np.linspace(0.0, 0.2, 11)
KNEE_WIDTH = 0.1


@dataclass
class IVTable:
    """Current matrix indexed (delta, v), every entry finite; grids
    strictly increasing."""

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
        if not np.all(np.isfinite(self.current)):
            raise ValueError(validate_table(self)[0])  # names the first non-finite entry


@dataclass
class StrandPair:
    """The two tables a crossbar draws from, keyed by stored bit.  Each
    table's bias grid covers [V_FLOOR, 1 V], so that every chord query lies
    inside it, and its offset grid starts at 0."""

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
            if table.v_grid[0] > V_FLOOR:
                raise ValueError(
                    f"table '{table.strand_id}' v_grid_v starts at {table.v_grid[0]:.6g} V; "
                    f"a strand pair needs tables reaching down to V_FLOOR = {V_FLOOR:g} V "
                    "(regenerate it with iv-gen or iv-synth, whose bias grids start at 0 V)"
                )
            if table.delta_grid[0] > 1e-12:
                raise ValueError(
                    f"table '{table.strand_id}' delta_grid_ev starts at "
                    f"{table.delta_grid[0]:.6g} eV; a strand pair needs tables reaching offset 0"
                )
        i1 = interpolate_current(self.logic1_table, 1.0, 0.0)
        i0 = interpolate_current(self.logic0_table, 1.0, 0.0)
        if i1 < i0:
            warnings.warn(
                "logic-1 strand carries less current than logic-0 at 1 V; "
                "inverted mapping assumed intentional",
                stacklevel=2,
            )

    def check_range(self, v_in: float, delta, offsets: str) -> None:
        """Raise ValueError unless both tables reach the read bias v_in and
        span every offset in delta (NaN fails), up to the lookup's own edge
        slack: the one range check of every array, campaign and sweep.  The
        message calls the offsets `offsets` and the bias v_in_v, as their
        files name them."""
        delta_lo, delta_hi = np.min(delta), np.max(delta)
        for table in (self.logic0_table, self.logic1_table):
            d_lo, d_hi = _admissible(table.delta_grid)
            if not d_lo <= delta_lo <= delta_hi <= d_hi:
                grid = table.delta_grid
                raise ValueError(
                    f"{offsets} [{delta_lo:.6g}, {delta_hi:.6g}] outside table "
                    f"'{table.strand_id}' range [{grid[0]:.6g}, {grid[-1]:.6g}]"
                )
            if not v_in <= _admissible(table.v_grid)[1]:
                raise ValueError(
                    f"v_in_v = {v_in:.12g} exceeds table '{table.strand_id}' "
                    f"bias range (max {table.v_grid[-1]:.12g})"
                )


def _admissible(grid: np.ndarray):
    """The query range a grid accepts: its own span plus a relative edge
    slack of 1e-12, so that queries rounded onto an end node still pass."""
    lo, hi = grid[0], grid[-1]
    span = max(abs(lo), abs(hi), 1.0)
    return lo - 1e-12 * span, hi + 1e-12 * span


def _range_error(grid: np.ndarray, q: np.ndarray, bad: np.ndarray, name: str):
    worst = np.asarray(q)[bad].ravel()[0]
    return ValueError(
        f"{name} = {worst:.6g} outside table range [{grid[0]:.6g}, {grid[-1]:.6g}]"
    )


def _axis_weights(grid: np.ndarray, q: np.ndarray, name: str):
    lower, upper = _admissible(grid)
    bad = (q < lower) | (q > upper)
    if np.any(bad):
        raise _range_error(grid, q, bad, name)
    q = np.clip(q, grid[0], grid[-1])
    idx, node, width = _intervals(grid, q)
    return idx, (q - node) / width


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


class LookupPlan:
    """Per-cell lookups of one array, each cell through the table of its
    stored bit.

    bits and delta share one shape, any shape, and do not change within a
    readout; the plan fixes them once.  It holds both tables' currents in
    one flat array, and for every cell the offset-axis rows it reads there
    and their weights, computed on its own table's delta grid, its table's
    bias bounds and its bias search offset: bit times the size of the bias
    union grid, with the search's "- 1" folded in.  Each axis is searched
    on the union of the two tables' grids, whose every interval lies inside
    one interval of each table (every node of either table is a node of the
    union), mapped to that interval of each cell's own table: a cell's
    offset once, when the plan is made, and its bias at every lookup.  The
    four-corner sum is interpolate_current's, in the same order, so every
    result is bit for bit that of the per-cell table query, clamps and
    range checks included.

    The offsets and current's biases are checked against each cell's own
    table range and clamped into it.  The chord paths clamp |v| to
    [V_FLOOR, the table's end], which lies inside every table of a pair
    (StrandPair), so they need no check.

    Lookups take biases shaped like bits, or like the entries `cells` of
    its first axis (rows of an array).
    """

    _CHORD_ROWS = 3  # leading per-cell float rows the chord paths read: 1 - wd, wd, hi

    def __init__(self, pair: StrandPair, bits, delta):
        which = (np.asarray(bits) == 1).astype(np.intp)
        self._tables = (pair.logic0_table, pair.logic1_table)
        self._grid = np.union1d(*(t.v_grid for t in self._tables))
        d_grid = np.union1d(*(t.delta_grid for t in self._tables))
        # per union interval, table after table: the bias interval's column,
        # start and width; the offset interval's start, width and rows' starts
        current, v_axis, d_axis = [], [], []
        for table in self._tables:
            nd, nv = table.current.shape
            v_axis.append(_intervals(table.v_grid, self._grid))
            j, node, width = _intervals(table.delta_grid, d_grid)
            start = sum(map(len, current))
            rows = (start + nv * np.minimum(j + s, nd - 1) for s in (0, 1))
            d_axis.append((node, width, *rows))
            current.append(table.current.ravel())
        self._current = np.concatenate(current)
        self._col, self._node, self._width = map(np.concatenate, zip(*v_axis))
        d_node, d_width, d_row0, d_row1 = map(np.concatenate, zip(*d_axis))
        # per cell, stacked so that a lookup on some rows gathers twice: offset
        # weights (1 - wd, wd) and bias bounds (hi, lo, lower, upper), the
        # chord paths' three rows first; key and row starts
        bounds = np.array(
            [[(g[-1], g[0], *_admissible(g)) for g in (t.v_grid, t.delta_grid)]
             for t in self._tables]
        ).T[..., which]
        d_key = which * d_grid.size - 1
        q = self._in_range(np.asarray(delta, dtype=float), bounds[:, 1], d_key, "delta")
        k = np.searchsorted(d_grid, q, side="right") + d_key
        wd = (q - d_node[k]) / d_width[k]
        self._cell = np.concatenate([np.stack([1 - wd, wd]), bounds[:, 0]])
        self._cell_index = np.stack([which * self._grid.size - 1, d_row0[k], d_row1[k]])
        self._every = np.arange(self._cell.shape[1])

    def current(self, v, cells=slice(None)) -> np.ndarray:
        """Each cell's current (interpolate_current) at bias v."""
        cell, index = self._select(cells, len(self._cell))
        q = self._in_range(np.asarray(v, dtype=float), cell[2:], index[0], "v")
        return self._interpolate(q, cell, index)

    def chord(self, v, cells=slice(None)) -> np.ndarray:
        """Each cell's chord conductance (small_signal_conductance) at |v|
        clamped to its table's bias range: iterates may overshoot the
        physical window, and a linearization point is free to sit anywhere."""
        cell, index = self._select(cells, self._CHORD_ROWS)
        v_eval = np.maximum(np.minimum(np.abs(v), cell[2]), V_FLOOR)
        return self._interpolate(v_eval, cell, index) / v_eval

    def chord_tangent(self, v, cells=slice(None)):
        """Each cell's chord at v (as chord returns it) and the slope at v
        of the current chord(v) v the cell carries: the table's interval
        slope where |v| lies strictly between V_FLOOR and the table's end,
        the chord itself outside, where that current is the secant through
        V_FLOOR or the ray through the table's end.  Both come from one
        search."""
        cell, index = self._select(cells, self._CHORD_ROWS)
        a = np.abs(v)
        v_eval = np.maximum(np.minimum(a, cell[2]), V_FLOOR)
        g, slope = self._interpolate(v_eval, cell, index, slope=True)
        g /= v_eval
        return g, np.where((a > V_FLOOR) & (a < cell[2]), slope, g)

    def _select(self, cells, rows):
        """The leading `rows` per-cell float rows and the index rows of the
        cells asked for; views, not copies, when that is every cell in
        order."""
        if not isinstance(cells, slice) and np.array_equal(cells, self._every):
            cells = slice(None)
        return self._cell[:rows, cells], self._cell_index[:, cells]

    def _in_range(self, q, bounds, key, name):
        """q clamped to each cell's own table range (lo, hi), after the
        per-table query's check on its admissible range (lower, upper),
        naming the first offending table; a cell's search offset key is
        negative on logic 0."""
        hi, lo, lower, upper = bounds
        bad = (q < lower) | (q > upper)
        if np.any(bad):
            for bit, table in enumerate(self._tables):
                mine = bad & ((key >= 0) == bit)
                if np.any(mine):
                    raise _range_error(getattr(table, f"{name}_grid"), q, mine, name)
        return np.clip(q, lo, hi)

    def _interpolate(self, q, cell, index, slope=False):
        w0, w1 = cell[0], cell[1]
        key, row0, row1 = index
        k = np.searchsorted(self._grid, q, side="right")
        k += key
        width = self._width[k]
        wv = q - self._node[k]
        wv /= width
        uv = 1 - wv
        i0 = self._col[k]
        i1 = i0 + row1
        i0 += row0
        c, c_next = self._current, self._current[1:]
        corners = c[i0], c_next[i0], c[i1], c_next[i1]
        # interpolate_current's sum, term by term in place to spare temporaries
        out = w0 * uv
        out *= corners[0]
        for w_delta, w_v, corner in zip((w0, w1, w1), (wv, uv, wv), corners[1:]):
            term = w_delta * w_v
            term *= corner
            out += term
        if not slope:
            return out
        a0, rise, b0, b1 = corners
        rise -= a0
        rise *= w0
        b1 -= b0
        b1 *= w1
        rise += b1
        rise /= width
        return out, rise


def _intervals(grid: np.ndarray, points: np.ndarray):
    """The interval of grid that holds each point, the first one below the
    grid and the last one from its end on: its index, start and width.  On
    a union of grid's nodes with others, the interval that holds a node
    holds the union's whole interval starting there.  A one-node grid reads
    as a unit interval past its node, where a query clamped onto the node
    has weight 0."""
    if grid.size == 1:
        grid = np.append(grid, grid[0] + 1.0)
    j = np.clip(np.searchsorted(grid, points, side="right") - 1, 0, grid.size - 2)
    return j, grid[j], grid[j + 1] - grid[j]


def validate_table(table: IVTable) -> list[str]:
    """Check the table invariants; returns the violations, empty for a
    valid table, and never raises."""
    violations = []
    if not np.all(np.isfinite(table.current)):
        bad = np.argwhere(~np.isfinite(table.current))[0]
        violations.append(f"non-finite current at (delta index {bad[0]}, v index {bad[1]})")
        return violations
    if table.v_grid[0] > 0.0 or table.v_grid[-1] < 1.0:
        violations.append(
            f"v grid [{table.v_grid[0]:.6g}, {table.v_grid[-1]:.6g}] does not span [0, 1]"
        )
    if table.delta_grid[0] > 0.0 or table.delta_grid[-1] < 0.2:
        violations.append(
            f"delta grid [{table.delta_grid[0]:.6g}, {table.delta_grid[-1]:.6g}] "
            "does not span [0, 0.2]"
        )
    zero_nodes = np.where(np.abs(table.v_grid) <= 1e-12)[0]
    for iz in zero_nodes:
        nonzero = np.where(table.current[:, iz] != 0.0)[0]
        if nonzero.size:
            violations.append(
                f"current at zero bias must vanish; delta index {nonzero[0]} "
                f"holds {table.current[nonzero[0], iz]:.3e} A"
            )
    in_unit = (table.v_grid >= 0.0) & (table.v_grid <= 1.0)
    cols = np.where(in_unit)[0]
    if cols.size >= 2:
        seg = table.current[:, cols]
        drops = np.argwhere(np.diff(seg, axis=1) < 0)
        for idl, k in drops[:8]:  # report the first few, not thousands
            violations.append(
                f"current decreasing in v at delta index {idl}, "
                f"between v indices {cols[k]} and {cols[k + 1]}"
            )
    return violations


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
    for name, r in (("r_low", r_low), ("r_high", r_high)):
        if not math.isfinite(1.0 / float(r)):
            raise ValueError(
                f"1/{name} is not finite for {name} = {r:.6g} ohm; "
                "resistances must have finite reciprocals"
            )
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
    return IVTable(strand_id, v, d, np.outer(scale, base))


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
    strand = runio.require(raw, "strand_id", path, str)
    v = np.asarray(runio.require(raw, "v_grid_v", path, [float]), dtype=float)
    d = np.asarray(runio.require(raw, "delta_grid_ev", path, [float]), dtype=float)
    cur = np.asarray(runio.require(raw, "current_a", path, [float]), dtype=float)
    if cur.size != v.size * d.size:
        raise ValueError(
            f"{path}: current_a has {cur.size} entries, expected {v.size * d.size}"
        )
    with runio.named(path):
        table = IVTable(strand, v, d, cur.reshape(d.size, v.size))
    for violation in validate_table(table):
        warnings.warn(f"{path}: {violation}", stacklevel=2)
    return table


# the keys under which a config file references its two tables
PAIR_KEYS = ("logic1_table", "logic0_table")


def load_pair(raw: dict, path) -> StrandPair:
    """The pair a config file references, its paths relative to the file."""
    logic1, logic0 = (
        runio.read_referenced(
            path, Path(path).parent / runio.require(raw, key, path, str), load_table
        )
        for key in PAIR_KEYS
    )
    with runio.named(path):
        return StrandPair(logic0_table=logic0, logic1_table=logic1)


def pair_payload(pair: StrandPair) -> dict:
    """Both tables' contents, as a manifest digests the pair."""
    return {"logic1": table_payload(pair.logic1_table), "logic0": table_payload(pair.logic0_table)}
