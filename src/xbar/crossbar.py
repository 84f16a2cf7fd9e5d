"""Calibrated parametric model of the crossbar read.

Instead of solving the whole resistive mesh, each activated row is treated
as a one-dimensional ladder: the cell voltage at column j is the input bias
times a row factor alpha_i (source-side and return-path attenuation,
calibrated once against the nodal reference on a homogeneous linear array)
times an in-row fraction that depends on the actual per-cell conductances.
Measured column currents then pick up a calibrated column factor beta_j.

The in-row fraction is the exact tridiagonal solve of the one-dimensional
chain.  It folds the bitline return path into each cell as a series
resistance of (m - i) segments, which is what makes the 1x1 case exact.

Runtime scales with the number of cells instead of the number of mesh
nodes, which is the whole point: bit-error statistics need thousands of
array reads.  The rows of a readout are independent fixed points, so they
iterate as one batch: each sweep is one stacked ladder solve, one table
lookup per bit value and one stacked Anderson fit over every row still
active.  The iteration itself (convergence, resets, the bias-ramp rescue,
all decided row by row) belongs to the driver in xbar.fixedpoint, which
the nodal oracle shares; this module supplies the ladder solve and the
chord lookup.  A row's result does not depend on which rows share its
batch.

array_reader is the one place callers choose between this model and the
nodal oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from xbar import fixedpoint, runio
from xbar.fixedpoint import DEFAULT_MAX_ITER, DEFAULT_TOL
from xbar.ivtable import StrandPair, cell_lookup, small_signal_conductance
from xbar.ivtable import interpolate_current  # noqa: F401  (perfbench/test_perfbench.py patches it here)
from xbar.model import CrossbarSpec, ReadoutSolution, SneakParams, compute_power
from xbar.nodal import kirchhoff_solve, solve_linear_homogeneous

INIT_BIAS = 0.05  # volts, first chord linearization point

SOLVERS = ("parametric", "kirchhoff")


def default_g_mean(spec: CrossbarSpec) -> float:
    """Average of the two strands' small-signal conductances at the read
    bias, the natural linearization point for a roughly half-loaded array."""
    g1 = small_signal_conductance(spec.pair.logic1_table, spec.v_in, 0.0)
    g0 = small_signal_conductance(spec.pair.logic0_table, spec.v_in, 0.0)
    return 0.5 * (g1 + g0)


def _cell_loads(g: np.ndarray, r_int: float, return_segments) -> np.ndarray:
    """Dimensionless per-column load of a row's ladder: each cell in
    series with its bitline return path, relative to one segment."""
    return r_int / (1.0 / g + return_segments * r_int)


def _ladder_fractions(c: np.ndarray) -> np.ndarray:
    """Exact in-row voltage profile of the loaded ladder, normalized to the
    source node, for every row of loads along the last axis: wordline nodes
    joined by unit segments, each node loaded to ground by c_j, the first
    node fed from the source through one segment.

    All rows go through one tridiagonal solve of their block-diagonal
    stack.  The couplings between neighbouring rows are exact zeros, so
    the elimination never mixes rows and each row gets the same bits a
    solve of its own would give.
    """
    n = c.shape[-1]
    diag = 1.0 + c.reshape(-1, n)
    diag[:, :-1] += 1.0
    off = np.full(diag.shape, -1.0)
    off[:, -1] = 0.0  # no segment from a row's last node to the next row
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = off.ravel()[:-1]
    ab[1] = diag.ravel()
    ab[2, :-1] = off.ravel()[:-1]
    rhs = np.zeros(diag.shape)
    rhs[:, 0] = 1.0
    return solve_banded((1, 1), ab, rhs.ravel()).reshape(c.shape)


def calibrate_sneak_params(
    spec: CrossbarSpec,
    g_mean: float | None = None,
) -> SneakParams:
    """Fit the row and column factors against the nodal reference.

    The reference problem is the same array geometry with every cell held
    at the fixed conductance g_mean, which keeps it linear and separable:
    nodal.solve_linear_homogeneous gives every row activation in closed
    form, mode by mode.  beta_j is the ratio of the
    reference's measured column current to the current its own cell voltage
    would push through g_mean, averaged over activated rows; alpha_i is
    whatever scale makes the in-row fraction reproduce the reference's
    first-column voltage.  Both are clamped to (0, 1].
    """
    if g_mean is None:
        g_mean = default_g_mean(spec)
    if g_mean <= 0:
        raise ValueError("mean conductance must be positive")
    v_ref, i_ref, _ = solve_linear_homogeneous(
        spec.m, spec.n, spec.r_int, g_mean, spec.v_in
    )
    beta = (i_ref / (g_mean * v_ref)).mean(axis=0)
    segments = spec.m - np.arange(spec.m)[:, None]
    frac = _ladder_fractions(_cell_loads(np.full((spec.m, spec.n), g_mean), spec.r_int, segments))
    alpha = v_ref[:, 0] / (spec.v_in * frac[:, 0])
    tiny = np.finfo(float).tiny
    return SneakParams(
        alpha=np.clip(alpha, tiny, 1.0), beta=np.clip(beta, tiny, 1.0)
    )


def _solve_rows(spec, params, rows, tol, max_iter):
    """Fixed point of the rows `rows` of the array, solved together by
    the shared driver (see fixedpoint.solve).  Each sweep is one stacked
    ladder solve and one table lookup per bit value over every row still
    active.  Returns per-row voltages, sweep counts, convergence flags and
    final residuals.
    """
    segments = spec.m - rows
    bits, delta = spec.bits[rows], spec.delta[rows]

    def evaluate(ids, scale, g, state):
        return scale[:, None] * _ladder_fractions(_cell_loads(g, spec.r_int, segments[ids, None]))

    def relinearize(ids, state):
        return cell_lookup(spec.pair, bits[ids], delta[ids], state, chord=True)

    g_start = relinearize(slice(None), np.full((rows.size, spec.n), INIT_BIAS))
    v, _, total, converged, residual = fixedpoint.solve(
        evaluate, relinearize, spec.v_in * params.alpha[rows], g_start, tol, max_iter
    )
    return v, total, converged, residual


def readout_currents(
    v_cell: np.ndarray, params: SneakParams, spec: CrossbarSpec
) -> np.ndarray:
    """Measurable column currents: each cell's table current at its solved
    voltage, attenuated by the column factor."""
    currents = cell_lookup(spec.pair, spec.bits, spec.delta, v_cell)
    return currents * params.beta[None, :]


def normalized_voltages(
    v_cell: np.ndarray, params: SneakParams, spec: CrossbarSpec
) -> np.ndarray:
    """Cell voltages with the row scale divided out, isolating the in-row
    degradation profile."""
    return v_cell / (spec.v_in * params.alpha[:, None])


def parametric_solve(
    spec: CrossbarSpec,
    params: SneakParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    threads: int | None = None,
) -> ReadoutSolution:
    """Read every row of the array through the calibrated ladder model.

    All rows iterate together as one batch (see _solve_rows), on the
    calling thread; `threads` is accepted for a uniform solver signature
    and changes nothing.
    """
    if params.alpha.size != spec.m or params.beta.size != spec.n:
        raise ValueError(
            f"params sized {params.alpha.size}x{params.beta.size} do not fit "
            f"a {spec.m}x{spec.n} array"
        )
    runio.resolve_threads(threads)
    v_cell, iterations, converged, residual = _solve_rows(
        spec, params, np.arange(spec.m), tol, max_iter
    )
    i_out = readout_currents(v_cell, params, spec)
    solution = ReadoutSolution(
        v_cell=v_cell,
        i_out=i_out,
        power=0.0,
        iterations=int(iterations.max()),
        converged=bool(converged.all()),
        residual=float(residual.max()),
        solver="parametric",
        v_normalized=normalized_voltages(v_cell, params, spec),
    )
    solution.power = compute_power(spec, solution)
    return solution


def array_reader(
    solver: str, m: int, n: int, r_int: float, pair: StrandPair, v_in: float,
    threads: int | None,
):
    """Readout function for every m x n array at r_int on pair, read at
    v_in: spec -> ReadoutSolution through the named solver.

    The parametric model is calibrated here, once: calibration depends on
    geometry and tables only, never on the bits or offsets of the arrays
    read, so one fit serves them all.  `threads` sizes the oracle's pool
    over rows and is validated for either solver.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver '{solver}', expected {SOLVERS}")
    threads = runio.resolve_threads(threads)
    if solver == "kirchhoff":
        return lambda spec: kirchhoff_solve(spec, threads=threads)
    probe = CrossbarSpec(
        m=m, n=n, r_int=r_int, bits=np.zeros((m, n), dtype=np.int8), pair=pair, v_in=v_in
    )
    params = calibrate_sneak_params(probe)
    return lambda spec: parametric_solve(spec, params)
