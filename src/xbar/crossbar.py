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
array reads.  A cell in series with its return path R carries
I_L(w) = w I / (w + R I) at wordline voltage w, nondecreasing in w like
the cell's own current I, so each row's ladder is a network of monotone
resistors and its node voltages minimize a convex co-content.  The rows
of a readout are independent, so they iterate as one batch under the
Newton driver in xbar.fixedpoint, which the nodal oracle shares: each
step is one lookup of chords and tangents through the readout's
ivtable.LookupPlan and one stacked tridiagonal solve over every row still
active.  A row's result does not depend on which rows share its batch,
so one call reads a whole stack of arrays (CrossbarSpec) as one batch of
rows: the small arrays of a campaign then pay the per-call and per-step
overhead once per stack instead of once per array.

array_reader is the one place callers choose between this model and the
nodal oracle, and map_in_stacks the one place campaigns size their stacks.
"""

from __future__ import annotations

import numpy as np

from xbar import fixedpoint, runio
from xbar.fixedpoint import DEFAULT_MAX_ITER
from xbar.ivtable import LookupPlan, StrandPair, small_signal_conductance
from xbar.ivtable import interpolate_current  # noqa: F401  (perfbench/test_perfbench.py patches it here)
from xbar.model import CrossbarSpec, ReadoutSolution, SneakParams
from xbar.nodal import kirchhoff_solve, solve_linear_homogeneous

INIT_BIAS = 0.05  # volts, first chord linearization point

# cells per stack a campaign reads in one call: one 128x128 array, four
# 64x64 or sixteen 32x32.  Past one 128x128 array a taller batch reads
# slower per array than a stack of one.
STACK_CELLS = 2**14

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
    node fed from the source through one segment."""
    rhs = np.zeros(c.shape)
    rhs[..., 0] = 1.0
    return _ladder_solve(c, rhs)


def _ladder_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Node voltages of that ladder (source grounded) under the node
    currents rhs, in units of one segment's conductance.

    All rows go through one tridiagonal solve of their block-diagonal
    stack.  The couplings between neighbouring rows are exact zeros, so
    the elimination never mixes rows and each row gets the same bits a
    solve of its own would give.  scipy.linalg is imported here, at the
    first solve, so that commands which never read the ladder load no scipy.
    """
    from scipy.linalg import solve_banded

    n = c.shape[-1]
    diag = 1.0 + c.reshape(-1, n)
    diag[:, :-1] += 1.0
    off = np.full(diag.shape, -1.0)
    off[:, -1] = 0.0  # no segment from a row's last node to the next row
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = off.ravel()[:-1]
    ab[1] = diag.ravel()
    ab[2, :-1] = off.ravel()[:-1]
    return solve_banded((1, 1), ab, rhs.ravel()).reshape(c.shape)


def calibrate_sneak_params(spec: CrossbarSpec) -> SneakParams:
    """Fit the row and column factors against the nodal reference.

    The reference problem is the same array geometry with every cell held
    at the fixed conductance g_mean = default_g_mean(spec), which keeps it
    linear and separable: nodal.solve_linear_homogeneous gives every row
    activation in closed form, mode by mode.  beta_j is the ratio of the
    reference's measured column current to the current its own cell voltage
    would push through g_mean, averaged over activated rows; alpha_i is
    whatever scale makes the in-row fraction reproduce the reference's
    first-column voltage.  Both are clamped to (0, 1].
    """
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


def _solve_rows(spec, params, plan, rows, max_iter):
    """Node voltages of the rows `rows` of the plan, solved together by
    the shared Newton driver (see fixedpoint.solve).  Plan row b m + i is
    row i of the stack's array b: its ladder is driven at v_in alpha_i and
    returns through m - i segments, and its first state is the ladder
    solved at every cell's chord at INIT_BIAS.  Currents are in units of
    one segment's conductance, so a cell's load is r_int I_L, whose tangent is
    r_int (R g^2 + t) / (1 + R g)^2 at chord g and cell tangent t.
    Returns per-row voltages, Newton step counts, convergence flags and
    the size of each row's last step.
    """
    r_int = spec.r_int
    in_array = rows % spec.m
    scale = spec.v_in * params.alpha[in_array]
    segments = (spec.m - in_array)[:, None]

    def residual(ids, w):
        g, t = plan.chord_tangent(w, rows[ids])
        r_return = segments[ids] * r_int
        f = -_cell_loads(g, r_int, segments[ids]) * w
        flow = np.diff(w, axis=1)
        f[:, :-1] += flow
        f[:, 1:] -= flow
        f[:, 0] += scale[ids] - w[:, 0]
        return f, r_int * (r_return * g * g + t) / (1.0 + r_return * g) ** 2

    def step(ids, w, f, jac):
        return _ladder_solve(jac, f)

    g_start = plan.chord(np.full((rows.size, spec.n), INIT_BIAS), rows)
    w = scale[:, None] * _ladder_fractions(_cell_loads(g_start, r_int, segments))
    return fixedpoint.solve(residual, step, w, max_iter)


def readout_currents(
    v_cell: np.ndarray, params: SneakParams, plan: LookupPlan
) -> np.ndarray:
    """Measurable column currents: each cell's table current at its solved
    voltage (through the array's lookup plan), attenuated by the column
    factor."""
    return plan.current(v_cell) * params.beta[None, :]


def parametric_solve(
    spec: CrossbarSpec,
    params: SneakParams,
    max_iter: int = DEFAULT_MAX_ITER,
    threads: int = 1,
) -> ReadoutSolution:
    """Read every row of the array, or of every array of a stack, through
    the calibrated ladder model.

    All rows iterate together as one batch (see _solve_rows), on the
    calling thread, and read their tables through one LookupPlan; every
    array gets the bits it would get read alone.  `threads` is ignored; it
    is kept only for the call in perfbench/workloads.py.
    """
    if params.alpha.size != spec.m or params.beta.size != spec.n:
        raise ValueError(
            f"params sized {params.alpha.size}x{params.beta.size} do not fit "
            f"a {spec.m}x{spec.n} array"
        )
    bits = spec.bits.reshape(-1, spec.n)  # the stack's rows, array by array
    plan = LookupPlan(spec.pair, bits, spec.delta.reshape(bits.shape))
    v_cell, steps, converged, size = _solve_rows(spec, params, plan, np.arange(len(bits)), max_iter)
    return ReadoutSolution.from_rows(
        spec, "parametric", v_cell, readout_currents(v_cell, params, plan), steps, converged, size
    )


def array_reader(
    solver: str, m: int, n: int, r_int: float, pair: StrandPair, v_in: float, threads: int
):
    """Readout function for every m x n array, or stack of them, at r_int
    on pair, read at v_in: spec -> ReadoutSolution through the named
    solver.

    The parametric model is calibrated here, once: calibration depends on
    geometry and tables only, never on the bits or offsets of the arrays
    read, so one fit serves them all.  `threads` sizes the oracle's pool
    over rows.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver '{solver}', expected {SOLVERS}")
    if solver == "kirchhoff":
        return lambda spec: kirchhoff_solve(spec, threads=threads)
    probe = CrossbarSpec(
        m=m, n=n, r_int=r_int, bits=np.zeros((m, n), dtype=np.int8), pair=pair, v_in=v_in
    )
    params = calibrate_sneak_params(probe)
    return lambda spec: parametric_solve(spec, params)


def map_in_stacks(read_stack, items, m: int, n: int, threads: int) -> list:
    """read_stack over items in order, in stacks of as many m x n arrays
    as fit in STACK_CELLS cells (at least one), on runio.parallel_map.
    read_stack takes a list of items and returns one result per item; the
    results come back flat, in item order."""
    items = list(items)
    size = max(1, STACK_CELLS // (m * n))
    stacks = [items[k : k + size] for k in range(0, len(items), size)]
    return [r for results in runio.parallel_map(read_stack, stacks, threads) for r in results]
