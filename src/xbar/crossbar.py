"""Calibrated parametric model of the crossbar read.

Instead of solving the whole resistive mesh, each activated row is treated
as a one-dimensional ladder: the cell voltage at column j is the input bias
times a row factor alpha_i (source-side and return-path attenuation,
calibrated once against the nodal reference on a homogeneous linear array)
times an in-row fraction that depends on the actual per-cell conductances.
Measured column currents then pick up a calibrated column factor beta_j.

The in-row fraction comes in two flavors:
  - "quadratic": closed-form second-order expansion of the ladder, cheap
    and j-monotone by construction;
  - "ladder": exact tridiagonal solve of the one-dimensional chain.
Both fold the bitline return path into each cell as a series resistance of
(m - i) segments, which is what makes the 1x1 case exact.  Calibration and
solving must use the same flavor; the shared default keeps that automatic.

Runtime scales with the number of cells instead of the number of mesh
nodes, which is the whole point: bit-error statistics need thousands of
array reads.  The rows of a readout are independent fixed points, so they
iterate as one batch: each sweep is one stacked ladder solve, one table
lookup per bit value and one stacked Anderson fit over every row still
active, while convergence, resets and the bias-ramp rescue are decided row
by row.  A row's result does not depend on which rows share its batch.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from xbar import runio
from xbar.ivtable import cell_lookup, small_signal_conductance
from xbar.ivtable import interpolate_current  # noqa: F401  (perfbench/test_perfbench.py patches it here)
from xbar.model import CrossbarSpec, ReadoutSolution, SneakParams
from xbar.nodal import (
    ANDERSON_DEPTH,
    DEFAULT_MAX_ITER,
    DEFAULT_RELAX,
    DEFAULT_TOL,
    INIT_BIAS,
    solve_linear_homogeneous,
)

DEFAULT_FRACTION_MODE = "ladder"
FRACTION_MODES = ("quadratic", "ladder")


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


def _quadratic_fractions(c: np.ndarray) -> np.ndarray:
    """Second-order in-row voltage profile, normalized to the source node,
    of every row of loads along the last axis.

    Column j keeps 1 + sum_{k>j} (k - j)*c_k of the profile accumulated at
    the source, 1 + sum_k (k + 1)*c_k; both follow from expanding the exact
    ladder to second order in the loads."""
    n = c.shape[-1]
    cols = np.arange(1, n + 1)
    weights = cols * c

    def tail(x):  # sum over k > j, for every j
        total = np.cumsum(x[..., ::-1], axis=-1)[..., ::-1]
        return np.concatenate([total[..., 1:], np.zeros_like(x[..., :1])], axis=-1)

    numer = 1.0 + tail(weights) - cols * tail(c)
    denom = 1.0 + weights.sum(axis=-1, keepdims=True)
    return numer / denom


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


def _row_fractions(
    g: np.ndarray, r_int: float, return_segments: np.ndarray, mode: str
) -> np.ndarray:
    """In-row fractions of rows of conductances g (k x n), row r having
    its bitline return through return_segments[r] segments."""
    c = _cell_loads(g, r_int, return_segments[:, None])
    if mode == "quadratic":
        return _quadratic_fractions(c)
    if mode == "ladder":
        return _ladder_fractions(c)
    raise ValueError(f"unknown fraction mode '{mode}', expected one of {FRACTION_MODES}")


def calibrate_sneak_params(
    spec: CrossbarSpec,
    g_mean: float | None = None,
    fraction_mode: str = DEFAULT_FRACTION_MODE,
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
    frac = _row_fractions(
        np.full((spec.m, spec.n), g_mean),
        spec.r_int,
        spec.m - np.arange(spec.m),
        fraction_mode,
    )
    alpha = v_ref[:, 0] / (spec.v_in * frac[:, 0])
    tiny = np.finfo(float).tiny
    return SneakParams(
        alpha=np.clip(alpha, tiny, 1.0), beta=np.clip(beta, tiny, 1.0)
    )


def _anderson_step(hist_v, hist_r, r):
    """Depth-limited Anderson mixing (Walker & Ni 2011) of every row.

    hist_v and hist_r hold each row's last L iterates and residuals
    (k x L x n, oldest first); r is the newest residual, already the last
    history entry.  Each row's mixing weights are the minimum-norm least
    squares fit of r by the residual differences, through a stacked
    pseudo-inverse with the singular-value cutoff lstsq uses.  Rows are
    never mixed with each other, so a row gets the same bits alone or in
    a batch.
    """
    dr = np.diff(hist_r, axis=1)  # k x (L-1) x n
    dv = np.diff(hist_v, axis=1)
    n, cols = r.shape[1], dr.shape[1]
    rcond = np.finfo(float).eps * max(n, cols)
    pinv = np.linalg.pinv(dr.transpose(0, 2, 1), rcond=rcond)  # k x (L-1) x n
    gamma = (pinv * r[:, None, :]).sum(axis=2)
    return hist_v[:, -1] + r - ((dv + dr) * gamma[:, :, None]).sum(axis=1)


def _run_stage(spec, rows, scale, g, cap, stage_tol, fraction_mode, relax):
    """Anderson-accelerated Picard at one bias scale, for a batch of rows.

    Row r of the batch is array row rows[r] driven at scale[r] volts, from
    chord conductances g[r], for at most cap[r] sweeps.  Each sweep takes
    the ladder voltages at the latest conductances, then the conductances
    at the latest voltages, and extrapolates from the recent residual
    history.  After a residual blow-up, or when the residual plateaus (a
    bounded limit cycle, which never trips the blow-up test), a row drops
    its history and falls back to a damped step whose relaxation halves on
    every such event; heavy damping breaks cycles the knee of a steep table
    can otherwise sustain.  Every decision is taken per row on that row's
    own state; converged rows and rows out of sweeps leave the batch.

    Returns each row's last ladder voltages, the conductances after its
    last sweep, its sweep count, its last residual and whether it met
    stage_tol.
    """
    k, n = g.shape
    segments = spec.m - rows
    bits, delta = spec.bits[rows], spec.delta[rows]
    g = g.copy()
    state = np.empty((k, n))
    evaluated = np.empty((k, n))
    residual = np.full(k, np.inf)
    best = np.full(k, np.inf)
    converged = np.zeros(k, dtype=bool)
    local_relax = np.full(k, relax)
    stall = np.zeros(k, dtype=int)
    iterations = np.zeros(k, dtype=int)
    depth = ANDERSON_DEPTH + 1
    hist_v = np.empty((k, depth, n))
    hist_r = np.empty((k, depth, n))
    hist_len = np.zeros(k, dtype=int)

    active = np.arange(k)
    sweep = 0
    while active.size:
        sweep += 1
        a = active
        ev = scale[a, None] * _row_fractions(g[a], spec.r_int, segments[a], fraction_mode)
        evaluated[a] = ev
        iterations[a] = sweep
        if sweep == 1:
            state[a] = ev
        else:
            r = ev - state[a]
            res = np.max(np.abs(r), axis=1)
            residual[a] = res
            done = res <= stage_tol
            converged[a[done]] = True
            a, r, res, ev = a[~done], r[~done], res[~done], ev[~done]

            blow_up = (res > 2.0 * best[a]) & (hist_len[a] > 0)
            c, res_c = a[~blow_up], res[~blow_up]
            stall[c] = np.where(res_c > 0.9 * best[c], stall[c] + 1, 0)
            best[c] = np.minimum(best[c], res_c)
            reset = blow_up | (stall[a] >= 8)

            # damped reset: forget the history, take a relaxed plain step
            z, rz = a[reset], r[reset]
            hist_len[z] = 0
            state[z] = state[z] + local_relax[z, None] * rz
            local_relax[z] = np.maximum(0.1, 0.5 * local_relax[z])
            stall[z] = 0

            # plain step: push the iterate and its residual onto the history
            # (newest last), then mix it or, with no history yet, take it
            p, rp, evp = a[~reset], r[~reset], ev[~reset]
            hist_v[p, :-1], hist_v[p, -1] = hist_v[p, 1:], state[p]
            hist_r[p, :-1], hist_r[p, -1] = hist_r[p, 1:], rp
            hist_len[p] = np.minimum(hist_len[p] + 1, depth)
            first = hist_len[p] == 1
            state[p[first]] = evp[first]
            for length in range(2, depth + 1):
                sel = hist_len[p] == length
                if np.any(sel):
                    q = p[sel]
                    state[q] = _anderson_step(hist_v[q, -length:], hist_r[q, -length:], rp[sel])
        g[a] = cell_lookup(spec.pair, bits[a], delta[a], state[a], chord=True)
        active = a[iterations[a] < cap[a]]
    return evaluated, g, iterations, residual, converged


def _solve_rows(spec, params, rows, fraction_mode, tol, max_iter, relax):
    """Fixed point of the rows `rows` of the array, solved together.

    The first stage runs every row at full bias for up to 60 sweeps.  Rows
    it leaves unconverged are rescued by ramping their source up in four
    stages, carrying the conductances over, so each stage only perturbs
    the previous solution mildly instead of restarting the oscillation.
    Returns per-row voltages, sweep counts, convergence flags and final
    residuals.
    """
    k = rows.size
    full_scale = spec.v_in * params.alpha[rows]
    g_start = cell_lookup(
        spec.pair, spec.bits[rows], spec.delta[rows], np.full((k, spec.n), INIT_BIAS), chord=True
    )
    v, _, total, residual, converged = _run_stage(
        spec, rows, full_scale, g_start, np.full(k, min(60, max_iter)), tol, fraction_mode, relax
    )
    # rows still short of the tolerance, with sweeps left, climb the ramp
    idx = np.flatnonzero(~converged & (total < max_iter))
    g = g_start[idx]
    for level in (0.25, 0.5, 0.75, 1.0):
        remaining = max_iter - total[idx]
        go = remaining > 0
        idx, g, remaining = idx[go], g[go], remaining[go]
        if idx.size == 0:
            break
        final = level == 1.0
        cap = remaining if final else np.minimum(remaining, np.maximum(10, remaining // 8))
        v[idx], g, used, residual[idx], met = _run_stage(
            spec,
            rows[idx],
            level * full_scale[idx],
            g,
            cap,
            tol if final else 10.0 * tol,
            fraction_mode,
            relax,
        )
        # meeting a partial-bias stage's looser tolerance is no solution
        converged[idx] = met & final
        total[idx] += used
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


def compute_power(spec: CrossbarSpec, solution: ReadoutSolution) -> float:
    """Total power drawn from the source across the m row activations.

    Summing over activations (rather than averaging) keeps the number
    monotone in array size, which is how read cost scales in practice.
    The nodal path reports the source current directly; the parametric
    path recovers it as the sum of measured column currents, which is the
    same number whenever charge is conserved.
    """
    if solution.source_current is not None:
        total = float(np.sum(solution.source_current))
    else:
        total = float(np.sum(solution.i_out))
    return spec.v_in * total


def parametric_solve(
    spec: CrossbarSpec,
    params: SneakParams,
    fraction_mode: str = DEFAULT_FRACTION_MODE,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    relax: float = DEFAULT_RELAX,
    threads: int | None = None,
) -> ReadoutSolution:
    """Read every row of the array through the calibrated ladder model.

    All rows iterate together as one batch (see _run_stage), on the
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
        spec, params, np.arange(spec.m), fraction_mode, tol, max_iter, relax
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
