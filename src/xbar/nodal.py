"""Full nodal-analysis reference for the crossbar read.

One wordline is driven at a time.  The source reaches the row through one
interconnect segment, every column is grounded through one segment below
its last cell, undriven rows stay in the network as floating sneak-path
carriers, and each cell conducts between its wordline and bitline node.
Cell nonlinearity is handled by re-linearizing chord conductances between
linear mesh solves.  The iteration belongs to xbar.fixedpoint, the driver
the parametric model shares: each driven row is a batch of one whose state
is its 2mn node voltages, and this module supplies the mesh solve and the
chord lookup.  The nodal matrix is a symmetric positive-definite
grid Laplacian, so the default route ("pcg") factors the sourceless
network once per array, at the start and at the settled conductances, and
solves every sweep of every row from those two factorizations: the first
sweep exactly, through a rank-one update for the driven row's source, and
the later ones by preconditioned conjugate gradients, each stopped on the
current-law residual.  The other route ("sparse") factors every sweep's
assembled matrix directly; it is the reference the default must match.

The parametric model's calibration reference, every cell at one
conductance, is separable: solve_linear_homogeneous solves it mode by
mode in closed form, every driven row at once.

This solver is the ground truth the parametric model is calibrated
against; it is deliberately free of modeling shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from xbar import fixedpoint, runio
from xbar.fixedpoint import DEFAULT_MAX_ITER, DEFAULT_TOL
from xbar.ivtable import cell_lookup
from xbar.model import CrossbarSpec, ReadoutSolution, compute_power

KCL_RTOL = 1e-11  # worst node imbalance a mesh solve leaves, per unit source current
CG_MAX_STEPS = 100  # conjugate-gradient steps before a sweep is solved directly


@dataclass
class RowSolve:
    """Everything the network knows after driving one row: full node
    voltages (for conservation checks), the active row's cell drops, the
    grounded column currents, and convergence bookkeeping."""

    active_row: int
    v_word: np.ndarray  # m x n wordline node voltages
    v_bit: np.ndarray  # m x n bitline node voltages
    v_cell: np.ndarray  # n, drops across the active row's cells
    i_out: np.ndarray  # n, currents through the ground segments
    source_current: float
    g_cell: np.ndarray  # m x n chord conductances used in the last solve
    iterations: int
    converged: bool
    residual: float


def chord_conductances(spec: CrossbarSpec, v: np.ndarray) -> np.ndarray:
    """Per-cell chord conductance at drop v from each cell's own table,
    clamped to the table's bias range (see ivtable.cell_lookup)."""
    return cell_lookup(spec.pair, spec.bits, spec.delta, v, chord=True)


def _path_laplacian(size: int, grounded: bool):
    """Laplacian of a path of `size` nodes joined by unit segments: free at
    both ends (a wordline) or grounded through one more segment below its
    last node (a bitline).  _path_modes gives its eigenpairs in closed form."""
    diag = np.full(size, 2.0)
    diag[0] = 1.0
    if not grounded:
        diag[-1] -= 1.0
    off = -np.ones(size - 1)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csc")


def _assemble(g: float, g_cell: np.ndarray, active_row: int | None = None):
    """Sparse conductance matrix over [wordline nodes; bitline nodes]:

        [[g (I_m x L_free(n)) + C,  -C                         ],
         [-C,                       g (L_grounded(m) x I_n) + C]]

    with C = diag(g_cell), plus the source segment's stamp g at the driven
    row's first wordline node.  active_row = None leaves the source segment
    out entirely (the sourceless network MeshFactor factors for the
    rank-one update path).
    """
    m, n = g_cell.shape
    c = sp.diags(g_cell.ravel(), format="csc")
    word = g * sp.kron(sp.identity(m), _path_laplacian(n, grounded=False), format="csc")
    bit = g * sp.kron(_path_laplacian(m, grounded=True), sp.identity(n), format="csc")
    a = sp.bmat([[word + c, -c], [-c, bit + c]], format="csc")
    if active_row is None:
        return a
    src = active_row * n
    return a + sp.csc_matrix(([g], ([src], [src])), shape=a.shape)


def start_conductances(spec: CrossbarSpec) -> np.ndarray:
    """Every cell's chord at the applied bias, the first linearization.

    The driven row dominates the source current and sits near v_in, and
    strongly nonlinear tables start one to two sweeps closer than from a
    near-zero-bias chord."""
    return chord_conductances(spec, np.full((spec.m, spec.n), spec.v_in))


def _solve_direct(g: float, g_cell: np.ndarray, active_row: int, v_source: float):
    """Sparse LU of the assembled mesh, applied twice to the edge-walk
    residual from the zero state.

    At zero the residual is the source current alone, so the first step is
    the plain LU solve.  Where g_cell r_int is large the assembled diagonal
    2g + g_cell rounds most of g away, and that solve misses cell drops by
    up to ~1e-9 relative; the second step, against the residual that keeps
    g and g_cell apart, reuses the factor and brings that to ~1e-10.
    """
    lu = splu(_assemble(g, g_cell, active_row))
    x = np.zeros(2 * g_cell.size)
    for _ in range(2):
        x = x + lu.solve(_inflow(g, g_cell, active_row, v_source, x))
    return x


def _inflow(g: float, g_cell: np.ndarray, active_row: int, v_source: float, x):
    """Net current into every node of the mesh state x, walked edge by edge.

    With the driver at v_source this is the Kirchhoff current-law residual
    b - A x of the assembled system; with v_source = 0 it is -A x, the
    matrix-free product the conjugate-gradient sweeps use.  Every flow is
    formed from a voltage difference, so the residual resolves imbalances
    far below the branch currents themselves.
    """
    m, n = g_cell.shape
    mn = m * n
    w = x[:mn].reshape(m, n)
    b = x[mn:].reshape(m, n)
    out = np.zeros(2 * mn)
    into_w = out[:mn].reshape(m, n)
    into_b = out[mn:].reshape(m, n)
    flow = g * (w[:, :-1] - w[:, 1:])
    into_w[:, :-1] -= flow
    into_w[:, 1:] += flow
    flow = g * (b[:-1] - b[1:])
    into_b[:-1] -= flow
    into_b[1:] += flow
    into_b[-1] -= g * b[-1]
    flow = g_cell * (w - b)
    into_w -= flow
    into_b += flow
    into_w[active_row, 0] += g * (v_source - w[active_row, 0])
    return out


class MeshFactor:
    """Sparse LU of the sourceless network at one set of cell conductances.

    Driving a row only adds the source segment's diagonal stamp at that
    row's first wordline node, a rank-one change, so this one factorization
    serves every row of the geometry through the Sherman-Morrison formula.
    At the conductances it was built with it gives the mesh state exactly;
    at any other chord linearization it preconditions conjugate gradients.
    """

    def __init__(self, g: float, g_cell: np.ndarray):
        self.g = g
        self.shape = g_cell.shape
        a0 = _assemble(g, g_cell)
        # the matrix is symmetric: ordering on A + A^T keeps the fill, and
        # with it every solve, about half of what the default ordering gives
        self.lu = splu(a0, permc_spec="MMD_AT_PLUS_A")


class DrivenFactor:
    """A MeshFactor with one row's source stamp added by rank-one update."""

    def __init__(self, factor: MeshFactor, active_row: int):
        m, n = factor.shape
        self.lu, self.g, self.active_row = factor.lu, factor.g, active_row
        self.src = active_row * n
        e = np.zeros(2 * m * n)
        e[self.src] = 1.0
        self.unit = self.lu.solve(e)  # response to a unit current at the source node
        self.gain = self.g / (1.0 + self.g * self.unit[self.src])

    def state(self, v_source: float) -> np.ndarray:
        """Node voltages at the factored conductances with the driver at v_source."""
        return (self.gain * v_source) * self.unit

    def precondition(self, y: np.ndarray) -> np.ndarray:
        w = self.lu.solve(y)
        return w - (self.gain * w[self.src]) * self.unit

    def solve(self, g_cell: np.ndarray, v_source: float, x: np.ndarray) -> np.ndarray:
        """Mesh state at g_cell by conjugate gradients from the start state x.

        The matrix is symmetric positive definite and this factor a close
        approximation of it, so a handful of steps suffice.  The loop stops
        on the current-law residual itself: once no node is out of balance
        by more than KCL_RTOL of the source current.  Where that lies below
        one rounding of a wire current at the source, g eps v_source (a row
        drawing little current against its wires), steps only chase rounding
        into overflow: a state at that floor is taken if the network's total
        charge balances to it as well.  Any other end of the loop (the floor
        without that total, a breakdown, CG_MAX_STEPS steps) is solved by
        direct sparse LU.
        """
        g, row = self.g, self.active_row
        floor = g * np.finfo(float).eps * abs(v_source)

        def residual(x):
            r = _inflow(g, g_cell, row, v_source, x)
            worst = np.max(np.abs(r))
            return r, worst <= KCL_RTOL * abs(g * (v_source - x[self.src])), worst <= floor

        r, balanced, at_floor = residual(x)
        p = None
        rz = 0.0
        for _ in range(CG_MAX_STEPS):
            if balanced or at_floor:
                break
            z = self.precondition(r)
            rz, rz_prev = float(r @ z), rz
            p = z if p is None else z + (rz / rz_prev) * p
            curvature = float(p @ -_inflow(g, g_cell, row, 0.0, p))
            if not (curvature > 0.0 and np.isfinite(rz / curvature)):
                break
            x = x + (rz / curvature) * p
            r, balanced, at_floor = residual(x)
        if balanced or (at_floor and abs(np.sum(r)) <= floor):
            return x
        return _solve_direct(g, g_cell, row, v_source)


class GeometryFactors:
    """The two factorizations every row of one array shares.

    `start` is the network at the start chord conductances, so the first
    sweep of each row is exact through it.  `settled` is the network at the
    zero-bias chord, where every cell off the driven row ends up; it
    preconditions the later sweeps, which then differ from it essentially
    in the driven row alone.
    """

    def __init__(self, spec: CrossbarSpec):
        self.g_start = start_conductances(spec)
        self.start = MeshFactor(spec.g_int, self.g_start)
        self.settled = MeshFactor(
            spec.g_int, chord_conductances(spec, np.zeros((spec.m, spec.n)))
        )


def kirchhoff_row_solve(
    spec: CrossbarSpec,
    active_row: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    backend: str = "pcg",
    factors: GeometryFactors | None = None,
) -> RowSolve:
    """Drive one row and iterate chord conductances to a fixed point.

    Every sweep solves the mesh linearized at the latest chord
    conductances.  The default backend ("pcg") uses the array's
    GeometryFactors (built here, or passed in by kirchhoff_solve, which
    shares one set across rows): the first sweep is exact through the
    rank-one source update of the start factorization, and later sweeps
    run conjugate gradients preconditioned by the settled factorization
    and warm-started from this row's previous iterate.  "sparse" solves
    every sweep by direct sparse LU of the assembled matrix; it is the
    reference the default must match.
    """
    if not 0 <= active_row < spec.m:
        raise ValueError(f"active row {active_row} outside 0..{spec.m - 1}")
    m, n = spec.m, spec.n
    mn = m * n
    g = spec.g_int

    if backend == "pcg":
        factors = factors or GeometryFactors(spec)
        g_start = factors.g_start
        exact = DrivenFactor(factors.start, active_row)
        settled = DrivenFactor(factors.settled, active_row)

        def solve_mesh(v_source, g_cell, warm):
            start = exact.state(v_source) if warm is None else warm
            return settled.solve(g_cell, v_source, start)

    elif backend == "sparse":
        g_start = start_conductances(spec)

        def solve_mesh(v_source, g_cell, warm):
            return _solve_direct(g, g_cell, active_row, v_source)

    else:
        raise ValueError(f"unknown backend '{backend}', expected 'pcg' or 'sparse'")

    def evaluate(ids, scale, g_cell, state):
        return solve_mesh(scale[0], g_cell[0], None if state is None else state[0])[None]

    def relinearize(ids, state):
        x = state[0]
        return chord_conductances(spec, x[:mn].reshape(m, n) - x[mn:].reshape(m, n))[None]

    x, g_cell, total, converged, residual = fixedpoint.solve(
        evaluate, relinearize, np.array([spec.v_in]), g_start[None], tol, max_iter
    )
    x, g_cell = x[0], g_cell[0]
    v_word = x[:mn].reshape(m, n)
    v_bit = x[mn:].reshape(m, n)
    i_out = spec.g_int * x[mn + (m - 1) * n : mn + m * n].copy()
    source_current = spec.g_int * (spec.v_in - x[active_row * n])
    return RowSolve(
        active_row=active_row,
        v_word=v_word,
        v_bit=v_bit,
        v_cell=(v_word - v_bit)[active_row].copy(),
        i_out=i_out,
        source_current=float(source_current),
        g_cell=g_cell,
        iterations=int(total[0]),
        converged=bool(converged[0]),
        residual=float(residual[0]),
    )


def kirchhoff_solve(
    spec: CrossbarSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    threads: int | None = None,
) -> ReadoutSolution:
    """Readout of the whole array: every row activated in turn.

    Row activations are independent; with threads > 1 they run on a pool
    and are merged back in row order.  The network is factored once for
    all rows (see kirchhoff_row_solve); each row reads that factorization
    and its own iterates only, so its result does not depend on the thread
    count or the order rows run in.
    """
    factors = GeometryFactors(spec)

    def solve_row(i):
        return kirchhoff_row_solve(spec, i, tol=tol, max_iter=max_iter, factors=factors)

    rows = runio.parallel_map(solve_row, range(spec.m), threads)

    solution = ReadoutSolution(
        v_cell=np.vstack([r.v_cell for r in rows]),
        i_out=np.vstack([r.i_out for r in rows]),
        power=0.0,
        iterations=max(r.iterations for r in rows),
        converged=all(r.converged for r in rows),
        residual=max(r.residual for r in rows),
        solver="kirchhoff",
        source_current=np.array([r.source_current for r in rows]),
    )
    solution.power = compute_power(spec, solution)
    return solution


def _path_modes(size: int, grounded: bool):
    """Eigenvalues and orthonormal eigenvectors (columns) of
    _path_laplacian(size, grounded): for free ends (diagonal 1, 2, ..., 2,
    1) the cosine-transform modes, for a grounded end (1, 2, ..., 2, 2)
    cosines that vanish one node past it.  In closed form the free path's
    zero eigenvalue is an exact zero and small ones keep full precision."""
    k = np.arange(size)
    angle = np.pi * (2 * k + 1) / (2 * size + 1) if grounded else np.pi * k / size
    modes = np.cos(np.outer(k + 0.5, angle))
    return 4.0 * np.sin(0.5 * angle) ** 2, modes / np.linalg.norm(modes, axis=0)


def solve_linear_homogeneous(
    m: int, n: int, r_int: float, g_cell: float, v_in: float = 1.0
):
    """All cells at one fixed conductance, solved for every activated row.

    With every cell equal the sourceless network is separable: in the
    eigenbasis (_path_modes) of the wordline path (U, lambda) and of the
    grounded bitline path (V, mu) that _assemble is built from, it splits
    into m*n independent two-node word/bit systems with determinant
    g^2 mu lambda + g g_cell (mu + lambda) > 0
    (Buzbee, Golub & Nielson's matrix decomposition for grid Poisson
    problems).  The driven row's source segment is the rank-one
    Sherman-Morrison update of DrivenFactor: with w_i the voltage a unit
    current into row i's source node raises there, the row draws
    gain_i * v_in, gain_i = g / (1 + g w_i), and every node follows the
    unit response scaled by that current.  So every output for all rows is
    a pair of small dense products.  This is the calibration reference; it
    bypasses the Picard loop entirely.

    Returns (v_cell, i_out, source_current) with shapes (m, n), (m, n), (m,).
    """
    if min(m, n) < 1 or r_int <= 0 or g_cell <= 0 or v_in <= 0:
        raise ValueError("need positive dimensions, resistances, and bias")
    g = 1.0 / r_int
    lam, u = _path_modes(n, grounded=False)
    mu, v = _path_modes(m, grounded=True)
    g_mu = g * mu[:, None]
    det = g_mu * (g * lam + g_cell) + g * g_cell * lam
    row_weight = v * v  # (i, p): row i's share of bitline mode p
    source_modes = u[0] * u  # (j, q): column j seen from the source column
    # unit-current responses of row i: cell drops, bottom bitline nodes, source node
    drop = row_weight @ (g_mu / det) @ source_modes.T
    bottom = (v * v[-1]) @ (g_cell / det) @ source_modes.T
    w = row_weight @ ((g_mu + g_cell) / det) @ (u[0] * u[0])
    source_current = g / (1.0 + g * w) * v_in
    return (
        source_current[:, None] * drop,
        g * source_current[:, None] * bottom,
        source_current,
    )
