"""Full nodal-analysis reference for the crossbar read.

One wordline is driven at a time.  The source reaches the row through one
interconnect segment, every column is grounded through one segment below
its last cell, undriven rows stay in the network as floating sneak-path
carriers, and each cell conducts between its wordline and bitline node.
Every cell is a monotone resistor, so the node voltages minimize the
network's convex co-content, and the shared Newton driver in
xbar.fixedpoint finds them: each driven row is a batch of one whose state
is its 2mn node voltages, and this module supplies the current-law
residual and the Newton step, the solve of the mesh with every cell at
its tangent.

With every cell at one conductance the network is separable; ModalMesh
solves it mode by mode.  It is the calibration reference
(solve_linear_homogeneous), and at g_bar, an array's mean zero-bias
chord, the one operator each oracle row starts from and preconditions
with.  A row's first state is its driven row solved exactly, cells
nonlinear, with every other cell held at g_bar (solve_driven_rows, n
unknowns per row through the capacitance-matrix method), then lifted to
every node.  Newton's steps from there solve the mesh by conjugate
gradients preconditioned at g_bar on the default route ("pcg"), which
factors no sparse matrix.  The "sparse" route solves each step by direct
sparse LU, the reference the default must match.  Only the functions that
assemble or factor the mesh import scipy.sparse, at their first call, so
the default route loads no scipy.

This solver is the ground truth the parametric model is calibrated
against; it is deliberately free of modeling shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xbar import fixedpoint, runio
from xbar.ivtable import LookupPlan
from xbar.model import CrossbarSpec, ReadoutSolution

KCL_RTOL = 1e-11  # worst node imbalance a mesh solve leaves, per unit source current
CG_MAX_STEPS = 100  # conjugate-gradient steps before a Newton step is solved directly


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
    iterations: int
    converged: bool
    residual: float


def _path_laplacian(size: int, grounded: bool):
    """Laplacian of a path of `size` nodes joined by unit segments: free at
    both ends (a wordline) or grounded through one more segment below its
    last node (a bitline).  _path_modes gives its eigenpairs in closed form."""
    import scipy.sparse as sp

    diag = np.full(size, 2.0)
    diag[0] = 1.0
    if not grounded:
        diag[-1] -= 1.0
    off = -np.ones(size - 1)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csc")


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


def _assemble(g: float, g_cell: np.ndarray, active_row: int):
    """Sparse conductance matrix over [wordline nodes; bitline nodes]:

        [[g (I_m x L_free(n)) + C,  -C                         ],
         [-C,                       g (L_grounded(m) x I_n) + C]]

    with C = diag(g_cell), plus the source segment's stamp g at the driven
    row's first wordline node.
    """
    import scipy.sparse as sp

    m, n = g_cell.shape
    c = sp.diags(g_cell.ravel(), format="csc")
    word = g * sp.kron(sp.identity(m), _path_laplacian(n, grounded=False), format="csc")
    bit = g * sp.kron(_path_laplacian(m, grounded=True), sp.identity(n), format="csc")
    a = sp.bmat([[word + c, -c], [-c, bit + c]], format="csc")
    src = active_row * n
    return a + sp.csc_matrix(([g], ([src], [src])), shape=a.shape)


def _solve_direct(g: float, g_cell: np.ndarray, active_row: int, rhs: np.ndarray):
    """Sparse LU of the assembled mesh applied to the node currents rhs,
    then once more to the edge-walk residual that solve leaves.

    Where g_cell r_int is large the assembled diagonal 2g + g_cell rounds
    most of g away, and the plain solve misses cell drops by up to ~1e-9
    relative; the second step, against the residual that keeps g and
    g_cell apart, reuses the factor and brings that to ~1e-10.
    """
    from scipy.sparse.linalg import splu

    lu = splu(_assemble(g, g_cell, active_row))
    x = lu.solve(rhs)
    return x + lu.solve(rhs + _inflow(g, g_cell, active_row, 0.0, x))


def _inflow(g: float, g_cell: np.ndarray, active_row: int, v_source: float, x):
    """Net current into every node of the mesh state x, walked edge by edge.

    With the driver at v_source this is the Kirchhoff current-law residual
    b - A x of the assembled system; with v_source = 0 it is -A x, the
    matrix-free product the conjugate-gradient steps use.  Every flow is
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


class ModalMesh:
    """The sourceless network with every cell at one conductance g_cell,
    solved mode by mode.

    In the eigenbasis (_path_modes) of the wordline path (U, lambda) and of
    the grounded bitline path (V, mu) that _assemble is built from, the
    network splits into m*n two-node word/bit systems [[g lambda + g_cell,
    -g_cell], [-g_cell, g mu + g_cell]] with determinant
    g^2 mu lambda + g g_cell (mu + lambda) > 0 (Buzbee, Golub & Nielson's
    matrix decomposition for grid Poisson problems).  `word`, `cross` and
    `bit` are the entries of their inverses but for one part: a wordline's
    uniform mode (lambda = 0) reaches the rest only through its n cells,
    and its word entry's 1/g_cell lifts the wordline by `lift` per ampere.
    """

    def __init__(self, g: float, m: int, n: int, g_cell: float):
        self.g, self.g_cell, self.shape, self.lift = g, g_cell, (m, n), 1.0 / (n * g_cell)
        lam, self.u = _path_modes(n, grounded=False)
        mu, self.v = _path_modes(m, grounded=True)
        self.g_mu = g * mu[:, None]
        self.det = self.g_mu * (g * lam + g_cell) + g * g_cell * lam
        self.cross = g_cell / self.det
        self.bit = (g * lam + g_cell) / self.det
        self.word = (self.g_mu + g_cell) / self.det
        self.word[:, 0] = self.cross[:, 0]  # the uniform mode's, less its 1/g_cell

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Node voltages, over [wordline nodes; bitline nodes], that node
        currents y drive through the network, less each wordline's lift:
        four dense mode products and one 2x2 solve per mode pair."""
        m, n = self.shape
        w, b = self.v.T @ y.reshape(2, m, n) @ self.u
        x = np.stack((self.word * w + self.cross * b, self.cross * w + self.bit * b))
        return (self.v @ x @ self.u.T).ravel()

    def driven_rows(self, rows=slice(None)):
        """The drop response of each of `rows` (every row by default), that
        row driven: the drops across its n cells that unit currents across
        each of them drive (k x n x n for k rows), and that a unit bias at
        the source drives (k x n).

        A current across cell (i, k), into its wordline node and out of its
        bitline node, drives mode pair (p, q) by V[i, p] U[k, q] and drops
        by word + bit - 2 cross there, and lifts wordline i by `lift`; so
        with c_i = (V o V)(word + bit - 2 cross) the sourceless response is
        U diag(c_i) U^T + lift 11^T.  The source segment is DrivenFactor's
        rank-one update: with s~_i = s_i + lift the drops a unit current
        into the source node drives and u_s + lift the voltage it raises
        there, it subtracts g s~ s~^T / denom, denom = 1 + g (u_s + lift),
        and the bias drives g s~ / denom.  The lift is taken over the one
        denominator, as in DrivenFactor.precondition: where n g_cell << g
        the two lift terms would cancel to the digits of g/(n g_cell).
        The per-row factors c, s and u_s take O(m^2 n) for every row at
        once; only the n x n responses are formed for `rows` alone.
        """
        g, lift, u = self.g, self.lift, self.u
        weight = self.v * self.v  # (i, p): row i's share of bitline mode p
        c = (weight @ (self.word + self.bit - 2.0 * self.cross))[rows]
        s = ((weight @ (self.word - self.cross) * u[0]) @ u.T)[rows]
        u_s = (weight @ self.word @ (u[0] * u[0]))[rows]
        denom = 1.0 + g * (u_s + lift)
        response = (u * c[:, None, :]) @ u.T
        response += (lift * (1.0 + g * u_s) / denom)[:, None, None]
        s_lift = s + lift
        update = s[:, :, None] * s_lift[:, None, :]  # with the next line s~ s~^T - lift^2 11^T
        update += lift * s[:, None, :]
        update *= (g / denom)[:, None, None]
        response -= update
        return response, (g / denom)[:, None] * s_lift


class DrivenFactor:
    """A ModalMesh with one row's source segment added.

    Driving a row only adds the source segment's diagonal stamp g at that
    row's first wordline node, a rank-one change, so one mode operator
    serves every row through the Sherman-Morrison formula.  At the
    operator's conductance it gives the mesh state exactly, and with the
    driven row's cells departing from it as dipole currents across them, a
    row's first state; at any chord linearization an approximation, the
    preconditioner of its conjugate gradients.  The driven row's lift is
    updated apart: where n g_cell << g it and the update grow alike as
    1/(n g_cell), and subtracting them would lose the digits of g/(n g_cell).
    """

    def __init__(self, mesh: ModalMesh, active_row: int):
        m, n = mesh.shape
        self.mesh, self.g, self.active_row = mesh, mesh.g, active_row
        self.src = active_row * n
        e = np.zeros(2 * m * n)
        e[self.src] = 1.0
        self.unit = mesh.solve(e)  # response to a unit current at the source node, less mesh.lift
        self.denom = 1.0 + self.g * (self.unit[self.src] + mesh.lift)

    def precondition(self, y: np.ndarray) -> np.ndarray:
        """Node voltages at the operator's conductance that node currents y
        drive through the mesh with the driver at zero."""
        m, n = self.mesh.shape
        g, i, src = self.g, self.active_row, self.src
        a = self.mesh.solve(y)
        lift = self.mesh.lift * y[: m * n].reshape(m, n).sum(axis=1)
        w_src = a[src] + lift[i]
        # lift[i] - g w_src mesh.lift / denom, taken over the one denominator
        lift[i] = (lift[i] * (1.0 + g * self.unit[src]) - g * self.mesh.lift * a[src]) / self.denom
        z = a - (g * w_src / self.denom) * self.unit
        z[: m * n] += np.repeat(lift, n)
        return z

    def solve(self, g_cell: np.ndarray, rhs: np.ndarray, gap: float, floor: float):
        """The mesh at g_cell (symmetric positive definite) solved against
        the node currents rhs by conjugate gradients from zero.

        The loop stops on the residual rhs - A p itself: once no node is
        out of balance by more than KCL_RTOL of the source current the step
        leaves, g |gap - p_src|, gap being the source segment's drop before
        it.  Where that lies below floor, one rounding of a wire current at
        the source (a row drawing little current against its wires), steps
        only chase rounding into overflow: the loop also stops once the
        residual is inside that floor at every node and in its total, the
        charge it leaves unbalanced.  A breakdown, or CG_MAX_STEPS steps
        with neither, is solved directly.
        """
        g, row, src = self.g, self.active_row, self.src

        def residual(p):
            r = rhs + _inflow(g, g_cell, row, 0.0, p)
            worst = np.max(np.abs(r))
            balanced = worst <= KCL_RTOL * abs(g * (gap - p[src]))
            return r, balanced or (worst <= floor and abs(np.sum(r)) <= floor)

        p = np.zeros_like(rhs)
        r, done = residual(p)
        d = None
        rz = 0.0
        for _ in range(CG_MAX_STEPS):
            if done:
                return p
            z = self.precondition(r)
            rz, rz_prev = float(r @ z), rz
            d = z if d is None else z + (rz / rz_prev) * d
            curvature = float(d @ -_inflow(g, g_cell, row, 0.0, d))
            if not (curvature > 0.0 and np.isfinite(rz / curvature)):
                break
            p = p + (rz / curvature) * d
            r, done = residual(p)
        if done:
            return p
        return _solve_direct(g, g_cell, row, rhs)


def solve_driven_rows(mesh: ModalMesh, plan: LookupPlan, v_in: float, rows=slice(None)) -> np.ndarray:
    """The drops across the cells of each of `rows` (every row by default;
    k x n for k rows), that row driven at v_in, with its own cells
    nonlinear (plan) and every other cell held at mesh.g_cell.

    Holding the rest linear leaves n unknowns per row.  With D the row's
    drop response and d0 its drops with its own cells at g_cell too
    (ModalMesh.driven_rows), the drops d balance where
    F = D^-1 (d0 - d) - (chord(d) - g_cell) d, the current each cell carries
    beyond g_cell, vanishes.  F is minus the gradient of the network's
    co-content with every other node minimized out, and its Hessian
    D^-1 + diag(t - g_cell) at cell tangents t is the Schur complement of
    the mesh's at those tangents, so it is symmetric positive definite and
    the rows iterate as one batch of fixedpoint.solve from d0 (Buzbee,
    Dorr, George & Golub's capacitance-matrix method, SIAM J. Numer. Anal.
    8, 1971), each Newton step one stacked n x n solve.
    """
    rows = np.arange(mesh.shape[0])[rows]
    response, bias = mesh.driven_rows(rows)
    conductance = np.linalg.inv(response)
    del response
    d0 = v_in * bias
    diag = np.arange(mesh.shape[1])

    def residual(ids, d):
        g_cell, tangent = plan.chord_tangent(d, rows[ids])
        f = (conductance[ids] @ (d0[ids] - d)[..., None])[..., 0]
        f -= (g_cell - mesh.g_cell) * d
        return f, tangent - mesh.g_cell

    def step(ids, d, f, jac):
        hessian = conductance[ids]
        hessian[:, diag, diag] += jac
        return np.linalg.solve(hessian, f[..., None])[..., 0]

    return fixedpoint.solve(residual, step, d0)[0]


class GeometryFactors:
    """What every row of one array shares: the array's table lookup plan,
    which every step of every row reads; the mode operator `settled` at
    g_bar, the arithmetic mean of the array's chords at zero bias, where
    every cell off the driven row ends up; and `drops` (m x n), the
    driven-row drops of `rows` (every row by default) solved on that
    background in one batch, NaN on every other row.

    Below a table's first bias node a cell's tangent is its chord, so the
    operator preconditions the Newton steps.  The drops
    (solve_driven_rows) are exact but for the cells off the driven row,
    which they hold at g_bar; lifted to every node they are the row's
    first state.
    """

    def __init__(self, spec: CrossbarSpec, rows=slice(None)):
        if spec.stack_shape:
            raise ValueError("the nodal oracle reads one array at a time, not a stack")
        m, n = spec.m, spec.n
        self.plan = LookupPlan(spec.pair, spec.bits, spec.delta)
        self.settled = ModalMesh(spec.g_int, m, n, np.mean(self.plan.chord(np.zeros((m, n)))))
        self.drops = np.full((m, n), np.nan)
        self.drops[rows] = solve_driven_rows(self.settled, self.plan, spec.v_in, rows)


def kirchhoff_row_solve(
    spec: CrossbarSpec,
    active_row: int,
    backend: str = "pcg",
    factors: GeometryFactors | None = None,
) -> RowSolve:
    """Drive one row and run Newton's method on the mesh to its solution.

    The first state is the row's driven-row drops on the g_bar background
    (GeometryFactors, built here for this row alone or shared across rows by
    kirchhoff_solve) lifted to every node: the settled operator, with its
    rank-one source update, applied to the driver's current and, across each
    driven cell, the current that cell carries beyond g_bar.  That state is
    exact but for the cells off the driven row.  Every Newton step solves
    the mesh with each cell at its tangent against the current-law residual,
    each cell carrying its chord current.  The default backend ("pcg") runs
    conjugate gradients preconditioned by the same operator, until the step
    leaves no node out of balance by more than KCL_RTOL of the source
    current.  "sparse", the reference, solves every step by direct sparse
    LU.  The row stops unconverged after fixedpoint.MAX_ITER Newton steps.
    """
    if not 0 <= active_row < spec.m:
        raise ValueError(f"active row {active_row} outside 0..{spec.m - 1}")
    if backend not in ("pcg", "sparse"):
        raise ValueError(f"unknown backend '{backend}', expected 'pcg' or 'sparse'")
    m, n = spec.m, spec.n
    mn = m * n
    g = spec.g_int
    src = active_row * n
    factors = factors or GeometryFactors(spec, [active_row])
    plan = factors.plan
    factor = DrivenFactor(factors.settled, active_row)
    drops = factors.drops[active_row : active_row + 1]
    excess = ((plan.chord(drops, [active_row]) - factors.settled.g_cell) * drops)[0]
    drive = np.zeros(2 * mn)
    drive[src] = g * spec.v_in  # what the driver injects with every node at zero
    drive[src : src + n] -= excess  # each driven cell's current beyond g_bar, wordline to bitline
    drive[mn + src : mn + src + n] += excess
    x = factor.precondition(drive)

    if backend == "pcg":
        solve_step = factor.solve
    else:
        def solve_step(g_cell, rhs, gap, floor):
            return _solve_direct(g, g_cell, active_row, rhs)

    floor = g * np.finfo(float).eps * abs(spec.v_in)

    def residual(ids, state):
        x = state[0]
        g_cell, tangent = plan.chord_tangent(x[:mn].reshape(m, n) - x[mn:].reshape(m, n))
        return _inflow(g, g_cell, active_row, spec.v_in, x)[None], tangent[None]

    def step(ids, state, f, jac):
        return solve_step(jac[0], f[0], spec.v_in - state[0, src], floor)[None]

    x, total, converged, size = fixedpoint.solve(residual, step, x[None])
    x = x[0]
    v_word = x[:mn].reshape(m, n)
    v_bit = x[mn:].reshape(m, n)
    i_out = g * x[mn + (m - 1) * n : mn + m * n].copy()
    source_current = g * (spec.v_in - x[src])
    return RowSolve(
        active_row=active_row,
        v_word=v_word,
        v_bit=v_bit,
        v_cell=(v_word - v_bit)[active_row].copy(),
        i_out=i_out,
        source_current=float(source_current),
        iterations=int(total[0]),
        converged=bool(converged[0]),
        residual=float(size[0]),
    )


def kirchhoff_solve(spec: CrossbarSpec, threads: int = 1) -> ReadoutSolution:
    """Readout of the whole array, or of every array of a stack: every
    row activated in turn.

    Row activations are independent; with threads > 1 every (array, row)
    pair runs on one pool, and results are merged back in order.  The mode
    operators are built once per array for all its rows (see
    kirchhoff_row_solve); each row reads them and its own iterates only, so
    its result does not depend on the thread count, the order rows run in
    or the arrays it is stacked with.
    """
    arrays = spec.arrays()
    factors = [GeometryFactors(one) for one in arrays]

    def solve_row(job):
        b, i = job
        row = kirchhoff_row_solve(arrays[b], i, factors=factors[b])
        return row.v_cell, row.i_out, row.iterations, row.converged, row.residual, row.source_current

    jobs = [(b, i) for b in range(len(arrays)) for i in range(spec.m)]
    v_cell, i_out, steps, converged, size, source = zip(*runio.parallel_map(solve_row, jobs, threads))
    return ReadoutSolution.from_rows(
        spec, "kirchhoff", v_cell, i_out, steps, converged, size, source_current=source
    )


def solve_linear_homogeneous(
    m: int, n: int, r_int: float, g_cell: float, v_in: float = 1.0
):
    """All cells at one fixed conductance, solved for every activated row.

    The ModalMesh's modes give every row's unit-current responses directly.
    The driven row's source segment is the rank-one Sherman-Morrison update
    of DrivenFactor: with w_i the voltage a unit current into row i's source
    node raises there, the row draws gain_i * v_in, gain_i = g / (1 + g w_i),
    and every node follows the unit response scaled by that current.  So
    every output for all rows is a pair of small dense products.  This is
    the calibration reference; it needs no Newton iteration.

    Returns (v_cell, i_out, source_current) with shapes (m, n), (m, n), (m,).
    """
    if min(m, n) < 1 or r_int <= 0 or g_cell <= 0 or v_in <= 0:
        raise ValueError("need positive dimensions, resistances, and bias")
    g = 1.0 / r_int
    mesh = ModalMesh(g, m, n, g_cell)
    u, v = mesh.u, mesh.v
    row_weight = v * v  # (i, p): row i's share of bitline mode p
    source_modes = u[0] * u  # (j, q): column j seen from the source column
    # unit-current responses of row i: cell drops, bottom bitline nodes, source node
    drop = row_weight @ (mesh.g_mu / mesh.det) @ source_modes.T
    bottom = (v * v[-1]) @ mesh.cross @ source_modes.T
    w = row_weight @ ((mesh.g_mu + g_cell) / mesh.det) @ (u[0] * u[0])
    source_current = g / (1.0 + g * w) * v_in
    return (
        source_current[:, None] * drop,
        g * source_current[:, None] * bottom,
        source_current,
    )
