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
solves it mode by mode, with the source segment's rank-one update that
drives a row stated once, in DrivenRow, and formed once per row.  It is
the calibration reference (solve_linear_homogeneous), and at g_bar, an
array's mean zero-bias chord, the one operator each oracle row starts
from and preconditions with.  A row's first state is its driven row solved
exactly, cells nonlinear, with every other cell held at g_bar
(solve_driven_rows, n unknowns per row through the capacitance-matrix
method), then lifted to every node by one solve of the operator.  From
there every Newton residual is a current across each cell, and on the
default route ("pcg"), which factors no sparse matrix, each Newton step
is solved on the m*n cell currents, lifted by one solve of the operator
and confirmed by one walk of the mesh (_inflow).  A step that walk does
not confirm, a breakdown or an exhausted step budget is solved by direct
sparse LU (_solve_direct), as the "sparse" route, the reference the
default must match, solves every step; only that route's functions
import scipy.sparse, at their first call.

The two kinds of Newton step are solved by two loops of preconditioned
conjugate gradients, each carrying its directions' products with the
inverse preconditioner by recurrence: _capacitance_step, masked over a
batch of driven rows, and _pcg, over one row's cells, with the source
voltage carried along and the mesh's stop rule.  One batched loop for
both kept every output within 7e-12 relative, but its masks and vector
steps, paid by a batch of one, made a mesh step 18-56 % and a readout
12-28 % slower at 32x32 and 64x64 (ROADMAP item 18): it would pay only
once the mesh steps of many rows run as one batch.

This solver is the ground truth the parametric model is calibrated
against; it is deliberately free of modeling shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from xbar import fixedpoint, runio
from xbar.ivtable import LookupPlan
from xbar.model import CrossbarSpec, ReadoutSolution

KCL_RTOL = 1e-11  # worst node imbalance a mesh solve leaves, per unit source current
CG_MAX_STEPS = 100  # steps one conjugate-gradient solve may take; a mesh step out of them goes direct
CAPACITANCE_RTOL = 1e-10  # residual a driven-row Newton step leaves, relative to its first


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
    product that confirms a conjugate-gradient step and refines a direct
    solve.  Every flow is formed from a voltage difference, so the
    residual resolves imbalances far below the branch currents themselves.

    The walk runs over the flat node vectors in contiguous passes: the
    wordline segments are the steps between neighbouring nodes, less the
    step across each row break, and the bitline segments the steps n nodes
    apart.  Each node sums its flows in the order of the edges, starting
    from 0.0 - flow, so the sum is the same to the bit, and to the sign of
    a zero, as an edge-by-edge walk over the (m, n) mesh.
    """
    m, n = g_cell.shape
    mn = m * n
    w, b = x[:mn], x[mn:]
    out = np.empty(2 * mn)
    into_w, into_b = out[:mn], out[mn:]
    flow = w[:-1] - w[1:]
    flow *= g
    flow[n - 1 :: n] = 0.0  # no segment joins a row's last node to the next row's first
    np.subtract(0.0, flow, out=into_w[:-1])
    into_w[-1] = 0.0
    into_w[1:] += flow
    flow = b[:-n] - b[n:]
    flow *= g
    np.subtract(0.0, flow, out=into_b[:-n])
    into_b[-n:] = 0.0
    into_b[n:] += flow
    into_b[-n:] -= g * b[-n:]
    flow = w - b
    flow *= g_cell.reshape(mn)
    into_w -= flow
    into_b += flow
    src = active_row * n
    into_w[src] += g * (v_source - w[src])
    return out


class ModalMesh:
    """The network with every cell at one conductance g_cell, solved mode
    by mode, any one row driven.

    In the eigenbasis (_path_modes) of the wordline path (U, lambda) and of
    the grounded bitline path (V, mu) that _assemble is built from, the
    sourceless network splits into m*n two-node word/bit systems [[g lambda
    + g_cell, -g_cell], [-g_cell, g mu + g_cell]] with determinant
    g^2 mu lambda + g g_cell (mu + lambda) > 0 (Buzbee, Golub & Nielson's
    matrix decomposition for grid Poisson problems).  `word`, `cross` and
    `bit` are the entries of their inverses but for one part: a wordline's
    uniform mode (lambda = 0) reaches the rest only through its n cells,
    and its word entry's 1/g_cell lifts the wordline by `lift` per ampere.

    Driving row i adds the source segment's stamp g at its first wordline
    node, a rank-one (Sherman-Morrison) update, worked out once for every
    row from the unit current into the source node, which drives mode pair
    (p, q) by V[i, p] U[0, q]: `u_s` and `s`, the voltage it raises there
    and the drops across the row's cells, each less the lift; `denom` =
    1 + g (u_s + lift); `gain` = g / denom, the current a unit bias draws;
    and `bias` = gain (s + lift), the drops it drives; `driven` forms one
    row's share (DrivenRow).  Every term is of the array's size, (m, n) or
    smaller.  `ut`, U^T laid out contiguously, serves DrivenRow's back
    products a third faster than the transposed view at 64x64; `s` keeps
    the view, to keep calibration's bytes.
    """

    def __init__(self, g: float, m: int, n: int, g_cell: float):
        self.g, self.g_cell, self.shape, self.lift = g, g_cell, (m, n), 1.0 / (n * g_cell)
        lam, self.u = _path_modes(n, grounded=False)
        self.ut = np.ascontiguousarray(self.u.T)
        mu, self.v = _path_modes(m, grounded=True)
        self.g_mu = g * mu[:, None]
        self.det = self.g_mu * (g * lam + g_cell) + g * g_cell * lam
        self.cross = g_cell / self.det
        self.bit = (g * lam + g_cell) / self.det
        self.word = (self.g_mu + g_cell) / self.det
        self.word[:, 0] = self.cross[:, 0]  # the uniform mode's, less its 1/g_cell
        self.word_drop = self.word - self.cross  # the drop a wordline node's current drives
        self.drop = self.word + self.bit - 2.0 * self.cross  # the drop a cell's current drives
        self.weight = self.v * self.v  # (i, p): row i's share of bitline mode p
        self.u_s = self.weight @ self.word @ self.u[0] ** 2
        self.denom = 1.0 + g * (self.u_s + self.lift)
        self.gain = g / self.denom
        self.s = (self.weight @ self.word_drop * self.u[0]) @ self.u.T
        self.bias = self.gain[:, None] * (self.s + self.lift)

    def driven(self, row: int) -> DrivenRow:
        """The operator with `row` driven, its source terms formed."""
        return DrivenRow(self, row)

    def driven_rows(self, rows=slice(None)):
        """The drop response of each of `rows` (every row by default), that
        row driven: the DrivenResponse whose D_i maps unit currents across
        the row's n cells to the drops across them, and (k x n for k rows)
        the drops a unit bias at the source drives.

        A current across cell (i, k), into its wordline node and out of its
        bitline node, drives mode pair (p, q) by V[i, p] U[k, q] and drops
        by word + bit - 2 cross there, and lifts wordline i by `lift`; so
        with c_i = (V o V)(word + bit - 2 cross) the sourceless response is
        U diag(c_i) U^T + lift 11^T.  The source update, with s~_i = s_i +
        lift, subtracts g s~ s~^T / denom, and the lift is taken over the
        one denominator, as in DrivenRow: where n g_cell << g the two lift
        terms would cancel to the digits of g/(n g_cell).  So D_i =
        U diag(c_i) U^T + a_i 11^T - gain (s s^T + lift (s 1^T + 1 s^T)),
        a_i = lift (1 + g u_s) / denom.  The factors c take O(m^2 n) for
        every row at once, and are kept for `rows` alone.
        """
        u, lift, s, gain = self.u, self.lift, self.s[rows], self.gain[rows]
        c = (self.weight @ self.drop)[rows]
        # a_i 11^T, as U's uniform mode
        c[:, 0] += self.shape[1] * lift * (1.0 + self.g * self.u_s[rows]) / self.denom[rows]
        w = np.stack([s, np.ones_like(s)], axis=1)  # W_i^T, (k, 2, n)
        y = ((w @ u) / c[:, None, :]) @ u.T
        k = gain[:, None, None] * np.array([[1.0, lift], [lift, 0.0]])
        cap = np.eye(2) - k @ (w @ np.swapaxes(y, 1, 2))
        det = cap[:, 0, 0] * cap[:, 1, 1] - cap[:, 0, 1] * cap[:, 1, 0]
        adj = np.stack([cap[:, 1, 1], -cap[:, 0, 1], -cap[:, 1, 0], cap[:, 0, 0]], axis=1)
        t = (adj.reshape(-1, 2, 2) / det[:, None, None]) @ k
        return DrivenResponse(u, lift, c, s, gain, y, t), self.bias[rows]


class DrivenRow:
    """A ModalMesh with one row driven: the one place the source update is
    written, its terms formed once per row.  A unit current into the
    source node drives mode pair (p, q) by `modes` = V[row, p] U[0, q], so
    a sourceless response raises it, less its lift, by one dot product of
    `modes` with the wordline side of its mode coefficients, and the
    source current takes one scaled copy off them: `word_modes` = word o
    modes in `solve`, `drop_modes` = word_drop o modes in `cells`.
    """

    def __init__(self, mesh: ModalMesh, row: int):
        self.mesh, self.row = mesh, row
        self.modes = np.outer(mesh.v[row], mesh.u[0])
        self.word_modes = mesh.word * self.modes
        self.drop_modes = mesh.word_drop * self.modes
        self.gain, self.denom = float(mesh.gain[row]), float(mesh.denom[row])
        self.kept = 1.0 + mesh.g * float(mesh.u_s[row])
        self.g_lift = mesh.g * mesh.lift

    def _source(self, v_src: float, lift: float):
        """For a source node at v_src above the row's lift: the source
        current's scale of `modes`, the new lift and the source voltage,
        by Sherman-Morrison.  The lift is updated over one denominator:
        where n g_cell << g it and the update grow alike as 1/(n g_cell),
        and subtracting them would lose the digits of g/(n g_cell).
        """
        raised = v_src + lift
        return self.gain * raised, (lift * self.kept - self.g_lift * v_src) / self.denom, raised / self.denom

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Node voltages, over [wordline nodes; bitline nodes], that node
        currents y drive through the network, the driver at zero: four
        dense mode products, one 2x2 solve per mode pair, and the source
        update taken off the mode coefficients.  Each wordline's lift is
        read from and added to its uniform mode, U[0, 0] on every node,
        between the two products of each side: one entry per row.  The
        source voltage is summed pairwise: a BLAS dot rounds it worse, which
        cost a uniform 64x64 array at r_int 1e5 ten more mesh solves.
        """
        mesh, row = self.mesh, self.row
        m, n = mesh.shape
        uniform = mesh.u[0, 0]
        h = y.reshape(2, m, n) @ mesh.u
        lifts = (mesh.lift / uniform) * h[0, :, 0]  # lift times each wordline's current
        w, b = mesh.v.T @ h
        x = np.empty((2, m, n))
        np.multiply(mesh.word, w, out=x[0])
        x[0] += np.multiply(mesh.cross, b, out=x[1])
        source, lifts[row], _ = self._source(float(np.sum(self.modes * x[0])), lifts[row])
        x[0] -= source * self.word_modes
        w -= source * self.modes
        np.multiply(mesh.cross, w, out=x[1])
        x[1] += np.multiply(mesh.bit, b, out=b)
        h = mesh.v @ x
        h[0, :, 0] += lifts / uniform
        return (h @ mesh.ut).ravel()

    def cells(self, j: np.ndarray):
        """The cell response S = P M^-1 P^T: the drops (m x n) that
        currents j across the cells, each into its wordline node and out of
        its bitline node, drive across them, and the voltage they leave the
        source node at.  It is `solve` of [j; -j] read across the cells, on
        one (m, n) array: a mode pair drops by `drop` = word + bit - 2
        cross, the source current by `word_drop` = word - cross, and each
        wordline's lift, as in `solve`, rides its uniform mode; two
        products per side.
        """
        mesh, row = self.mesh, self.row
        uniform = mesh.u[0, 0]
        h = j @ mesh.u
        lifts = (mesh.lift / uniform) * h[:, 0]
        h = mesh.v.T @ h
        source, lifts[row], v_source = self._source(float(np.vdot(self.drop_modes, h)), lifts[row])
        h *= mesh.drop
        h -= source * self.drop_modes
        h = mesh.v @ h
        h[:, 0] += lifts / uniform
        return h @ mesh.ut, v_source


def _row_dot(a, b):
    return np.einsum("kn,kn->k", a, b)


class DrivenResponse(NamedTuple):
    """The drop responses D_i = A_i - W_i K_i W_i^T of k driven rows
    (ModalMesh.driven_rows), applied and inverted from O(kn) factors.

    A_i = U diag(c_i) U^T, with the uniform part of D_i in its first mode,
    and the source segment is the rank-two term in W_i = [s_i, 1] with
    K_i = gain_i [[1, lift], [lift, 0]].  Applying D_i is two (k, n) x
    (n, n) mode products; D_i^-1 is A_i^-1 = U diag(1 / c_i) U^T and the
    Woodbury correction A^-1 W (I - K W^T A^-1 W)^-1 K W^T A^-1, whose
    2 x 2 capacitance driven_rows inverts in closed form once per row.  Every
    method takes one row of currents or drops per row of the response
    (`take` restricts it to some of its rows); no n x n matrix is formed.
    """

    u: np.ndarray
    lift: float
    c: np.ndarray
    s: np.ndarray
    gain: np.ndarray
    y: np.ndarray  # (A_i^-1 W_i)^T
    t: np.ndarray  # (I - K W^T A^-1 W)^-1 K

    def take(self, ids):
        """The responses of the rows ids (positions or a mask among the k) alone."""
        return DrivenResponse(self.u, self.lift, *(a[ids] for a in self[2:]))

    def apply(self, r):
        """D_i r_i for each row i: the drops currents r drive."""
        out = ((r @ self.u) * self.c) @ self.u.T
        sr = _row_dot(self.s, r)
        out -= (self.gain * (sr + self.lift * r.sum(axis=1)))[:, None] * self.s
        out -= (self.gain * self.lift * sr)[:, None]
        return out

    def solve(self, d):
        """D_i^-1 d_i for each row i: the currents that drive drops d."""
        out = ((d @ self.u) / self.c) @ self.u.T
        weights = (self.t @ np.einsum("kjn,kn->kj", self.y, d)[..., None])[..., 0]
        out += np.einsum("kjn,kj->kn", self.y, weights)
        return out


def _capacitance_step(response, f, shift):
    """Newton steps p of the driven rows of `response`: (D_i^-1 +
    diag(shift_i)) p_i = f_i, each row solved by conjugate gradients
    preconditioned by D_i.

    The search direction's product with D^-1 comes by recurrence: the
    first direction is D r, so D^-1 of it is r, and each next direction
    D r' + beta d has D^-1 of it r' + beta D^-1 d; each step applies D_i
    once and D^-1 never.  A row stops once r^T D r, the residual's size in
    the preconditioner's norm, falls to CAPACITANCE_RTOL^2 of its first,
    after CG_MAX_STEPS steps, or with a NaN step, which the Newton driver
    does not converge on, where its residual is NaN or its search breaks
    down.  Rows that stop leave the batch, the response and the shifts
    with them, so every decision is the row's own.
    """
    p = np.zeros_like(f)
    live = np.arange(len(f))
    r = f.copy()
    z = response.apply(r)
    rz = _row_dot(r, z)
    target = CAPACITANCE_RTOL**2 * rz
    direction, q = z, r.copy()  # q = D^-1 direction
    for _ in range(CG_MAX_STEPS):
        keep = rz > target
        if not keep.all():
            p[live[np.isnan(rz)]] = np.nan  # a NaN residual or a breakdown: a NaN step
            live, r, direction, q, rz, target = (a[keep] for a in (live, r, direction, q, rz, target))
            if not live.size:
                break
            response, shift = response.take(keep), shift[keep]
        product = q + shift * direction  # H direction
        alpha = rz / _row_dot(direction, product)
        alpha[~(alpha > 0.0)] = np.nan  # a breakdown
        p[live] += alpha[:, None] * direction
        r -= alpha[:, None] * product
        z = response.apply(r)
        rz, rz_prev = _row_dot(r, z), rz
        beta = (rz / rz_prev)[:, None]
        direction *= beta
        direction += z
        q *= beta
        q += r
    return p


def _pcg(driven: DrivenRow, g_cell: np.ndarray, rhs: np.ndarray, gap: float, floor: float):
    """The mesh at g_cell (symmetric positive definite), the row of
    `driven` driven, solved against the node currents rhs: the node-space
    step p with J p = rhs, found by conjugate gradients on the m*n cell
    currents.

    Every Newton residual of an oracle row is a cell-pair vector [rho;
    -rho] up to rounding, so rho is taken as the wordline half of rhs,
    exact on the wordline nodes, and off = rhs_w + rhs_b is left on the
    bitline nodes.  With M the mesh at mesh.g_cell, S = P M^-1 P^T its cell
    response (DrivenRow.cells, its source terms formed once per row) and
    Delta = diag(g_cell - mesh.g_cell), the
    step p = M^-1 ([e; off - e]) balances the mesh where the cell currents
    e = S^-1 delta have (S^-1 + Delta) delta = rho, the Schur complement of
    J on the cells (Concus, Golub & O'Leary, 1976), but for Delta times
    the drops off drives, which is rounding.  That system is solved by
    conjugate gradients from zero preconditioned by S, each direction's
    product with S^-1 by recurrence, as in _capacitance_step: each step
    applies S once and accumulates e, and neither solves M nor walks the
    mesh.  The source node's voltage p_src in the lifted step is carried
    by the same recurrence on the source voltage each apply returns.

    The node residual of the lifted step is [rho_k; -rho_k], rho_k the
    loop's residual, so the loop stops on the mesh's rule: once no node is
    out of balance by more than KCL_RTOL of the source current the step
    leaves, g |gap - p_src|, gap being the source segment's drop before
    it.  Where that lies below floor, one rounding of a wire current at the
    source (a row drawing little current against its wires), steps only
    chase rounding into overflow: the loop also stops once the residual is
    inside that floor.  The step is then lifted by one solve of M and
    confirmed by one walk of the mesh: it is returned only if the walked
    residual passes the rule too, at every node and, against the floor,
    in its total, the charge it leaves unbalanced.  An rhs that already
    passes returns a zero step.  A step the walk does not confirm, a
    breakdown, or CG_MAX_STEPS steps without a stop is solved directly.
    """
    mesh, row = driven.mesh, driven.row
    g, (m, n) = mesh.g, mesh.shape
    mn = m * n

    def settled(r, p_src, total=0.0):
        worst = max(r.max(), -r.min())  # NaN fails the rule below
        balanced = worst <= KCL_RTOL * abs(g * (gap - p_src))
        return balanced or (worst <= floor and abs(total) <= floor)

    if settled(rhs, 0.0, np.sum(rhs)):
        return np.zeros_like(rhs)
    shift = g_cell - mesh.g_cell
    r = rhs[:mn].reshape(m, n).copy()
    e = np.zeros((m, n))
    e_source = 0.0  # the source node's voltage in the step e lifts to, less off's
    d, q, q_source, rz = np.zeros((m, n)), np.zeros((m, n)), 0.0, np.inf  # q = S^-1 d
    for step in range(CG_MAX_STEPS + 1):
        if settled(r, e_source):
            y = np.concatenate([e.ravel(), rhs[:mn] + rhs[mn:]])
            y[mn:] -= y[:mn]
            p = driven.solve(y)
            walked = rhs + _inflow(g, g_cell, row, 0.0, p)
            if settled(walked, p[row * n], np.sum(walked)):
                return p
            break
        if step == CG_MAX_STEPS:
            break
        z, z_source = driven.cells(r)
        rz, rz_prev = float(np.vdot(r, z)), rz
        beta = rz / rz_prev  # 0 on the first step, from rz_prev = inf
        d *= beta
        d += z
        q *= beta
        q += r
        q_source = beta * q_source + z_source
        product = shift * d
        product += q  # H d
        curvature = float(np.vdot(d, product))
        if not (curvature > 0.0 and np.isfinite(rz / curvature)):
            break
        alpha = rz / curvature
        e += alpha * q
        e_source += alpha * q_source
        r -= alpha * product
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
    8, 1971).  Each Newton step is solved by conjugate gradients
    preconditioned by D (_capacitance_step), and D and D^-1 are applied
    from their mode factors (DrivenResponse): no n x n matrix is formed.
    """
    rows = np.arange(mesh.shape[0])[rows]
    response, bias = mesh.driven_rows(rows)
    d0 = v_in * bias

    def residual(ids, d):
        g_cell, tangent = plan.chord_tangent(d, rows[ids])
        f = response.take(ids).solve(d0[ids] - d)
        f -= (g_cell - mesh.g_cell) * d
        return f, tangent - mesh.g_cell

    def step(ids, d, f, jac):
        return _capacitance_step(response.take(ids), f, jac)

    return fixedpoint.solve(residual, step, d0)[0]


class GeometryFactors:
    """What every row of one array shares: the array's table lookup plan,
    which every step of every row reads; the mode operator `settled` at
    g_bar, the arithmetic mean of the array's chords at zero bias, where
    every cell off the driven row ends up; and `drops` (m x n), the
    driven-row drops of `rows` (every row by default) solved on that
    background in one batch, NaN on every other row.

    Below a table's first bias node a cell's tangent is its chord, so the
    operator's cell response, with the driven row's source update
    (DrivenRow.cells), preconditions the Newton steps.  The drops
    (solve_driven_rows) are exact but for the cells off the driven row,
    which they hold at g_bar; lifted to every node by the same operator
    they are the row's first state.  They are solved matrix-free, by conjugate gradients on O(mn)
    mode factors (DrivenResponse), so building the factors holds no n x n
    matrix per row.
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
    kirchhoff_solve) lifted to every node: one solve of the settled
    operator with this row driven (DrivenRow, formed once per row)
    against the driver's current and,
    across each driven cell, the current that cell carries beyond g_bar.
    That state is exact but for the cells off the driven row.  Every Newton
    step solves the mesh with each cell at its tangent against the
    current-law residual, each cell carrying its chord current.  The
    default backend ("pcg") runs conjugate gradients on the cell currents,
    preconditioned by the same operator's cell response (_pcg), until the
    step leaves no node out of balance by more than KCL_RTOL of the source
    current, then lifts the step with one solve and confirms it with one
    walk: at most one solve of the operator per Newton step.  "sparse", the
    reference, solves every step by direct sparse LU.  The row stops
    unconverged after fixedpoint.MAX_ITER Newton steps.
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
    plan, mesh = factors.plan, factors.settled
    driven = mesh.driven(active_row)
    drops = factors.drops[active_row : active_row + 1]
    excess = ((plan.chord(drops, [active_row]) - mesh.g_cell) * drops)[0]
    drive = np.zeros(2 * mn)
    drive[src] = g * spec.v_in  # what the driver injects with every node at zero
    drive[src : src + n] -= excess  # each driven cell's current beyond g_bar, wordline to bitline
    drive[mn + src : mn + src + n] += excess
    x = driven.solve(drive)

    floor = g * np.finfo(float).eps * abs(spec.v_in)

    def residual(ids, state):
        x = state[0]
        g_cell, tangent = plan.chord_tangent(x[:mn].reshape(m, n) - x[mn:].reshape(m, n))
        return _inflow(g, g_cell, active_row, spec.v_in, x)[None], tangent[None]

    def step(ids, state, f, jac):
        if backend == "sparse":
            return _solve_direct(g, jac[0], active_row, f[0])[None]
        return _pcg(driven, jac[0], f[0], spec.v_in - state[0, src], floor)[None]

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

    The ModalMesh's source terms give every row's drops and source current
    directly: row i draws gain_i v_in, and its cells drop bias_i v_in.  The
    bottom bitline nodes follow their response to a unit current into the
    source node, scaled by that current: one more pair of small dense
    products for all rows.  This is the calibration reference; it needs no
    Newton iteration.

    Returns (v_cell, i_out, source_current) with shapes (m, n), (m, n), (m,).
    """
    if min(m, n) < 1 or r_int <= 0 or g_cell <= 0 or v_in <= 0:
        raise ValueError("need positive dimensions, resistances, and bias")
    g = 1.0 / r_int
    mesh = ModalMesh(g, m, n, g_cell)
    u, v = mesh.u, mesh.v
    bottom = (v * v[-1]) @ mesh.cross @ (u[0] * u).T  # (i, j): row i's source to column j's ground
    source_current = v_in * mesh.gain
    return v_in * mesh.bias, g * source_current[:, None] * bottom, source_current
