"""The Newton driver both readout solvers iterate with.

Both readouts find the node voltages of a resistive network whose cells
are nonlinear.  A cell carries I(v) = chord(v) v (ivtable.LookupPlan),
nondecreasing in v on every valid table (ivtable.validate_table), so each
cell is a monotone resistor and the node voltages are the unique minimizer
of the network's co-content: the wires' g dv^2 / 2 plus each cell's
integral of I from 0 to its drop (Duffin, "Nonlinear networks IIa", Bull.
AMS 53, 1947).  That function is convex, its gradient is minus the
current-law imbalance F, and its Hessian is the network's conductance
matrix with every cell at its tangent dI/dv.

This module runs Newton's method on it for a batch of rows, each row
carrying a flat state vector.  The parametric model's rows are calibrated
ladders, the nodal oracle's rows full meshes; a solver supplies two
callbacks over the rows `ids` (indices into its batch):

  residual(ids, state)  F at those states, and per row whatever the step
      solve needs of the tangents there (an array with one entry per id);
  step(ids, state, f, jac)  the Newton step p, the solve of the tangent
      matrix against F.

A backtracking line search halves each row's step until the co-content's
slope along it, phi'(t) = -F(x + t p) . p, is at most (1 - 2c) |phi'(0)|.
Where no cell crosses a table node along the step the co-content is
quadratic there, and this test is Armijo's sufficient decrease with
fraction c (Nocedal & Wright, Numerical Optimization, ch. 3).  A row
converges once its full Newton step moves no state entry by more than tol.

Every decision is taken per row on that row's own state, so a row's
result does not depend on which rows share its batch.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-6  # volts, largest state change of a converged row's last Newton step
DEFAULT_MAX_ITER = 200
ARMIJO = 1e-4  # sufficient-decrease fraction c of the line search


def solve(residual, step, state, tol, max_iter):
    """Newton iteration of every row of `state` (one row per entry) to the
    minimizer of its co-content, at most max_iter steps per row.

    A row whose full step moves no entry by more than tol takes it and
    converges without a line search: that close to the minimizer rounding
    blurs the slope test.  For the same reason the search stops halving a
    step once it is that short (a NaN step ends the search too, and the row
    runs out its steps unconverged).

    Returns per-row final states, Newton step counts, convergence flags and
    the size (largest entry) of each row's last full Newton step.
    """
    x = np.array(state, dtype=float)
    k = x.shape[0]
    f, jac = residual(np.arange(k), x)
    iterations = np.zeros(k, dtype=int)
    size = np.full(k, np.inf)
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k if max_iter > 0 else 0)
    while active.size:
        p = step(active, x[active], f[active], jac[active])
        bound = (1.0 - 2.0 * ARMIJO) * (f[active] * p).sum(axis=1)  # (1 - 2c) |phi'(0)|
        size[active] = np.max(np.abs(p), axis=1)
        iterations[active] += 1
        done = size[active] <= tol
        x[active[done]] += p[done]
        converged[active[done]] = True
        t = np.ones(active.size)
        search = np.flatnonzero(~done)  # positions in active still searching
        while search.size:
            rows = active[search]
            x_t = x[rows] + t[search, None] * p[search]
            f_t, jac_t = residual(rows, x_t)
            ok = -(f_t * p[search]).sum(axis=1) <= bound[search]
            ok |= ~(t[search] * size[rows] > tol)
            taken = rows[ok]
            x[taken], f[taken], jac[taken] = x_t[ok], f_t[ok], jac_t[ok]
            search = search[~ok]
            t[search] *= 0.5
        active = active[~done & (iterations[active] < max_iter)]
    return x, iterations, converged, size
