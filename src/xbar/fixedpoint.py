"""The fixed-point driver both readout solvers iterate with.

Both readouts find the cell drops of a nonlinear resistive network the
same way: hold every cell at its chord conductance, solve the linear
network that leaves, re-linearize at the new drops and repeat.  The
parametric model solves a calibrated ladder per row, the nodal oracle the
full mesh; this module owns the iteration itself, for both.  A solver
supplies two callbacks over a batch of rows, each row carrying a flat
state vector:

  evaluate(ids, scale, g, state)  the linear solve of rows `ids` (indices
      into the caller's batch) driven at `scale` volts from conductances
      g; `state` holds their current iterates, or is None on a stage's
      first sweep;
  relinearize(ids, state)  the chord conductances at those states.

Each sweep is a Picard step accelerated by depth-2 Anderson mixing
(Walker & Ni 2011).  Knee cells push plain re-linearization into period-2
limit cycles; the residual history sees the cycle and cancels it.  After
a residual blow-up, or when the residual plateaus (a bounded limit cycle,
which never trips the blow-up test), a row drops its history and falls
back to a damped step whose relaxation halves on every such event; heavy
damping breaks cycles the knee of a steep table can otherwise sustain.
Rows the first stage leaves unconverged are rescued by a bias ramp.

Every decision is taken per row on that row's own state, and the Anderson
fit never mixes rows, so a row's result does not depend on which rows
share its batch.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-6  # volts, max state change between sweeps
DEFAULT_MAX_ITER = 200
DEFAULT_RELAX = 0.7  # damping of the first reset step; halves on each reset
ANDERSON_DEPTH = 2  # residual-history length for the mixing step
FIRST_STAGE_CAP = 60  # sweeps at full bias before the bias-ramp rescue
STALL_SWEEPS = 8  # sweeps without a 10 % gain on the best residual before a reset
RAMP_LEVELS = (0.25, 0.5, 0.75, 1.0)


def _anderson_step(hist_v, hist_r, r):
    """Depth-limited Anderson mixing of every row.

    hist_v and hist_r hold each row's last L iterates and residuals
    (k x L x N, oldest first); r is the newest residual, already the last
    history entry.  Each row's mixing weights are the minimum-norm least
    squares fit of r by the residual differences, through a stacked
    pseudo-inverse with the singular-value cutoff lstsq uses.
    """
    dr = np.diff(hist_r, axis=1)  # k x (L-1) x N
    dv = np.diff(hist_v, axis=1)
    n, cols = r.shape[1], dr.shape[1]
    rcond = np.finfo(float).eps * max(n, cols)
    pinv = np.linalg.pinv(dr.transpose(0, 2, 1), rcond=rcond)  # k x (L-1) x N
    gamma = (pinv * r[:, None, :]).sum(axis=2)
    return hist_v[:, -1] + r - ((dv + dr) * gamma[:, :, None]).sum(axis=1)


def _run_stage(evaluate, relinearize, ids, scale, g, cap, tol, relax):
    """Anderson-accelerated Picard at one bias scale, for a batch of rows.

    Row r of the batch is the caller's row ids[r], driven at scale[r] from
    conductances g[r], for at most cap[r] sweeps.  Converged rows and rows
    out of sweeps leave the batch.

    Returns each row's last evaluation, the conductances after its last
    sweep, its sweep count, its last residual and whether it met tol.  A
    converged row's conductances are the ones its last evaluation was
    solved at, so conservation laws hold on it to machine precision.
    """
    k = ids.size
    g = g.copy()
    residual = np.full(k, np.inf)
    best = np.full(k, np.inf)
    converged = np.zeros(k, dtype=bool)
    local_relax = np.full(k, relax)
    stall = np.zeros(k, dtype=int)
    iterations = np.zeros(k, dtype=int)
    depth = ANDERSON_DEPTH + 1
    hist_len = np.zeros(k, dtype=int)

    active = np.arange(k)
    sweep = 0
    while active.size:
        sweep += 1
        a = active
        iterations[a] = sweep
        if sweep == 1:
            ev = evaluate(ids, scale, g, None)
            evaluated, state = ev, ev.copy()
            hist_v = np.empty((k, depth, ev.shape[1]))
            hist_r = np.empty_like(hist_v)
        else:
            ev = evaluate(ids[a], scale[a], g[a], state[a])
            evaluated[a] = ev
            r = ev - state[a]
            res = np.max(np.abs(r), axis=1)
            residual[a] = res
            done = res <= tol
            converged[a[done]] = True
            a, r, res, ev = a[~done], r[~done], res[~done], ev[~done]

            blow_up = (res > 2.0 * best[a]) & (hist_len[a] > 0)
            c, res_c = a[~blow_up], res[~blow_up]
            stall[c] = np.where(res_c > 0.9 * best[c], stall[c] + 1, 0)
            best[c] = np.minimum(best[c], res_c)
            reset = blow_up | (stall[a] >= STALL_SWEEPS)

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
        if a.size:
            g[a] = relinearize(ids[a], state[a])
        active = a[iterations[a] < cap[a]]
    return evaluated, g, iterations, residual, converged


def solve(evaluate, relinearize, scale, g_start, tol, max_iter, relax):
    """Fixed point of a batch of rows, row r driven at scale[r] from
    conductances g_start[r].

    The first stage runs every row at full bias for up to FIRST_STAGE_CAP
    sweeps.  Rows it leaves unconverged, with sweeps left, are rescued by
    ramping their source up in four stages, carrying the conductances
    over, so each stage only perturbs the previous solution mildly instead
    of restarting the oscillation.  No row runs more than max_iter sweeps
    in all.

    Returns per-row final evaluations and conductances, sweep counts,
    convergence flags and final residuals.
    """
    k = scale.size
    out, g_out, total, residual, converged = _run_stage(
        evaluate, relinearize, np.arange(k), scale, g_start,
        np.full(k, min(FIRST_STAGE_CAP, max_iter)), tol, relax,
    )
    idx = np.flatnonzero(~converged & (total < max_iter))
    g = g_start[idx]
    for level in RAMP_LEVELS:
        remaining = max_iter - total[idx]
        go = remaining > 0
        idx, g, remaining = idx[go], g[go], remaining[go]
        if idx.size == 0:
            break
        final = level == 1.0
        cap = remaining if final else np.minimum(remaining, np.maximum(10, remaining // 8))
        out[idx], g, used, residual[idx], met = _run_stage(
            evaluate, relinearize, idx, level * scale[idx], g, cap,
            tol if final else 10.0 * tol, relax,
        )
        g_out[idx] = g
        # meeting a partial-bias stage's looser tolerance is no solution
        converged[idx] = met & final
        total[idx] += used
    return out, g_out, total, converged, residual
