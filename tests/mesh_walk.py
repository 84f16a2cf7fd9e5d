"""Walks of the oracle mesh the tests hold the solver to: an edge-by-edge
walk of a solved row for the circuit-law tests, and the strided walk that
nodal._inflow must match to the bit."""

import numpy as np

from xbar.ivtable import LookupPlan


def edge_walk(spec, row):
    """Walk the solved mesh edge by edge: net current into every node, plus
    the per-element dissipation total and the power the source delivers
    through the driver's segment.

    Uses only the stored state (node voltages), the cells' chord
    conductances at it, read through a plan of the spec's own, and the
    network topology, never the solver's matrix.  Returns (largest |net
    current| over the nodes, dissipation, source power).
    """
    m, n, g = spec.m, spec.n, spec.g_int
    vw, vb = row.v_word, row.v_bit
    g_cell = LookupPlan(spec.pair, spec.bits, spec.delta).chord(vw - vb)
    net = np.zeros((2, m, n))  # wordline nodes, bitline nodes
    dissipated = 0.0

    # wordline segments, every row
    for i in range(m):
        for j in range(n - 1):
            flow = g * (vw[i, j] - vw[i, j + 1])
            net[0, i, j] -= flow
            net[0, i, j + 1] += flow
            dissipated += flow * (vw[i, j] - vw[i, j + 1])
    # bitline segments and the ground tie at the bottom
    for j in range(n):
        for i in range(m - 1):
            flow = g * (vb[i, j] - vb[i + 1, j])
            net[1, i, j] -= flow
            net[1, i + 1, j] += flow
            dissipated += flow * (vb[i, j] - vb[i + 1, j])
        flow = g * vb[m - 1, j]
        net[1, m - 1, j] -= flow
        dissipated += flow * vb[m - 1, j]
    # cells
    for i in range(m):
        for j in range(n):
            flow = g_cell[i, j] * (vw[i, j] - vb[i, j])
            net[0, i, j] -= flow
            net[1, i, j] += flow
            dissipated += flow * (vw[i, j] - vb[i, j])
    # driver reaches the selected wordline through one segment
    flow = g * (spec.v_in - vw[row.active_row, 0])
    net[0, row.active_row, 0] += flow
    dissipated += flow * (spec.v_in - vw[row.active_row, 0])

    return float(np.abs(net).max()), dissipated, spec.v_in * flow


def strided_inflow(g, g_cell, active_row, v_source, x):
    """nodal._inflow as first written, over (m, n) views of the state: the
    reference its flat walk must match to the bit."""
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
