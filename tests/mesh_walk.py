"""Edge walk of a solved oracle row, shared by the circuit-law tests."""

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
