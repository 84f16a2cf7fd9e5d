"""Nodal-reference tests.

The solver's own output is checked against things it does not compute
with: closed-form series dividers, an edge-by-edge walk of Kirchhoff's
current law over the solved mesh, Tellegen's theorem for dissipation,
a scalar fixed point solved by bracketing, the dense homogeneous
shortcut against the full sparse path, the default conjugate-gradient
route against direct sparse LU of every Newton step, and every state the
Newton driver accepts against the co-content integrated from the tables.
"""

from __future__ import annotations

import sys
import tracemalloc
import warnings
from functools import partial
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from xbar import fixedpoint, nodal
from xbar.defaults import shipped_pair
from xbar.ivtable import V_FLOOR, LookupPlan, interpolate_current, small_signal_conductance
from xbar.model import CrossbarSpec
from xbar.nodal import kirchhoff_row_solve, kirchhoff_solve, solve_linear_homogeneous

import factories
from factories import disordered_spec
from mesh_walk import edge_walk, strided_inflow


knee_pair = partial(factories.knee_pair, ids=("knee-1", "knee-0"))
linear_pair = partial(factories.linear_pair, ids=("ohmic-1", "ohmic-0"))


def random_spec(seed, m=8, n=8, r_int=1e5, pair=None):
    return factories.random_spec(seed, m, n, r_int, pair or knee_pair())


# ----------------------------------------------------------- series anchors


def test_single_cell_series_divider_exact():
    spec = CrossbarSpec(
        m=1, n=1, r_int=1e4, bits=np.ones((1, 1), np.int8),
        pair=linear_pair(1e6, 1e7), v_in=1.0,
    )
    sol = kirchhoff_solve(spec)
    expected = 1.0 / (1e6 + 2e4)  # cell plus one segment in, one out
    assert sol.converged
    assert abs(sol.i_out[0, 0] - expected) <= 1e-9 * expected
    assert abs(sol.power - expected) <= 1e-9 * expected
    assert abs(sol.source_current[0] - expected) <= 1e-9 * expected


def test_single_cell_nonlinear_fixed_point_matches_bracketing():
    pair = knee_pair(r1=1e9)
    spec = CrossbarSpec(
        m=1, n=1, r_int=1e6, bits=np.ones((1, 1), np.int8), pair=pair, v_in=1.0
    )
    sol = kirchhoff_solve(spec)
    assert sol.converged

    table = pair.logic1_table

    def imbalance(dv):
        g = small_signal_conductance(table, dv, 0.0)
        return dv * (1.0 + 2.0 * spec.r_int * g) - spec.v_in

    dv = brentq(imbalance, 1e-9, spec.v_in, xtol=1e-15)
    i_expected = small_signal_conductance(table, dv, 0.0) * dv
    assert sol.i_out[0, 0] == pytest.approx(i_expected, rel=1e-6)
    assert sol.v_cell[0, 0] == pytest.approx(dv, rel=1e-6)


def test_two_by_one_linear_chain_matches_dense_stamp():
    # small enough to solve by hand-stamped dense matrices in the test
    r_cell, r_int, v_in = 1e6, 1e4, 1.0
    spec = CrossbarSpec(
        m=2, n=1, r_int=r_int, bits=np.ones((2, 1), np.int8),
        pair=linear_pair(r_cell, r_cell), v_in=v_in,
    )
    g, gc = 1.0 / r_int, 1.0 / r_cell
    # unknowns: w0, w1, b0, b1 with the driver on row 0
    a = np.array(
        [
            [g + gc, 0.0, -gc, 0.0],
            [0.0, gc, 0.0, -gc],
            [-gc, 0.0, gc + g, -g],
            [0.0, -gc, -g, gc + g + g],
        ]
    )
    b = np.array([g * v_in, 0.0, 0.0, 0.0])
    x = np.linalg.solve(a, b)
    sol = kirchhoff_row_solve(spec, active_row=0)
    np.testing.assert_allclose(sol.v_word[:, 0], x[:2], rtol=1e-12)
    np.testing.assert_allclose(sol.v_bit[:, 0], x[2:], rtol=1e-12)
    assert sol.i_out[0] == pytest.approx(g * x[3], rel=1e-12)


# --------------------------------------------------------- conservation laws


@pytest.mark.parametrize("seed", range(4))
def test_node_current_balance_on_random_bits(seed):
    rng = np.random.default_rng(100 + seed)
    r_int = float(rng.choice([1e4, 1e5, 1e6]))
    spec = random_spec(seed, m=8, n=8, r_int=r_int)
    for active_row in (0, spec.m - 1):
        row = kirchhoff_row_solve(spec, active_row=active_row)
        assert row.converged
        worst, dissipated, source_power = edge_walk(spec, row)
        assert worst <= 1e-9 * row.source_current
        assert dissipated == pytest.approx(source_power, rel=1e-6)


def test_node_current_balance_on_large_array():
    spec = random_spec(7, m=64, n=64, r_int=1e5)
    row = kirchhoff_row_solve(spec, active_row=17)
    assert row.converged
    worst, dissipated, source_power = edge_walk(spec, row)
    assert worst <= 1e-9 * row.source_current
    assert dissipated == pytest.approx(source_power, rel=1e-6)


def test_row_outputs_are_linear_readouts_of_the_final_state():
    spec = random_spec(3, m=8, n=8)
    row = kirchhoff_row_solve(spec, active_row=2)
    g = spec.g_int
    np.testing.assert_allclose(row.i_out, g * row.v_bit[-1], rtol=1e-14)
    assert row.source_current == pytest.approx(
        g * (spec.v_in - row.v_word[2, 0]), rel=1e-14
    )


def test_column_currents_sum_to_source_current():
    # charge entering the selected wordline must leave through the bitline
    # grounds; no other element stores or sinks it
    spec = random_spec(5, m=16, n=16, r_int=1e6)
    for active_row in (0, 9):
        row = kirchhoff_row_solve(spec, active_row=active_row)
        assert row.converged
        assert np.sum(row.i_out) == pytest.approx(row.source_current, rel=1e-9)


NONLINEAR_PAIRS = {"shipped": shipped_pair(), "knee": knee_pair()}


@st.composite
def nonlinear_rows(draw):
    """A small nonlinear array on the shipped or the knee tables, with
    random bits and level offsets, r_int log-uniform over 1e4..1e8, and
    one of its rows to drive."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n)
    offsets = st.lists(st.floats(0.0, 0.2), min_size=m * n, max_size=m * n)
    spec = CrossbarSpec(
        m=m, n=n, r_int=10.0 ** draw(st.floats(4.0, 8.0)),
        bits=np.array(draw(cells), dtype=np.int8).reshape(m, n),
        delta=np.array(draw(offsets)).reshape(m, n),
        pair=NONLINEAR_PAIRS[draw(st.sampled_from(sorted(NONLINEAR_PAIRS)))], v_in=1.0,
    )
    return spec, draw(st.integers(0, m - 1))


@settings(max_examples=30, deadline=None)
@given(nonlinear_rows())
def test_converged_rows_obey_circuit_laws(case):
    """Every row converges, and current balance, Tellegen and charge
    conservation hold on it.  No double-precision state balances a node
    better than one rounding of a wire current at the bias, g eps v_in; on
    knee tables at r_int 1e4 a single column draws so little that this
    floor exceeds 1e-9 of the source current, so both current checks
    admit it."""
    spec, active_row = case
    row = kirchhoff_row_solve(spec, active_row)
    assert row.converged
    floor = spec.g_int * np.finfo(float).eps * spec.v_in
    worst, dissipated, source_power = edge_walk(spec, row)
    assert worst <= max(1e-9 * row.source_current, floor)
    assert dissipated == pytest.approx(source_power, rel=1e-6)
    assert np.sum(row.i_out) == pytest.approx(row.source_current, rel=1e-9, abs=floor)


def cell_cocontent(table, delta, v):
    """Integral from 0 to |v| of the current chord(u) u a cell carries
    (V_FLOOR secant below V_FLOOR, the table up to its end, the chord ray
    past it).  That current is linear between the breakpoints 0, V_FLOOR,
    the table's bias nodes and the end, so the trapezoid rule over them is
    exact and the co-content piecewise quadratic."""
    hi = table.v_grid[-1]
    a = abs(v)
    u = np.union1d([0.0, V_FLOOR, hi, a], table.v_grid[(table.v_grid > V_FLOOR) & (table.v_grid < hi)])
    u = u[u <= a]
    u_eval = np.clip(u, V_FLOOR, hi)
    i = interpolate_current(table, u_eval, np.full(u.size, delta)) * u / u_eval
    return float(np.sum(0.5 * (i[1:] + i[:-1]) * np.diff(u)))


def cocontent(spec, active_row, x):
    """The network's co-content at node voltages x = [wordline; bitline]:
    g dv^2 / 2 over every wire (the driver's and the ground ties too) plus
    every cell's co-content.  The solution is its unique minimizer."""
    m, n, g = spec.m, spec.n, spec.g_int
    w, b = x[: m * n].reshape(m, n), x[m * n :].reshape(m, n)
    wires = (
        np.sum(np.diff(w, axis=1) ** 2) + np.sum(np.diff(b, axis=0) ** 2)
        + np.sum(b[-1] ** 2) + (spec.v_in - w[active_row, 0]) ** 2
    )
    tables = (spec.pair.logic0_table, spec.pair.logic1_table)
    cells = sum(
        cell_cocontent(tables[spec.bits[i, j]], spec.delta[i, j], w[i, j] - b[i, j])
        for i in range(m) for j in range(n)
    )
    return 0.5 * g * wires + cells


@settings(max_examples=30, deadline=None)
@given(nonlinear_rows())
def test_newton_steps_never_raise_the_cocontent(case):
    """Every state the driver accepts, from the first to the returned one,
    has no more co-content than the one before, up to rounding of the
    co-content's own terms.  The factors, whose driven-row solve iterates
    on n drops rather than on the mesh, are built before recording."""
    spec, active_row = case
    factors = nodal.GeometryFactors(spec)
    states = []
    solve = fixedpoint.solve

    def recording(residual, step, state):
        def recorded(ids, x, f, jac):
            states.append(x[0].copy())
            return step(ids, x, f, jac)

        out = solve(residual, recorded, state)
        states.append(out[0][0].copy())
        return out

    with mock.patch.object(nodal.fixedpoint, "solve", recording):
        kirchhoff_row_solve(spec, active_row, factors=factors)
    energy = [cocontent(spec, active_row, x) for x in states]
    for before, after in zip(energy, energy[1:]):
        assert after <= before + 1e-12 * abs(before)


# ------------------------------------------------------ homogeneous shortcut


def test_homogeneous_shortcut_matches_full_solver():
    g_cell = 1e-6
    pair = linear_pair(1.0 / g_cell, 1.0 / g_cell)
    for r_int in (1e4, 1e6):
        spec = CrossbarSpec(
            m=6, n=5, r_int=r_int, bits=np.ones((6, 5), np.int8), pair=pair, v_in=1.0
        )
        v_ref, i_ref, src_ref = solve_linear_homogeneous(6, 5, r_int, g_cell, 1.0)
        full = kirchhoff_solve(spec)
        np.testing.assert_allclose(full.v_cell, v_ref, rtol=1e-9)
        np.testing.assert_allclose(full.i_out, i_ref, rtol=1e-9)
        np.testing.assert_allclose(full.source_current, src_ref, rtol=1e-9)


def test_homogeneous_shortcut_single_cell_closed_form():
    v, i, src = solve_linear_homogeneous(1, 1, 1e4, 1e-6, 1.0)
    assert v[0, 0] == pytest.approx(1e6 / (1e6 + 2e4), rel=1e-12)
    assert i[0, 0] == pytest.approx(1.0 / (1e6 + 2e4), rel=1e-12)
    assert src[0] == pytest.approx(1.0 / (1e6 + 2e4), rel=1e-12)


def test_homogeneous_shortcut_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_linear_homogeneous(0, 4, 1e4, 1e-6, 1.0)
    with pytest.raises(ValueError):
        solve_linear_homogeneous(4, 4, -1.0, 1e-6, 1.0)
    with pytest.raises(ValueError):
        solve_linear_homogeneous(4, 4, 1e4, 0.0, 1.0)


# arrays of 1 to 12 rows and columns, wires from 1e2 to 1e8 ohm, cells from
# 1e-10 to 1e-3 S: from cells that barely load the wires to cells that
# short them, single rows and single columns included
homogeneous_arrays = st.tuples(
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(2.0, 8.0).map(lambda e: 10.0**e),
    st.floats(-10.0, -3.0).map(lambda e: 10.0**e),
    st.floats(0.1, 2.0),
)
one_row, one_column = (1, 9, 1e5, 1e-6, 1.0), (9, 1, 1e5, 1e-6, 1.0)


@given(homogeneous_arrays)
@example(one_row)
@example(one_column)
def test_homogeneous_shortcut_conserves_charge(array):
    v, i, src = solve_linear_homogeneous(*array)
    np.testing.assert_allclose(i.sum(axis=1), src, rtol=1e-9)


@given(homogeneous_arrays)
@example(one_row)
@example(one_column)
def test_homogeneous_shortcut_drops_lie_inside_the_bias(array):
    v_in = array[-1]
    v, i, src = solve_linear_homogeneous(*array)
    assert np.all(v > 0.0) and np.all(v < v_in)
    assert np.all(i > 0.0) and np.all(src > 0.0)


@given(homogeneous_arrays, st.floats(0.1, 10.0))
@example(one_row, 3.0)
@example(one_column, 3.0)
def test_homogeneous_shortcut_is_linear_in_the_bias(array, scale):
    base = solve_linear_homogeneous(*array)
    scaled = solve_linear_homogeneous(*array[:-1], scale * array[-1])
    for got, ref in zip(scaled, base):
        np.testing.assert_allclose(got, scale * ref, rtol=1e-12)


def direct_state(g, cells, row, v_in):
    """The reference route's mesh state: the direct solve against the
    current the driver injects with every node at zero."""
    rhs = nodal._inflow(g, cells, row, v_in, np.zeros(2 * cells.size))
    return nodal._solve_direct(g, cells, row, rhs)


def row_drops(x, m, n, row):
    """The drops across row `row`'s cells in the mesh state x."""
    mn = m * n
    return x[row * n : (row + 1) * n] - x[mn + row * n : mn + (row + 1) * n]


@settings(deadline=None)
@given(homogeneous_arrays)
@example(one_row)
@example(one_column)
def test_homogeneous_shortcut_matches_assembled_direct_solve(array):
    """Every driven row against the sparse reference route's direct solve.

    Where cells short the wires (g_cell r_int up to 1e5) a cell drops
    ~1e-6 of the node voltages around it, and assembling 2g + g_cell on
    the diagonal rounds g away; _solve_direct's refinement step against
    the edge-walk residual keeps the reference to ~1e-10.  Rows are
    compared relative to their largest entry."""
    m, n, r_int, g_cell, v_in = array
    v, i, src = solve_linear_homogeneous(*array)
    g = 1.0 / r_int
    cells = np.full((m, n), g_cell)
    mn = m * n
    for row in range(m):
        x = direct_state(g, cells, row, v_in)
        v_ref = row_drops(x, m, n, row)
        i_ref = g * x[mn + (m - 1) * n :]
        for got, ref in ((v[row], v_ref), (i[row], i_ref)):
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


@settings(deadline=None)
@given(homogeneous_arrays, st.integers(0, 11), st.integers(0, 2**32 - 1))
@example(one_row, 0, 0)
@example(one_column, 8, 0)
def test_modal_preconditioner_solves_the_driven_homogeneous_mesh(array, row, seed):
    """The oracle's preconditioner against the sparse reference route's
    direct solve of the same driven mesh, for arbitrary node currents: a
    wrong preconditioner only slows conjugate gradients down, so no
    readout would show it."""
    m, n, r_int, g_cell, _ = array
    row %= m
    g = 1.0 / r_int
    y = np.random.default_rng(seed).standard_normal(2 * m * n)
    got = nodal.ModalMesh(g, m, n, g_cell).driven(row).solve(y)
    ref = nodal._solve_direct(g, np.full((m, n), g_cell), row, y)
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


@settings(deadline=None)
@given(homogeneous_arrays, st.integers(0, 11), st.integers(0, 2**32 - 1))
@example(one_row, 0, 0)
@example(one_column, 8, 0)
def test_cell_response_reads_the_modal_solve_across_the_cells(array, row, seed):
    """The cell response the conjugate-gradient steps apply, against
    DrivenRow.solve of the same currents as node currents [j; -j]: the
    drops it returns across every cell, and the voltage it leaves the
    source node at, which the steps carry to the lifted step's source.
    The reference drops are differences of what the currents into the
    wordline nodes and out of the bitline nodes drive, each rounding at
    its own scale (up to a bitline's resistance to ground where cells
    short the wires), so they are compared at the largest voltage the
    wordline half drives alone."""
    m, n, r_int, g_cell, _ = array
    row %= m
    mn = m * n
    driven = nodal.ModalMesh(1.0 / r_int, m, n, g_cell).driven(row)
    j = np.random.default_rng(seed).standard_normal((m, n)).ravel()
    drops, v_source = driven.cells(j.reshape(m, n))
    x = driven.solve(np.concatenate([j, -j]))
    scale = np.max(np.abs(driven.solve(np.concatenate([j, np.zeros(mn)]))))
    assert np.max(np.abs(drops.ravel() - (x[:mn] - x[mn:]))) <= 1e-12 * scale
    assert abs(v_source - x[row * n]) <= 1e-12 * scale


# wires from 1e2 to 1e7 ohm and cells from 1e-11 to 1e-3 S: from cells so
# faint that a row's lift outgrows its wires' resistance a billionfold to
# cells that short the wires
driven_arrays = st.tuples(
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(2.0, 7.0).map(lambda e: 10.0**e),
    st.floats(-11.0, -3.0).map(lambda e: 10.0**e),
)


@settings(deadline=None)
@given(driven_arrays)
@example((1, 9, 1e5, 1e-6))
@example((9, 1, 1e5, 1e-6))
@example((16, 16, 1e4, 1e-9))
def test_driven_row_response_matches_the_modal_preconditioner(array):
    """Every row's closed-form drop response, applied to unit currents
    across each of its cells, and its response to the source bias, against
    DrivenRow.solve applied to those currents: both solve the
    same driven homogeneous mesh, the closed form without forming any node
    voltage."""
    m, n, r_int, g_cell = array
    g = 1.0 / r_int
    mesh = nodal.ModalMesh(g, m, n, g_cell)
    response, bias = mesh.driven_rows()
    assert bias.shape == (m, n)
    for row in range(m):
        driven = mesh.driven(row)
        ref = np.empty((n, n))
        for k in range(n):
            y = np.zeros(2 * m * n)
            y[row * n + k], y[m * n + row * n + k] = 1.0, -1.0
            ref[:, k] = row_drops(driven.solve(y), m, n, row)
        y = np.zeros(2 * m * n)
        y[row * n] = g
        bias_ref = row_drops(driven.solve(y), m, n, row)
        got = response.take(np.full(n, row)).apply(np.eye(n)).T  # column k: the drops unit current k drives
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert np.max(np.abs(bias[row] - bias_ref)) <= 1e-9 * np.max(np.abs(bias_ref))


def dense_driven_rows(mesh, plan, v_in):
    """solve_driven_rows by dense algebra: every row's response formed by
    applying it to unit currents, inverted, and each Newton step solved by
    np.linalg.solve."""
    m, n = mesh.shape
    response, bias = mesh.driven_rows()
    eye = np.eye(n)
    conductance = np.linalg.inv(np.stack([response.take(np.full(n, i)).apply(eye).T for i in range(m)]))
    d0 = v_in * bias

    def residual(ids, d):
        g_cell, tangent = plan.chord_tangent(d, ids)
        f = (conductance[ids] @ (d0[ids] - d)[..., None])[..., 0]
        return f - (g_cell - mesh.g_cell) * d, tangent - mesh.g_cell

    def step(ids, d, f, jac):
        hessian = conductance[ids] + jac[:, None, :] * eye
        return np.linalg.solve(hessian, f[..., None])[..., 0]

    return fixedpoint.solve(residual, step, d0)[0]


@settings(max_examples=40, deadline=None)
@given(driven_arrays, st.integers(0, 2**32 - 1))
@example((1, 9, 1e5, 1e-6), 0)
@example((9, 1, 1e5, 1e-6), 0)
@example((16, 16, 1e4, 1e-9), 0)
@example((12, 12, 1e2, 1e-3), 1)
@example((12, 12, 1e7, 1e-11), 2)
def test_driven_row_drops_match_the_dense_capacitance_newton(array, seed):
    """The matrix-free start, conjugate gradients in the mode basis,
    against the same Newton iteration on the responses formed and inverted
    densely: random bits and offsets on knee tables whose low-bias
    conductance is the background's."""
    m, n, r_int, g_cell = array
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (m, n)).astype(np.int8)
    plan = LookupPlan(knee_pair(r1=1.0 / g_cell), bits, rng.uniform(0.0, 0.2, (m, n)))
    mesh = nodal.ModalMesh(1.0 / r_int, m, n, g_cell)
    got = nodal.solve_driven_rows(mesh, plan, 1.0)
    ref = dense_driven_rows(mesh, plan, 1.0)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_capacitance_steps_are_each_rows_own():
    """Each row's Newton step solves (D^-1 + diag(shift)) p = f, in a batch
    as alone; a row whose residual is NaN gets a NaN step and leaves the
    other rows' steps as they were."""
    m, n = 10, 12
    response, _ = nodal.ModalMesh(1e-5, m, n, 1e-8).driven_rows()
    rng = np.random.default_rng(3)
    f = 1e-9 * rng.standard_normal((m, n))
    shift = 1e-8 * rng.uniform(-0.5, 5.0, (m, n))
    p = nodal._capacitance_step(response, f, shift)
    eye = np.eye(n)
    for i in range(m):
        hessian = np.linalg.inv(response.take(np.full(n, i)).apply(eye).T) + np.diag(shift[i])
        assert np.max(np.abs(hessian @ p[i] - f[i])) <= 1e-9 * np.max(np.abs(f[i]))
        alone = nodal._capacitance_step(response.take([i]), f[i : i + 1], shift[i : i + 1])
        np.testing.assert_allclose(alone[0], p[i], rtol=1e-12, atol=0.0)
    f[4, 2] = np.nan
    broken = nodal._capacitance_step(response, f, shift)
    assert np.isnan(broken[4]).all()
    np.testing.assert_allclose(np.delete(broken, 4, axis=0), np.delete(p, 4, axis=0), rtol=1e-12, atol=0.0)


def test_driven_row_start_forms_no_response_stack():
    """The start of a 128x128 array holds O(mn) factors: its peak traced
    memory stays below one (m, n, n) response stack, 16 MiB."""
    spec = disordered_spec(7, 128, 128, 1e6)
    tracemalloc.start()
    try:
        nodal.GeometryFactors(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@settings(max_examples=30, deadline=None)
@given(nonlinear_rows())
def test_driven_row_drops_solve_the_mesh_on_their_background(case):
    """With the driven row's cells at the chords of its solved drops and
    every other cell at the background conductance, the sparse reference
    route's direct solve of the mesh gives those drops back."""
    spec, active_row = case
    factors = nodal.GeometryFactors(spec)
    drops = factors.drops[active_row]
    cells = np.full((spec.m, spec.n), factors.settled.g_cell)
    cells[active_row] = factors.plan.chord(drops[None], [active_row])[0]
    x = direct_state(spec.g_int, cells, active_row, spec.v_in)
    np.testing.assert_allclose(row_drops(x, spec.m, spec.n, active_row), drops, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("grounded", [False, True])
@pytest.mark.parametrize("size", range(1, 13))
def test_path_modes_diagonalize_the_assembled_path(size, grounded):
    """Calibration's closed-form eigenpairs are those of the very path
    Laplacian the oracle's mesh is assembled from."""
    lam, u = nodal._path_modes(size, grounded)
    lap = nodal._path_laplacian(size, grounded).toarray()
    np.testing.assert_allclose(u.T @ u, np.eye(size), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(lap @ u, u * lam, rtol=0.0, atol=1e-13)


@st.composite
def mesh_states(draw):
    """A mesh of 1 to 6 rows and columns, at wires of any resistance and
    cells of any conductance down to zero, in a state of any voltages
    (signed zeros and subnormals included), with any row driven and the
    driver at 0 or at v_in."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    g = draw(st.floats(1e-8, 1e-2))
    g_cell = draw(hnp.arrays(float, (m, n), elements=st.floats(0.0, 1e-3)))
    x = draw(hnp.arrays(float, 2 * m * n, elements=st.floats(-2.0, 2.0)))
    return g, g_cell, draw(st.integers(0, m - 1)), draw(st.sampled_from([0.0, 1.0])), x


def signed_zeros(size):
    return np.resize([0.0, -0.0, -0.0, 0.0, 0.0], size)


@settings(deadline=None)
@given(mesh_states())
@example((1e-6, np.zeros((1, 1)), 0, 0.0, np.array([-0.0, 0.0])))
@example((1e-6, np.full((1, 4), 1e-9), 0, 1.0, signed_zeros(8)))
@example((1e-6, np.full((4, 1), 1e-9), 2, 0.0, signed_zeros(8)))
@example((1e-6, np.full((3, 3), 1e-9), 1, 0.0, -signed_zeros(18)))
def test_flat_mesh_walk_matches_the_strided_walk_to_the_bit(case):
    """The walk every conjugate-gradient step takes, over the flat node
    vectors, against the walk over (m, n) views it replaced: the same
    bits, and the same sign of every zero."""
    got, ref = nodal._inflow(*case), strided_inflow(*case)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


def test_direct_solve_resolves_cell_drops_where_cells_short_the_wires():
    """A 12x1 column at g_cell r_int = 1e5: the exact drop of the driven
    cell is v_in / (1 + g_cell r_int (1 + m - i)).  LU of the assembled
    matrix alone is off by up to 7.5e-10 here."""
    m, r_int, g_cell, v_in = 12, 1e8, 1e-3, 1.0
    g = 1.0 / r_int
    cells = np.full((m, 1), g_cell)
    for row in range(m):
        x = direct_state(g, cells, row, v_in)
        drop = x[row] - x[m + row]
        exact = v_in / (1.0 + g_cell * r_int * (1 + m - row))
        assert abs(drop - exact) <= 1e-10 * exact


# ------------------------------------------------------------- mesh routes


def assert_same_state(row, ref, tol):
    # both routes stop once a Newton step moves no node by more than tol
    assert row.converged and ref.converged
    np.testing.assert_allclose(row.v_word, ref.v_word, rtol=0.0, atol=tol)
    np.testing.assert_allclose(row.v_bit, ref.v_bit, rtol=0.0, atol=tol)
    np.testing.assert_allclose(row.i_out, ref.i_out, rtol=1e-4)


@pytest.mark.parametrize(
    "m, n, r_int",
    [(12, 12, 1e5), (12, 12, 1e7), (1, 16, 1e6), (16, 1, 1e6)],
)
def test_default_route_matches_direct_sparse_route(m, n, r_int):
    spec = disordered_spec(7, m, n, r_int)
    for active_row in sorted({0, m // 2, m - 1}):
        row = kirchhoff_row_solve(spec, active_row)
        ref = kirchhoff_row_solve(spec, active_row, backend="sparse")
        assert_same_state(row, ref, fixedpoint.DEFAULT_TOL)
        worst, _, _ = edge_walk(spec, row)
        assert worst <= 1e-9 * row.source_current


def test_default_route_factors_no_sparse_matrix(monkeypatch):
    """The default route's first states and preconditioners are mode
    operators, and its conjugate gradients need no direct fallback on
    these arrays, so no sparse LU is ever computed."""

    def no_factorization(*args, **kwargs):
        raise AssertionError("the default route factored a sparse matrix")

    # _solve_direct imports splu from here when it is called
    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
    for spec in (
        disordered_spec(7, 12, 12, 1e5),
        disordered_spec(7, 12, 12, 1e7),
        perfbench_oracle_spec(931, 1),
    ):
        assert kirchhoff_solve(spec).converged


def test_stalled_conjugate_gradients_fall_back_to_direct_solves(monkeypatch):
    spec = disordered_spec(4, 10, 10, 1e6)
    ref = kirchhoff_row_solve(spec, 3, backend="sparse")
    monkeypatch.setattr(nodal, "CG_MAX_STEPS", 0)
    row = kirchhoff_row_solve(spec, 3)
    assert_same_state(row, ref, fixedpoint.DEFAULT_TOL)
    assert row.iterations == ref.iterations


def test_row_drawing_little_current_stops_at_the_rounding_floor(monkeypatch):
    """A lone knee-0 cell at r_int 1e5 draws ~1e-11 A through wires of
    1e-5 S, so KCL_RTOL of its source current lies below one rounding of a
    wire current, g eps v_in.  Conjugate gradients stop at that floor
    rather than chase it into overflow and a direct solve."""
    spec = CrossbarSpec(
        m=1, n=1, r_int=1e5, bits=np.zeros((1, 1), np.int8), pair=knee_pair(), v_in=1.0
    )
    ref = kirchhoff_row_solve(spec, 0, backend="sparse")

    def no_direct_solve(*args):
        raise AssertionError("a Newton step fell back to the direct solve")

    monkeypatch.setattr(nodal, "_solve_direct", no_direct_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = kirchhoff_row_solve(spec, 0)
    assert_same_state(row, ref, fixedpoint.DEFAULT_TOL)


@pytest.mark.parametrize("n, r_int, bit", [(1, 1e2, 0), (1, 1e2, 1), (6, 1e2, 0), (6, 1e3, 1)])
def test_rows_inside_the_floor_but_off_balance_keep_stepping(monkeypatch, n, r_int, bit):
    """Rows whose residual lies inside the rounding floor at every node,
    but not in the charge it leaves unbalanced, take further conjugate
    gradient steps until the total is inside the floor too, rather than a
    direct solve."""
    spec = CrossbarSpec(
        m=1, n=n, r_int=r_int, bits=np.full((1, n), bit, np.int8), pair=knee_pair(), v_in=1.0
    )
    ref = kirchhoff_row_solve(spec, 0, backend="sparse")

    def no_direct_solve(*args):
        raise AssertionError("a Newton step fell back to the direct solve")

    monkeypatch.setattr(nodal, "_solve_direct", no_direct_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = kirchhoff_row_solve(spec, 0)
    assert_same_state(row, ref, fixedpoint.DEFAULT_TOL)


@pytest.mark.parametrize("m, n", [(m, n) for m in (2, 3) for n in range(1, 7)])
def test_faint_rows_on_strong_wires_keep_to_the_direct_route(monkeypatch, m, n):
    """Knee-0 cells at r1 1e11 on 1e2 ohm wires: every row draws a current
    far below one rounding of a wire current, so each Newton residual is
    rounding, and a floating wordline's uniform mode lifts whatever lands
    in it by 1/(n g_bar).  The cell currents conjugate gradients solve for
    are the wordline half of each residual, exact there, so every row
    keeps to the direct route's state to 1e-12 V with no direct solve."""
    spec = CrossbarSpec(
        m=m, n=n, r_int=1e2, bits=np.zeros((m, n), np.int8), pair=knee_pair(r1=1e11), v_in=1.0
    )
    refs = [kirchhoff_row_solve(spec, i, backend="sparse") for i in range(m)]

    def no_direct_solve(*args):
        raise AssertionError("a Newton step fell back to the direct solve")

    monkeypatch.setattr(nodal, "_solve_direct", no_direct_solve)
    for i, ref in enumerate(refs):
        row = kirchhoff_row_solve(spec, i)
        assert row.converged
        assert np.max(np.abs(row.v_word - ref.v_word)) <= 1e-12
        assert np.max(np.abs(row.v_bit - ref.v_bit)) <= 1e-12


def mesh_solves(spec, active_row):
    """The args (driven, g_cell, rhs, gap, floor) of every Newton step's
    conjugate-gradient solve of `active_row`, as the oracle makes them."""
    calls = []
    pcg = nodal._pcg

    def record(*args):
        calls.append(args)
        return pcg(*args)

    with mock.patch.object(nodal, "_pcg", record):
        kirchhoff_row_solve(spec, active_row)
    return calls


def meets_stop_rule(driven, g_cell, rhs, gap, floor, p):
    """_pcg's stop rule, on the residual rhs - A p of the lifted step walked
    edge by edge."""
    mesh, row = driven.mesh, driven.row
    g = mesh.g
    r = rhs + nodal._inflow(g, g_cell, row, 0.0, p)
    worst = np.max(np.abs(r))
    balanced = worst <= nodal.KCL_RTOL * abs(g * (gap - p[row * mesh.shape[1]]))
    return balanced or (worst <= floor and abs(np.sum(r)) <= floor)


def counted_solve(monkeypatch, args, perturb=None):
    """_pcg(*args), with the cell-response applies, mode solves, mesh walks
    and direct solves it makes counted; perturb, if given, maps the kind
    of call ("cells" or "walk"), its number among its kind and its product
    to what the solve sees instead."""
    count = {"cells": 0, "modes": 0, "walk": 0, "direct": 0}
    cells, modes = nodal.DrivenRow.cells, nodal.DrivenRow.solve
    inflow, direct = nodal._inflow, nodal._solve_direct

    def seen(kind, out):
        count[kind] += 1
        return out if perturb is None else perturb(kind, count[kind], out)

    def apply(self, j):
        drops, v_source = cells(self, j)
        return seen("cells", drops), v_source

    def solve(self, y):
        count["modes"] += 1
        return modes(self, y)

    def walk(*walk_args):
        return seen("walk", inflow(*walk_args))

    def direct_solve(*direct_args):
        count["direct"] += 1
        return direct(*direct_args)

    monkeypatch.setattr(nodal.DrivenRow, "cells", apply)
    monkeypatch.setattr(nodal.DrivenRow, "solve", solve)
    monkeypatch.setattr(nodal, "_inflow", walk)
    monkeypatch.setattr(nodal, "_solve_direct", direct_solve)
    p = nodal._pcg(*args)
    monkeypatch.undo()
    return p, count


def test_conjugate_gradient_steps_apply_the_cell_response_and_walk_nothing(monkeypatch):
    """Each step applies the cell response once, for its preconditioned
    residual, and neither solves the modes nor walks the mesh: a solve cut
    off by the step budget makes as many applies as steps and no mode
    solve.  A solve that stops lifts its cell currents by one mode solve
    and walks the mesh once, to confirm the residual it stops on."""
    spec = disordered_spec(7, 12, 12, 1e7)
    args = mesh_solves(spec, 5)[0]
    p, count = counted_solve(monkeypatch, args)
    assert count["direct"] == 0 and count["cells"] >= 2
    assert count["modes"] == 1 and count["walk"] == 1
    assert meets_stop_rule(*args, p)
    budget = count["cells"] - 1
    monkeypatch.setattr(nodal, "CG_MAX_STEPS", budget)
    _, cut = counted_solve(monkeypatch, args)
    assert cut["direct"] == 1 and cut["cells"] == budget and cut["modes"] == 0


def test_an_oracle_row_solves_its_modes_once_to_start_and_once_per_mesh_solve(monkeypatch):
    """Conjugate gradients run on the cell currents, so a row solves the
    mode operator once for its first state and once per mesh solve, to
    lift its step, and never in a conjugate-gradient step or for a unit
    current at its source; each mesh solve walks the mesh once, to confirm
    its step.  A residual that already settles returns a zero step, with
    neither, and is not counted."""
    spec = disordered_spec(7, 12, 12, 1e7)
    count = {"modes": 0, "walks": 0, "solves": 0, "steps": 0}
    cells, solve, inflow, pcg = nodal.DrivenRow.cells, nodal.DrivenRow.solve, nodal._inflow, nodal._pcg

    def steps(self, j):
        count["steps"] += 1
        return cells(self, j)

    def modes(self, y):
        count["modes"] += 1
        return solve(self, y)

    def walk(g, g_cell, row, v_source, x):
        count["walks"] += v_source == 0.0  # a product, not the Newton residual
        return inflow(g, g_cell, row, v_source, x)

    def solves(*args):
        p = pcg(*args)
        count["solves"] += bool(p.any())
        return p

    monkeypatch.setattr(nodal.DrivenRow, "cells", steps)
    monkeypatch.setattr(nodal.DrivenRow, "solve", modes)
    monkeypatch.setattr(nodal, "_inflow", walk)
    monkeypatch.setattr(nodal, "_pcg", solves)
    assert kirchhoff_row_solve(spec, 5).converged
    assert count["steps"] > count["solves"] > 0
    assert count["modes"] == count["solves"] + 1
    assert count["walks"] == count["solves"]


def test_an_oracle_row_forms_its_driven_operator_once(monkeypatch):
    """A row forms its source terms once (ModalMesh.driven) and reads
    them in its first-state lift, every conjugate-gradient step and every
    mesh solve; a readout forms them once per row."""
    spec = disordered_spec(7, 12, 12, 1e7)
    count = {"driven": 0, "steps": 0, "solves": 0}
    driven, cells, solve = nodal.ModalMesh.driven, nodal.DrivenRow.cells, nodal.DrivenRow.solve

    def forms(self, row):
        count["driven"] += 1
        return driven(self, row)

    def steps(self, j):
        count["steps"] += 1
        return cells(self, j)

    def solves(self, y):
        count["solves"] += 1
        return solve(self, y)

    monkeypatch.setattr(nodal.ModalMesh, "driven", forms)
    monkeypatch.setattr(nodal.DrivenRow, "cells", steps)
    monkeypatch.setattr(nodal.DrivenRow, "solve", solves)
    assert kirchhoff_row_solve(spec, 3).converged
    assert count["driven"] == 1
    assert count["steps"] > count["solves"] > 2  # the lift, then two mesh solves or more
    count["driven"] = 0
    assert kirchhoff_solve(spec).converged
    assert count["driven"] == spec.m


@pytest.mark.parametrize(
    "kind, off_first_product",
    [
        ("walk", lambda out: out * (1.0 + 1e-6)),  # the walk disagrees with the recurrence
        ("cells", lambda out: -out),  # negative curvature: a breakdown
    ],
    ids=["unconfirmed", "breakdown"],
)
def test_a_failed_conjugate_gradient_solve_is_solved_directly(monkeypatch, kind, off_first_product):
    """With the confirming walk's product off by 1e-6, it disagrees with
    the residual the recurrence stopped on; with the first cell-response
    apply's sign flipped, the curvature is negative.  Either way the solve
    ends in one direct solve and returns its step."""
    spec = disordered_spec(7, 12, 12, 1e7)
    args = mesh_solves(spec, 5)[0]

    def perturb(seen, number, out):
        return off_first_product(out) if (seen, number) == (kind, 1) else out

    p, count = counted_solve(monkeypatch, args, perturb)
    assert count["direct"] == 1
    assert count["modes"] == (kind == "walk")  # a breakdown stops before the lift
    driven, g_cell, rhs = args[:3]
    np.testing.assert_array_equal(p, nodal._solve_direct(driven.mesh.g, g_cell, driven.row, rhs))


@settings(deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(2.0, 8.0).map(lambda e: 10.0**e),
    st.floats(-10.0, -5.0).map(lambda e: 10.0**e),
    st.integers(0, 11),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 1e2, 1e-10, 0, 0)
@example(12, 12, 1e8, 1e-5, 11, 0)
@example(11, 3, 1e2, 1e-10, 8, 3)  # the recurrence drifts: the walk does not confirm it
def test_every_cell_current_step_meets_the_stop_rule_on_the_walk(m, n, r_int, g_bar, row, seed):
    """The residual shape every oracle Newton step solves against: currents
    across every cell, [rho; -rho], a tenth of the driver's current, with
    tangents scattered a decade either side of the preconditioner's
    conductance.  A step the cell-current loop returns meets the stop rule
    on the residual walked from its lift; a step the walk does not confirm
    is the direct solve's."""
    row %= m
    g = 1.0 / r_int
    rng = np.random.default_rng(seed)
    tangent = g_bar * 10.0 ** rng.uniform(-1.0, 1.0, (m, n))
    rho = 0.1 * g * rng.standard_normal(m * n)
    rhs = np.concatenate([rho, -rho])
    args = (nodal.ModalMesh(g, m, n, g_bar).driven(row), tangent, rhs, 1.0, g * np.finfo(float).eps)
    with pytest.MonkeyPatch.context() as patch:
        p, count = counted_solve(patch, args)
    if count["direct"]:
        np.testing.assert_array_equal(p, nodal._solve_direct(g, tangent, row, rhs))
    else:
        assert meets_stop_rule(*args, p)


def test_unknown_backend_rejected():
    spec = random_spec(1, m=3, n=3)
    with pytest.raises(ValueError, match="backend"):
        kirchhoff_row_solve(spec, 0, backend="block")


# ------------------------------------------------------------ solver behavior


def test_linear_array_converges_on_second_sweep():
    spec = random_spec(9, m=16, n=16, pair=linear_pair(1e6, 1.2e7))
    sol = kirchhoff_solve(spec)
    assert sol.converged
    assert sol.iterations <= 2
    assert sol.residual <= 1e-12


def test_rows_of_a_one_conductance_array_converge_on_the_first_step():
    """Where every cell is one ohmic conductance the background is exact,
    so every row's first state is its mesh solution."""
    spec = random_spec(9, m=16, n=16, pair=linear_pair(1e6, 1e6))
    sol = kirchhoff_solve(spec)
    assert sol.converged
    assert sol.iterations == 1


def test_voltages_bounded_and_collapse_along_selected_row():
    spec = CrossbarSpec(
        m=16, n=16, r_int=1e6, bits=np.ones((16, 16), np.int8),
        pair=knee_pair(), v_in=1.0,
    )
    sol = kirchhoff_solve(spec)
    assert sol.converged
    assert np.all(sol.v_cell >= 0.0)
    assert np.all(sol.v_cell <= spec.v_in + 1e-12)
    drops = np.diff(sol.v_cell, axis=1)
    assert np.all(drops <= 1e-9 * spec.v_in)


def test_thread_count_does_not_change_values():
    spec = random_spec(21, m=12, n=10, r_int=1e5)
    serial = kirchhoff_solve(spec, threads=1)
    pooled = kirchhoff_solve(spec, threads=4)
    np.testing.assert_array_equal(serial.v_cell, pooled.v_cell)
    np.testing.assert_array_equal(serial.i_out, pooled.i_out)
    assert serial.power == pooled.power


def test_rows_sharing_one_factorization_agree_under_thread_stress():
    # every pooled row reads the same two mode operators; a switch interval
    # of a microsecond interleaves their solves as finely as the lock allows
    spec = disordered_spec(33, 10, 10, 1e6)
    serial = kirchhoff_solve(spec, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = [kirchhoff_solve(spec, threads=6) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for sol in pooled:
        np.testing.assert_array_equal(sol.i_out, serial.i_out)
        np.testing.assert_array_equal(sol.v_cell, serial.v_cell)


@pytest.mark.parametrize("seed, active_row", [(1, 14), (17, 1), (22, 12)])
def test_rows_where_chord_iteration_cycles_converge(seed, active_row):
    # on these rows plain re-linearization at the chords falls into a
    # period-2 cycle after a residual blow-up; Newton's steps descend the
    # co-content instead
    spec = disordered_spec(seed, 20, 20, 3e7)
    row = kirchhoff_row_solve(spec, active_row)
    assert row.converged
    worst, _, _ = edge_walk(spec, row)
    assert worst <= 1e-9 * row.source_current


def perfbench_oracle_spec(seed, cycle):
    """The 32x32, r_int 1e7 spec of the oracle benchmark's cycle `cycle`:
    random bits then offsets from SeedSequence(seed, spawn_key=(cycle,)),
    drawn after the cycle's 64x64 spec."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cycle,)))
    for m in (64, 32):
        bits = rng.integers(0, 2, size=m * m).astype(np.int8).reshape(m, m)
        delta = rng.uniform(0.0, 0.2, size=m * m).reshape(m, m)
    return CrossbarSpec(m=32, n=32, r_int=1e7, bits=bits, delta=delta, pair=shipped_pair(), v_in=1.0)


@pytest.mark.parametrize("active_row", [13, 31])
def test_rows_of_the_sneak_heavy_benchmark_spec_converge(active_row):
    # with damped and Anderson-mixed chord iteration row 13 ran out all
    # 200 sweeps at a residual of 0.33 V and row 31 took 91
    spec = perfbench_oracle_spec(931, 1)
    row = kirchhoff_row_solve(spec, active_row)
    assert row.converged
    worst, _, _ = edge_walk(spec, row)
    assert worst <= 1e-9 * row.source_current


def test_sneak_heavy_benchmark_rows_take_few_newton_steps():
    """Started from the driven row solved on the mean-chord background the
    32x32 spec at r_int 1e7 takes 2.91 Newton steps per row; started from
    the mesh with every cell at the mean chord at the bias it took 4.56."""
    spec = perfbench_oracle_spec(931, 1)
    factors = nodal.GeometryFactors(spec)
    steps = [kirchhoff_row_solve(spec, i, factors=factors).iterations for i in range(spec.m)]
    assert np.mean(steps) <= 3.0


def test_a_row_solved_alone_starts_from_its_own_drops_only():
    """kirchhoff_row_solve without shared factors solves the driven-row
    drops of its own row alone, and its readout matches the one it gives
    from the all-row factors that kirchhoff_solve shares."""
    spec = perfbench_oracle_spec(931, 1)
    every = nodal.GeometryFactors(spec)
    for active_row in (0, 13, 31):
        one = nodal.GeometryFactors(spec, [active_row])
        assert np.isnan(np.delete(one.drops, active_row, axis=0)).all()
        np.testing.assert_allclose(one.drops[active_row], every.drops[active_row], rtol=1e-12, atol=0.0)
        alone = kirchhoff_row_solve(spec, active_row).i_out
        shared = kirchhoff_row_solve(spec, active_row, factors=every).i_out
        np.testing.assert_allclose(alone, shared, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("backend", ["pcg", "sparse"])
def test_rows_cut_off_by_the_step_budget_are_not_converged(backend):
    """A row given fewer Newton steps than it needs stops on the budget
    and is not reported converged."""
    spec = disordered_spec(0, 8, 8, 1e8)
    factors = nodal.GeometryFactors(spec, [3])  # the row's start, built on the full budget
    ref = kirchhoff_row_solve(spec, 3, backend=backend, factors=factors)
    assert ref.converged and ref.iterations >= 3
    for max_iter in range(1, ref.iterations):
        with mock.patch.object(fixedpoint, "MAX_ITER", max_iter):
            row = kirchhoff_row_solve(spec, 3, backend=backend, factors=factors)
        assert row.iterations == max_iter
        assert not row.converged


def test_solution_metadata():
    spec = random_spec(2, m=4, n=4)
    sol = kirchhoff_solve(spec)
    assert sol.solver == "kirchhoff"
    assert sol.v_cell.shape == (4, 4)
    assert sol.i_out.shape == (4, 4)
    assert sol.source_current.shape == (4,)
    assert sol.power > 0.0
