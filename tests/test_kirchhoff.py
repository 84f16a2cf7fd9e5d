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
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from xbar import fixedpoint, nodal
from xbar.defaults import shipped_pair
from xbar.ivtable import V_FLOOR, interpolate_current, small_signal_conductance
from xbar.model import CrossbarSpec
from xbar.nodal import kirchhoff_row_solve, kirchhoff_solve, solve_linear_homogeneous

import factories
from factories import disordered_spec
from mesh_walk import edge_walk


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
    got = nodal.DrivenFactor(nodal.ModalMesh(g, m, n, g_cell), row).precondition(y)
    ref = nodal._solve_direct(g, np.full((m, n), g_cell), row, y)
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


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
    """Every row's closed-form drop response, to currents across each of
    its cells and to the source bias, against DrivenFactor.precondition
    applied to those currents: both solve the same driven homogeneous
    mesh, the closed form without forming any node voltage."""
    m, n, r_int, g_cell = array
    g = 1.0 / r_int
    mesh = nodal.ModalMesh(g, m, n, g_cell)
    response, bias = mesh.driven_rows()
    assert response.shape == (m, n, n) and bias.shape == (m, n)
    for row in range(m):
        factor = nodal.DrivenFactor(mesh, row)
        ref = np.empty((n, n))
        for k in range(n):
            y = np.zeros(2 * m * n)
            y[row * n + k], y[m * n + row * n + k] = 1.0, -1.0
            ref[:, k] = row_drops(factor.precondition(y), m, n, row)
        y = np.zeros(2 * m * n)
        y[row * n] = g
        bias_ref = row_drops(factor.precondition(y), m, n, row)
        assert np.max(np.abs(response[row] - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert np.max(np.abs(bias[row] - bias_ref)) <= 1e-9 * np.max(np.abs(bias_ref))


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
