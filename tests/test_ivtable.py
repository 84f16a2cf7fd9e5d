"""Lookup-table tests: bilinear interpolation, chord conductance, synthetic
table generation, and validation reporting."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from xbar import ivtable as ivt
from xbar.defaults import build_shipped_tables, shipped_pair
from xbar.ivtable import IVTable, StrandPair


def smooth_table():
    """Hand-built smooth nonlinear table used by several tests."""
    v = np.linspace(0.0, 1.0, 11)
    d = np.linspace(0.0, 0.2, 5)
    current = np.outer(np.exp(-3.0 * d), 1e-6 * v * (1.0 + np.tanh(3.0 * (v - 0.4))))
    return IVTable("smooth", v, d, current)


def test_interpolation_exact_on_grid_nodes():
    table = smooth_table()
    vv, dd = np.meshgrid(table.v_grid, table.delta_grid)
    out = ivt.interpolate_current(table, vv, dd)
    np.testing.assert_array_equal(out, table.current)


def test_interpolation_reproduces_linear_rows_exactly():
    v = np.linspace(0.0, 1.0, 6)
    d = np.linspace(0.0, 0.2, 3)
    g_rows = np.array([1e-6, 2e-6, 4e-6])
    table = IVTable("linear", v, d, np.outer(g_rows, v))
    for idl, g in enumerate(g_rows):
        v_mid = 0.5 * (v[2] + v[3])
        got = ivt.interpolate_current(table, v_mid, d[idl])
        assert got == pytest.approx(g * v_mid, rel=0, abs=1e-22)


def test_interpolation_error_within_second_difference_bound():
    table = smooth_table()

    def exact(v, d):
        return np.exp(-3.0 * d) * 1e-6 * v * (1.0 + np.tanh(3.0 * (v - 0.4)))

    v_fine = np.linspace(0.0, 1.0, 101)  # 10x refined
    d_fine = np.linspace(0.0, 0.2, 41)
    vv, dd = np.meshgrid(v_fine, d_fine)
    err = np.max(np.abs(ivt.interpolate_current(table, vv, dd) - exact(vv, dd)))
    bound_v = np.max(np.abs(np.diff(table.current, n=2, axis=1)))
    bound_d = np.max(np.abs(np.diff(table.current, n=2, axis=0)))
    assert err <= 0.5 * (bound_v + bound_d)


def test_interpolation_rejects_out_of_range_with_box():
    table = smooth_table()
    with pytest.raises(ValueError, match=r"outside table range \[0, 1\]"):
        ivt.interpolate_current(table, 1.2, 0.0)
    with pytest.raises(ValueError, match="delta"):
        ivt.interpolate_current(table, 0.5, 0.3)


def test_interpolation_is_monotone_between_nodes():
    table = smooth_table()
    v = np.linspace(0.0, 1.0, 301)
    out = ivt.interpolate_current(table, v, np.full_like(v, 0.1))
    assert np.all(np.diff(out) >= -1e-25)


def test_degenerate_single_point_axis_supports_node_queries():
    table = IVTable("point", [0.0], [0.0, 0.1], [[0.0], [0.0]])
    assert ivt.interpolate_current(table, 0.0, 0.05) == 0.0
    with pytest.raises(ValueError, match="outside"):
        ivt.interpolate_current(table, 0.5, 0.0)


def test_conductance_of_ohmic_table_is_flat():
    v = np.linspace(0.0, 1.0, 21)
    d = np.linspace(0.0, 0.2, 3)
    table = IVTable("ohmic", v, d, np.outer(np.ones(3), v / 1e6))
    for q in (0.0, 1e-4, 1e-3, 0.37, 1.0):
        assert ivt.small_signal_conductance(table, q, 0.1) == pytest.approx(
            1e-6, rel=1e-12
        )


def test_conductance_zero_bias_uses_secant_and_stays_finite():
    table = smooth_table()
    g0 = ivt.small_signal_conductance(table, 0.0, 0.0)
    g_floor = ivt.small_signal_conductance(table, ivt.V_FLOOR, 0.0)
    assert np.isfinite(g0) and g0 > 0
    assert g0 == g_floor


def test_conductance_matches_chord_slope_oracle():
    # chord conductance is I(v)/v; recompute it independently from the
    # interpolated currents on a fine grid
    table = smooth_table()
    v = np.linspace(2e-3, 1.0, 97)
    d = np.full_like(v, 0.05)
    chord = ivt.interpolate_current(table, v, d) / v
    np.testing.assert_allclose(
        ivt.small_signal_conductance(table, v, d), chord, rtol=1e-12
    )


def test_conductance_continuous_at_floor():
    table = smooth_table()
    below = ivt.small_signal_conductance(table, ivt.V_FLOOR * 0.99, 0.0)
    above = ivt.small_signal_conductance(table, ivt.V_FLOOR * 1.01, 0.0)
    local_slope = abs(
        table.current[0, 1] / table.v_grid[1] - table.current[0, 2] / table.v_grid[2]
    )
    assert abs(below - above) <= max(local_slope, 1e-9)


# -------------------------------------------------------------- synthesis


def test_synthesize_ohmic_limit_exact():
    table = ivt.synthesize_table(1e6, 1e6, strand_id="ohmic")
    idx = np.where(table.v_grid == 1.0)[0][0]
    assert table.current[0, idx] == 1e-6
    g = ivt.small_signal_conductance(table, 0.42, 0.0)
    assert g == pytest.approx(1e-6, rel=1e-12)


def test_synthesize_delta_rows_strictly_ordered():
    table = ivt.synthesize_table(2e6, 2e7, delta_sensitivity=8.0)
    top = table.current[0, 1:]
    bottom = table.current[-1, 1:]
    assert np.all(bottom < top)


def test_synthesize_output_passes_validation():
    table = ivt.synthesize_table(1e6, 8e6, knee=0.4, delta_sensitivity=6.0)
    assert ivt.validate_table(table) == []


def test_synthesize_rejects_nonphysical_parameters():
    with pytest.raises(ValueError, match="r_low"):
        ivt.synthesize_table(1e7, 1e6)
    with pytest.raises(ValueError, match="knee"):
        ivt.synthesize_table(1e6, 1e7, knee=1.5)
    with pytest.raises(ValueError, match="positive"):
        ivt.synthesize_table(-1e6, 1e7)


# ------------------------------------------------------------- validation


def test_validate_flags_zero_bias_current():
    table = ivt.synthesize_table(1e6, 1e7)
    table.current[2, 0] = 1e-9
    report = ivt.validate_table(table)
    assert any("zero bias" in v and "delta index 2" in v for v in report)


def test_validate_flags_monotonicity_break_with_index():
    table = ivt.synthesize_table(1e6, 1e7)
    table.current[1, 7] = table.current[1, 6] * 0.5
    report = ivt.validate_table(table)
    assert any("decreasing" in v and "delta index 1" in v for v in report)


def test_validate_flags_span_and_nonfinite():
    v = np.linspace(0.0, 0.5, 6)
    d = np.linspace(0.0, 0.2, 3)
    narrow = IVTable("narrow", v, d, np.outer(np.ones(3), v * 1e-6))
    assert any("span" in x for x in ivt.validate_table(narrow))

    table = ivt.synthesize_table(1e6, 1e7)
    table.current[0, 3] = np.nan
    assert any("non-finite" in x for x in ivt.validate_table(table))


def test_validate_accepts_clean_table():
    assert ivt.validate_table(ivt.synthesize_table(1e6, 1e7)) == []


# ------------------------------------------------------------ strand pair


def test_strand_pair_requires_distinct_ids():
    t = ivt.synthesize_table(1e6, 1e7, strand_id="same")
    with pytest.raises(ValueError, match="distinct"):
        StrandPair(logic0_table=t, logic1_table=t)


def test_strand_pair_orders_conductance_under_default_mapping():
    hi = ivt.synthesize_table(1e6, 8e6, strand_id="hi")
    lo = ivt.synthesize_table(1e7, 8e7, strand_id="lo")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = StrandPair(logic0_table=lo, logic1_table=hi)
    i1 = ivt.interpolate_current(pair.logic1_table, 1.0, 0.0)
    i0 = ivt.interpolate_current(pair.logic0_table, 1.0, 0.0)
    assert i1 > i0


def test_strand_pair_warns_on_inverted_mapping():
    hi = ivt.synthesize_table(1e6, 8e6, strand_id="hi")
    lo = ivt.synthesize_table(1e7, 8e7, strand_id="lo")
    with pytest.warns(UserWarning, match="inverted"):
        StrandPair(logic0_table=hi, logic1_table=lo)


def test_shipped_tables_are_their_generators_output():
    """The packaged data/logic{0,1}.json are what build_shipped_tables
    writes, bit for bit, so the defining parameters in xbar.defaults stay
    the source of truth for them."""
    built, shipped = build_shipped_tables(), shipped_pair()
    for name in ("logic0_table", "logic1_table"):
        b, s = getattr(built, name), getattr(shipped, name)
        assert b.strand_id == s.strand_id
        np.testing.assert_array_equal(b.v_grid, s.v_grid)
        np.testing.assert_array_equal(b.delta_grid, s.delta_grid)
        np.testing.assert_array_equal(b.current, s.current)


# -------------------------------------------------------------------- io


def test_table_file_roundtrip_is_exact(tmp_path):
    table = ivt.synthesize_table(1.3e6, 2.7e7, knee=0.37, delta_sensitivity=7.3)
    path = tmp_path / "table.json"
    ivt.save_table(table, path)
    back = ivt.load_table(path)
    assert back.strand_id == table.strand_id
    np.testing.assert_array_equal(back.v_grid, table.v_grid)
    np.testing.assert_array_equal(back.delta_grid, table.delta_grid)
    np.testing.assert_array_equal(back.current, table.current)


def test_table_loader_warns_on_violations(tmp_path):
    table = ivt.synthesize_table(1e6, 1e7)
    table.current[0, 0] = 5e-9
    path = tmp_path / "bad.json"
    ivt.save_table(table, path)
    with pytest.warns(UserWarning, match="zero bias"):
        ivt.load_table(path)


def test_table_loader_names_missing_field(tmp_path):
    from xbar import runio

    path = tmp_path / "broken.json"
    runio.dump_json({"strand_id": "x", "v_grid_v": [0.0, 1.0]}, path)
    with pytest.raises(ValueError, match="delta_grid_ev"):
        ivt.load_table(path)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"strand_id": "x", "v_grid_v": [0.0,')
    with pytest.raises(ValueError, match="line"):
        ivt.load_table(path)


def test_strand_pair_names_short_table_and_remedy():
    v = np.linspace(0.0, 0.8, 9)
    d = np.linspace(0.0, 0.2, 3)
    short = IVTable("short-strand", v, d, np.outer(np.ones(3), v * 1e-6))
    full = ivt.synthesize_table(1e6, 1e7, strand_id="full")
    with pytest.raises(ValueError, match=r"'short-strand' ends at 0.8 V.*--v-max"):
        StrandPair(logic0_table=short, logic1_table=full)
    with pytest.raises(ValueError, match=r"'short-strand' ends at 0.8 V.*--v-max"):
        StrandPair(logic0_table=full, logic1_table=short)


def test_pair_range_check_takes_what_the_lookup_takes():
    """A table whose last bias node rounds just below 1 V forms a pair and
    its lookup reads 1 V, so an array read at 1 V passes the range check;
    past the lookup's edge slack it does not."""
    v = np.array([0.0, 0.5, 1.0 - 1e-13])
    d = np.array([0.0, 0.2])
    rounded = IVTable("rounded", v, d, np.outer(np.ones(2), v * 1e-6))
    full = ivt.synthesize_table(1e5, 1e6, strand_id="full")
    pair = StrandPair(logic0_table=rounded, logic1_table=full)
    pair.check_range(1.0, np.array([0.0, 0.2 + 1e-14]), "delta_ev values")
    with pytest.raises(ValueError, match=r"^v_in_v = 1.00000000001 exceeds table 'rounded'"):
        pair.check_range(1.0 + 1e-11, 0.0, "delta_ev values")
    with pytest.raises(ValueError, match=r"^delta_ev values \[0, 0.2\] outside table 'rounded'"):
        pair.check_range(1.0, np.array([0.0, 0.2 + 1e-11]), "delta_ev values")


# --------------------------------------------------- lookup properties


@st.composite
def monotone_tables(draw):
    """Tables on random strictly increasing grids, current non-decreasing
    in bias along every delta row."""
    steps = st.floats(0.01, 1.0)
    nv = draw(st.integers(2, 7))
    nd = draw(st.integers(1, 5))
    v = np.cumsum([0.0] + draw(st.lists(steps, min_size=nv - 1, max_size=nv - 1)))
    d = np.cumsum([0.0] + draw(st.lists(steps, min_size=nd - 1, max_size=nd - 1)))
    rises = draw(hnp.arrays(float, (nd, nv), elements=st.floats(0.0, 1e-6)))
    return IVTable("prop", v, d, np.cumsum(rises, axis=1))


@given(monotone_tables())
def test_interpolation_exact_on_every_grid_node(table):
    vv, dd = np.meshgrid(table.v_grid, table.delta_grid)
    np.testing.assert_array_equal(ivt.interpolate_current(table, vv, dd), table.current)


# j and i pick the cell: monotone_tables draws at most 6 bias and 4 delta cells
@given(
    monotone_tables(),
    st.integers(0, 5),
    st.integers(0, 3),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@example(IVTable("prop", [0.0, 1.0], [0.0, 1.0], np.full((2, 2), 5e-324)), 0, 0, 0.5, 0.5)
def test_interpolation_bounded_by_its_cell_corners(table, j, i, t, s):
    """The lookup lies between its cell's corners up to rounding, in the
    standard model with its underflow term (Higham, Accuracy and Stability
    of Numerical Algorithms, 2.1): 4 eps of the largest corner plus 4
    smallest subnormals.  The example's subnormal corners blend to 0."""
    nv, nd = table.v_grid.size, table.delta_grid.size
    j, i = j % (nv - 1), i % max(nd - 1, 1)
    v_lo, v_hi = table.v_grid[j], table.v_grid[j + 1]
    v = min(v_lo + t * (v_hi - v_lo), v_hi)
    if nd == 1:
        d, corners = table.delta_grid[0], table.current[0, j : j + 2]
    else:
        d_lo, d_hi = table.delta_grid[i], table.delta_grid[i + 1]
        d = min(d_lo + s * (d_hi - d_lo), d_hi)
        corners = table.current[i : i + 2, j : j + 2]
    got = ivt.interpolate_current(table, v, d)
    fp = np.finfo(float)
    slack = 4 * fp.eps * np.abs(corners).max() + 4 * fp.smallest_subnormal
    assert corners.min() - slack <= got <= corners.max() + slack


@given(
    monotone_tables(),
    hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
    st.data(),
)
def test_interpolation_batch_of_any_shape_matches_single_queries(table, shape, data):
    unit = hnp.arrays(float, shape, elements=st.floats(0.0, 1.0))
    v = table.v_grid[0] + data.draw(unit) * (table.v_grid[-1] - table.v_grid[0])
    d = table.delta_grid[0] + data.draw(unit) * (table.delta_grid[-1] - table.delta_grid[0])
    batch = ivt.interpolate_current(table, v, d)
    single = [ivt.interpolate_current(table, float(a), float(b)) for a, b in zip(v.flat, d.flat)]
    np.testing.assert_array_equal(np.reshape(batch, shape), np.reshape(single, shape))


@st.composite
def pair_tables(draw, strand_id):
    """A strand table on its own grids: bias nodes from 0 to a v_max in
    [1, 1.5] and offset nodes from 0 to [0.1, 0.3], spaced at random."""
    steps = st.floats(0.05, 1.0)
    nv = draw(st.integers(2, 8))
    nd = draw(st.integers(1, 5))
    v = np.cumsum([0.0] + draw(st.lists(steps, min_size=nv - 1, max_size=nv - 1)))
    v = v / v[-1] * draw(st.floats(1.0, 1.5))
    d = np.cumsum([0.0] + draw(st.lists(steps, min_size=nd - 1, max_size=nd - 1)))
    if nd > 1:
        d = d / d[-1] * draw(st.floats(0.1, 0.3))
    rises = draw(hnp.arrays(float, (nd, nv), elements=st.floats(0.0, 1e-6)))
    return IVTable(strand_id, v, d, np.cumsum(rises, axis=1))


@st.composite
def pairs_on_their_own_grids(draw):
    t0 = draw(pair_tables("p0"))
    t1 = draw(pair_tables("p1"))
    if draw(st.booleans()):  # the common case: both tables on one grid
        t1 = IVTable("p1", t0.v_grid, t0.delta_grid, 0.5 * t0.current)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # either mapping will do here
        return StrandPair(logic0_table=t0, logic1_table=t1)


def per_table_lookup(pair, bits, delta, v, chord=False):
    """The reference: every cell queried through its own table, one table
    call per bit value."""
    out = np.empty(np.shape(v))
    for bit in (0, 1):
        mask = bits == bit
        if np.any(mask):
            table = pair.logic1_table if bit else pair.logic0_table
            if chord:
                clamped = np.minimum(np.abs(v[mask]), table.v_grid[-1])
                out[mask] = ivt.small_signal_conductance(table, clamped, delta[mask])
            else:
                out[mask] = ivt.interpolate_current(table, v[mask], delta[mask])
    return out


def in_own_range(pair, bits, unit, axis):
    """Per-cell values at fraction `unit` of each cell's own table range."""
    grid0, grid1 = getattr(pair.logic0_table, axis), getattr(pair.logic1_table, axis)
    lo, hi = (np.where(bits == 1, grid1[end], grid0[end]) for end in (0, -1))
    return np.minimum(lo + unit * (hi - lo), hi)


@given(
    pairs_on_their_own_grids(), hnp.array_shapes(min_dims=1, max_dims=3, max_side=5), st.data()
)
def test_lookup_plan_matches_per_cell_table_queries(pair, shape, data):
    """Current and chord lookups of a plan, on all cells or on any subset of
    rows, equal each cell's own table query bit for bit, also when the two
    tables have different bias and offset grids and bias ranges.  Biases
    fall between nodes, on or next to nodes of either table (inside the
    edge slack of a range end too) and, for chords, past either range."""
    bits = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 1)))
    unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
    fractions = hnp.arrays(float, shape, elements=unit)
    delta = in_own_range(pair, bits, data.draw(fractions), "delta_grid")
    nodes = np.union1d(pair.logic0_table.v_grid, pair.logic1_table.v_grid)
    signed = st.one_of(st.floats(-1.6, 1.6), st.sampled_from(list(nodes) + list(-nodes)))
    v_chord = data.draw(hnp.arrays(float, shape, elements=signed))
    v_current = np.minimum(
        np.abs(data.draw(hnp.arrays(float, shape, elements=st.sampled_from(list(nodes))))),
        in_own_range(pair, bits, np.ones(shape), "v_grid"),
    )
    v_current = np.where(
        data.draw(hnp.arrays(bool, shape)),
        v_current,
        in_own_range(pair, bits, data.draw(fractions), "v_grid"),
    ) + data.draw(hnp.arrays(float, shape, elements=st.sampled_from([0.0, 5e-13, -5e-13])))
    plan = ivt.LookupPlan(pair, bits, delta)
    np.testing.assert_array_equal(
        plan.current(v_current), per_table_lookup(pair, bits, delta, v_current)
    )
    np.testing.assert_array_equal(
        plan.chord(v_chord), per_table_lookup(pair, bits, delta, v_chord, chord=True)
    )
    rows = data.draw(
        st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=shape[0], unique=True)
    )
    for v, chord in ((v_current, False), (v_chord, True)):
        want = per_table_lookup(pair, bits[rows], delta[rows], v[rows], chord)
        got = plan.chord(v[rows], rows) if chord else plan.current(v[rows], rows)
        np.testing.assert_array_equal(got, want)


@given(
    pairs_on_their_own_grids(), hnp.array_shapes(min_dims=1, max_dims=2, max_side=5), st.data()
)
def test_chord_tangent_is_the_slope_of_the_chord_current(pair, shape, data):
    """A cell carries chord(v) v.  Strictly inside a bias interval of its
    own table, between V_FLOOR and the table's end, that current is linear
    and the tangent is its central difference; below V_FLOOR and past the
    table's end it is a ray through the origin and the tangent is the
    chord.  Biases of either sign."""
    bits = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 1)))
    fractions = hnp.arrays(float, shape, elements=st.floats(0.0, 1.0))
    delta = in_own_range(pair, bits, data.draw(fractions), "delta_grid")
    kind = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 2)))
    sign = data.draw(hnp.arrays(float, shape, elements=st.sampled_from([-1.0, 1.0])))
    at = data.draw(hnp.arrays(float, shape, elements=st.floats(0.05, 0.95)))
    v, h = np.empty(shape), np.zeros(shape)
    for idx in np.ndindex(shape):
        grid = (pair.logic1_table if bits[idx] else pair.logic0_table).v_grid
        hi = grid[-1]
        if kind[idx] == 0:  # inside an interval of the cell's own table
            k = data.draw(st.integers(0, grid.size - 2))
            lo, up = max(grid[k], ivt.V_FLOOR), grid[k + 1]
            v[idx] = lo + at[idx] * (up - lo)
            h[idx] = 0.5 * min(v[idx] - lo, up - v[idx])
        else:  # below V_FLOOR or past the table's end
            v[idx] = at[idx] * ivt.V_FLOOR if kind[idx] == 1 else hi * (1.0 + at[idx])
    v *= sign
    plan = ivt.LookupPlan(pair, bits, delta)
    chord, tangent = plan.chord_tangent(v)
    np.testing.assert_array_equal(chord, plan.chord(v))
    outside = kind != 0
    np.testing.assert_array_equal(tangent[outside], chord[outside])
    inside = ~outside
    up, down = ((v + s * h) * plan.chord(v + s * h) for s in (1.0, -1.0))
    h = np.where(inside, h, 1.0)
    slope = (up - down) / (2.0 * h)
    rounding = (1e-13 * (np.abs(up) + np.abs(down)) + 1e-320) / h  # subnormal currents too
    assert np.all((np.abs(tangent - slope) <= 1e-9 * np.abs(slope) + rounding)[inside])


@given(
    pairs_on_their_own_grids(), hnp.array_shapes(min_dims=1, max_dims=2, max_side=4), st.data()
)
def test_lookup_plan_rejects_what_the_tables_reject(pair, shape, data):
    """A bias or an offset outside a cell's own table range raises the
    message the per-table query raises, naming the first offending table's
    range: offsets when the plan is made, biases when it is read."""
    bits = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 1)))
    fractions = hnp.arrays(float, shape, elements=st.floats(0.0, 1.0))
    delta = in_own_range(pair, bits, data.draw(fractions), "delta_grid")
    v = in_own_range(pair, bits, data.draw(fractions), "v_grid")
    bad = data.draw(hnp.arrays(bool, shape))
    if not bad.any():
        bad.flat[0] = True
    off = data.draw(st.sampled_from([-0.05, 0.4, 2.0]))
    if data.draw(st.booleans()):
        delta = np.where(bad, off, delta)
        with pytest.raises(ValueError) as want:
            per_table_lookup(pair, bits, delta, v)
        with pytest.raises(ValueError, match="^delta = .* outside table range") as got:
            ivt.LookupPlan(pair, bits, delta)
    else:
        v = np.where(bad, off if off < 0 else 1.5 + off, v)
        with pytest.raises(ValueError) as want:
            per_table_lookup(pair, bits, delta, v)
        with pytest.raises(ValueError, match="^v = .* outside table range") as got:
            ivt.LookupPlan(pair, bits, delta).current(v)
    assert str(got.value) == str(want.value)


def test_pair_rejects_a_single_node_bias_axis():
    """A one-node bias axis that reaches the 1 V read bias starts above
    V_FLOOR, so no pair takes it, as logic 0 or as logic 1."""
    one = IVTable("one", [1.0], [0.0, 0.2], [[2e-8], [1e-8]])
    hi = ivt.synthesize_table(1e6, 8e6, strand_id="hi")
    for tables in ((one, hi), (hi, one)):
        with pytest.raises(ValueError, match=r"^table 'one' v_grid_v starts at 1 V; "):
            StrandPair(*tables)


def test_a_single_node_axis_reads_its_node_there_and_nan_as_nan():
    """A one-node axis reads its node's value at the node, and a NaN query
    on it reads NaN, as on any other axis, with no exception and no
    warning; the plan reads the same on a one-node offset axis."""
    one = IVTable("one", [1.0], [0.0, 0.2], [[2e-8], [1e-8]])
    assert ivt.interpolate_current(one, 1.0, 0.0) == 2e-8
    assert ivt.interpolate_current(one, 1.0, 0.2) == 1e-8
    assert ivt.interpolate_current(one, 1.0 + 1e-13, 0.2) == 1e-8
    assert np.isnan(ivt.interpolate_current(one, np.nan, 0.0))
    assert np.isnan(ivt.small_signal_conductance(one, np.nan, 0.2))
    flat = IVTable("flat", [0.0, 0.5, 1.0], [0.0], [[0.0, 1e-7, 3e-7]])
    assert ivt.interpolate_current(flat, 0.5, 0.0) == 1e-7
    assert np.isnan(ivt.interpolate_current(flat, 0.5, np.nan))
    pair = StrandPair(logic0_table=flat, logic1_table=ivt.synthesize_table(1e6, 8e6))
    bits = np.array([0, 0, 1, 0, 0])
    delta = np.array([0.0, np.nan, 0.1, 0.0, 1e-13])
    v = np.array([0.5, 0.75, np.nan, 1.0, np.nan])
    plan = ivt.LookupPlan(pair, bits, delta)
    got = plan.current(v)
    np.testing.assert_array_equal(got, [1e-7, np.nan, np.nan, 3e-7, np.nan])
    np.testing.assert_array_equal(got, per_table_lookup(pair, bits, delta, v))
    np.testing.assert_array_equal(plan.chord(v), per_table_lookup(pair, bits, delta, v, chord=True))


def test_pair_rejects_a_table_that_starts_above_the_floor():
    """A chord is read at V_FLOOR at the lowest, so a pair rejects a table
    whose bias grid starts above it, naming the strand and its start.  A
    table that starts at V_FLOOR forms a pair, and its chord and
    chord_tangent equal the per-table query bit for bit, NaN, ±inf and
    |v| below V_FLOOR included."""
    base = ivt.synthesize_table(1e6, 8e6, strand_id="base")
    d = base.delta_grid
    for start, shown in ((0.2, "0.2"), (np.nextafter(ivt.V_FLOOR, 1.0), "0.001")):
        grid = np.array([start, 0.6, 1.0])
        late = IVTable("late", grid, d, ivt.interpolate_current(base, grid, d[:, None]))
        for tables in ((late, base), (base, late)):
            with pytest.raises(ValueError, match=rf"^table 'late' v_grid_v starts at {shown} V; "):
                StrandPair(*tables)
    grid = np.array([ivt.V_FLOOR, 0.2, 0.6, 1.0])
    floor = IVTable("floor", grid, d, ivt.interpolate_current(base, grid, d[:, None]))
    pair = StrandPair(logic0_table=floor, logic1_table=base)
    bits = np.array([[0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.int8)
    delta = np.array([[0.0, 0.05, 0.13, 0.2], [0.2, 0.07, 0.11, 0.03]])
    plan = ivt.LookupPlan(pair, bits, delta)
    for v in (
        np.array([[ivt.V_FLOOR, 0.1, -0.37, 1e-4], [-1e-4, 0.2 - 1e-13, 0.0, 1.4]]),
        np.array([[-0.2, -0.6, 0.6 + 1e-13, np.inf], [0.9, -np.inf, np.nan, np.nan]]),
        np.array([[-5e-4, 5e-4, 0.0, -0.0], [0.0, -ivt.V_FLOOR, 2e-3, -1e-300]]),
    ):
        want = per_table_lookup(pair, bits, delta, v, chord=True)
        np.testing.assert_array_equal(plan.chord(v), want)
        np.testing.assert_array_equal(plan.chord_tangent(v)[0], want)


@given(
    pairs_on_their_own_grids(), hnp.array_shapes(min_dims=1, max_dims=3, max_side=5), st.data()
)
def test_lookups_pass_non_finite_biases_and_read_row_subsets(pair, shape, data):
    """A NaN bias reads NaN from current, chord and chord_tangent, with no
    exception and no warning: a NaN Newton step has to end fixedpoint.solve's
    line search.  ±inf reads the chord at the table's end, and the chord as its
    tangent.  chord_tangent on any subset of rows equals its all-cell
    result there, bit for bit."""
    bits = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 1)))
    fractions = hnp.arrays(float, shape, elements=st.floats(0.0, 1.0))
    delta = in_own_range(pair, bits, data.draw(fractions), "delta_grid")
    special = st.sampled_from([np.nan, np.inf, -np.inf])
    v = data.draw(hnp.arrays(float, shape, elements=st.one_of(st.floats(-1.6, 1.6), special)))
    end = in_own_range(pair, bits, np.ones(shape), "v_grid")
    plan = ivt.LookupPlan(pair, bits, delta)
    nan, inf = np.isnan(v), np.isinf(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chord, tangent = plan.chord_tangent(v)
        np.testing.assert_array_equal(plan.chord(v), chord)
        inside = in_own_range(pair, bits, data.draw(fractions), "v_grid")
        current = plan.current(np.where(nan, v, inside))
        assert np.isnan(current[nan]).all() and np.isnan(chord[nan]).all()
        assert np.isnan(tangent[nan]).all()
        np.testing.assert_array_equal(chord[inf], plan.chord(end)[inf])
        np.testing.assert_array_equal(tangent[inf], chord[inf])
        rows = data.draw(
            st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=shape[0], unique=True)
        )
        for got, want in zip(plan.chord_tangent(v[rows], rows), (chord, tangent)):
            np.testing.assert_array_equal(got, want[rows])
