"""Lookup-table tests: bilinear interpolation, chord conductance, synthetic
table generation, and validation reporting."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
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
    assert ivt.validate_table(table).ok


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
    assert any("zero bias" in v and "delta index 2" in v for v in report.violations)


def test_validate_flags_monotonicity_break_with_index():
    table = ivt.synthesize_table(1e6, 1e7)
    table.current[1, 7] = table.current[1, 6] * 0.5
    report = ivt.validate_table(table)
    assert any("decreasing" in v and "delta index 1" in v for v in report.violations)


def test_validate_flags_span_and_nonfinite():
    v = np.linspace(0.0, 0.5, 6)
    d = np.linspace(0.0, 0.2, 3)
    narrow = IVTable("narrow", v, d, np.outer(np.ones(3), v * 1e-6))
    assert any("span" in x for x in ivt.validate_table(narrow).violations)

    table = ivt.synthesize_table(1e6, 1e7)
    table.current[0, 3] = np.nan
    assert any("non-finite" in x for x in ivt.validate_table(table).violations)


def test_validate_accepts_clean_table():
    assert ivt.validate_table(ivt.synthesize_table(1e6, 1e7)).ok


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
    i1 = ivt.interpolate_current(pair.table_for(1), 1.0, 0.0)
    i0 = ivt.interpolate_current(pair.table_for(0), 1.0, 0.0)
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
    for bit in (0, 1):
        b, s = built.table_for(bit), shipped.table_for(bit)
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


@given(monotone_tables(), st.data())
def test_interpolation_bounded_by_its_cell_corners(table, data):
    nv, nd = table.v_grid.size, table.delta_grid.size
    j = data.draw(st.integers(0, nv - 2))
    i = data.draw(st.integers(0, max(nd - 2, 0)))
    t, s = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
    v_lo, v_hi = table.v_grid[j], table.v_grid[j + 1]
    v = min(v_lo + t * (v_hi - v_lo), v_hi)
    if nd == 1:
        d, corners = table.delta_grid[0], table.current[0, j : j + 2]
    else:
        d_lo, d_hi = table.delta_grid[i], table.delta_grid[i + 1]
        d = min(d_lo + s * (d_hi - d_lo), d_hi)
        corners = table.current[i : i + 2, j : j + 2]
    got = ivt.interpolate_current(table, v, d)
    slack = 4 * np.finfo(float).eps * np.abs(corners).max()
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


@given(hnp.array_shapes(min_dims=1, max_dims=3, max_side=5), st.data())
def test_cell_lookup_matches_per_cell_table_queries(shape, data):
    pair = StrandPair(
        logic0_table=ivt.synthesize_table(1e7, 8e7, strand_id="lo"),
        logic1_table=ivt.synthesize_table(1e6, 8e6, strand_id="hi"),
    )
    bits = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 1)))
    delta = data.draw(hnp.arrays(float, shape, elements=st.floats(0.0, 0.2)))
    v = data.draw(hnp.arrays(float, shape, elements=st.floats(-1.5, 1.5)))
    current = ivt.cell_lookup(pair, bits, delta, np.abs(v) % 1.0)
    chord = ivt.cell_lookup(pair, bits, delta, v, chord=True)
    for idx in np.ndindex(shape):
        table = pair.table_for(bits[idx])
        assert current[idx] == ivt.interpolate_current(table, abs(v[idx]) % 1.0, delta[idx])
        clamped = min(abs(v[idx]), 1.0)
        assert chord[idx] == ivt.small_signal_conductance(table, clamped, delta[idx])
