"""Parametric solver tests: calibration anchors, agreement with the nodal
reference, and the distortion profile of the readout."""

import json
from pathlib import Path

import numpy as np
import pytest

from xbar.crossbar import (
    _ladder_fractions,
    _solve_rows,
    calibrate_sneak_params,
    compute_power,
    default_g_mean,
    normalized_voltages,
    parametric_solve,
    readout_currents,
)
from xbar.defaults import shipped_pair
from xbar.ivtable import IVTable, StrandPair, synthesize_table
from xbar.fixedpoint import DEFAULT_MAX_ITER
from xbar.model import CrossbarSpec, ReadoutSolution, SneakParams
from xbar.nodal import kirchhoff_solve

PINS = Path(__file__).parent / "data" / "parametric_pins.json"
MIXED_ROWS_PARAMS = Path(__file__).parent / "data" / "mixed_rows_params.json"


def linear_table(resistance, strand_id):
    v_grid = np.array([0.0, 0.5, 1.0])
    delta_grid = np.array([0.0, 0.2])
    current = np.tile(v_grid / resistance, (delta_grid.size, 1))
    return IVTable(
        strand_id=strand_id, v_grid=v_grid, delta_grid=delta_grid, current=current
    )


def linear_pair(r1, r0):
    return StrandPair(
        logic0_table=linear_table(r0, "lin0"),
        logic1_table=linear_table(r1, "lin1"),
    )


def knee_pair(r1=1e10, ratio=12.0):
    # low-bias resistance r1 with a conductance knee near mid-bias; the
    # logic-0 strand is the same shape scaled down by the contrast ratio
    t1 = synthesize_table(r1, 20.0 * r1, strand_id="syn1")
    t0 = synthesize_table(ratio * r1, 20.0 * ratio * r1, strand_id="syn0")
    return StrandPair(logic0_table=t0, logic1_table=t1)


def homogeneous_spec(m, n, r_int, pair, v_in=1.0):
    bits = np.ones((m, n), dtype=np.int8)
    return CrossbarSpec(m=m, n=n, r_int=r_int, v_in=v_in, bits=bits, pair=pair)


def random_spec(seed, m, n, r_int, pair):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(m, n)).astype(np.int8)
    return CrossbarSpec(m=m, n=n, r_int=r_int, v_in=1.0, bits=bits, pair=pair)


def disordered_spec(seed, m, n, r_int):
    """Random bits and per-cell level offsets on the shipped tables."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(m, n)).astype(np.int8)
    delta = rng.uniform(0.0, 0.2, size=(m, n))
    return CrossbarSpec(m=m, n=n, r_int=r_int, bits=bits, pair=shipped_pair(), delta=delta)


# --- single cell anchors --------------------------------------------------


def test_single_cell_calibration_is_series_divider():
    """With one cell the row factor is the divider of the cell against its
    single return segment; the source segment lives in the in-row fraction
    and the column factor has nothing to absorb."""
    r_cell, r_int = 1e6, 1e4
    spec = homogeneous_spec(1, 1, r_int, linear_pair(r_cell, r_cell))
    params = calibrate_sneak_params(spec)
    assert params.alpha[0] == pytest.approx(r_cell / (r_cell + r_int), rel=1e-12)
    assert params.beta[0] == pytest.approx(1.0, rel=1e-12)


def test_single_cell_readout_exact():
    r_cell, r_int = 1e6, 1e4
    spec = homogeneous_spec(1, 1, r_int, linear_pair(r_cell, r_cell))
    params = calibrate_sneak_params(spec)
    sol = parametric_solve(spec, params)
    series = r_cell + 2.0 * r_int
    assert sol.v_cell[0, 0] == pytest.approx(r_cell / series, rel=1e-9)
    assert sol.i_out[0, 0] == pytest.approx(1.0 / series, rel=1e-9)
    assert sol.power == pytest.approx(1.0 / series, rel=1e-9)
    # normalized voltage carries the source-segment divider, by design
    assert sol.v_normalized[0, 0] == pytest.approx(
        (r_cell + r_int) / series, rel=1e-9
    )
    assert sol.converged and sol.iterations <= 2


# --- calibration ----------------------------------------------------------


def test_calibration_factors_approach_unity_for_vanishing_interconnect():
    spec = homogeneous_spec(8, 8, 1.0, linear_pair(1e6, 1e6))
    params = calibrate_sneak_params(spec)
    assert np.abs(params.alpha - 1.0).max() < 1e-3
    assert np.abs(params.beta - 1.0).max() < 1e-3


def test_calibration_shapes_on_large_array():
    """64x64 at 1 MOhm interconnect and 1 uS cells: rows farther from the
    source keep more voltage because their bitline return is shorter, so
    alpha rises with the row index.  Near columns leak current to far
    columns through the floating rows, so the raw beta ratio rises along
    the row until the clamp at one."""
    spec = homogeneous_spec(64, 64, 1e6, linear_pair(1e6, 12e6))
    params = calibrate_sneak_params(spec, g_mean=1e-6)
    assert np.all(np.diff(params.alpha) > 0)
    assert params.alpha[-1] - params.alpha[0] > 0.3
    assert np.all(params.alpha > 0) and np.all(params.alpha <= 1)
    assert np.all(np.diff(params.beta) >= 0)
    assert params.beta[0] < 0.2
    assert params.beta[-1] == pytest.approx(1.0)


def test_calibration_rejects_nonpositive_mean_conductance():
    spec = homogeneous_spec(2, 2, 1e4, linear_pair(1e6, 1e6))
    with pytest.raises(ValueError):
        calibrate_sneak_params(spec, g_mean=0.0)


def test_default_mean_conductance_averages_the_two_strands():
    pair = linear_pair(1e6, 3e6)
    spec = homogeneous_spec(2, 2, 1e4, pair)
    expect = 0.5 * (1e-6 + 1.0 / 3e6)
    assert default_g_mean(spec) == pytest.approx(expect, rel=1e-12)


# --- in-row fraction kernel -----------------------------------------------


def test_ladder_fraction_of_single_column_is_divider():
    for c in (1e-4, 0.037, 0.4):
        loads = np.array([c])
        expect = 1.0 / (1.0 + c)
        assert _ladder_fractions(loads)[0] == pytest.approx(expect, rel=1e-14)


def test_ladder_fractions_decay_monotonically():
    rng = np.random.default_rng(11)
    for _ in range(20):
        loads = rng.uniform(0.0, 0.5, size=12)
        frac = _ladder_fractions(loads)
        assert np.all(np.diff(frac) <= 0)
        assert frac[0] <= 1.0 and frac[-1] > 0


# --- solver behaviour -----------------------------------------------------


def test_params_size_mismatch_rejected():
    pair = linear_pair(1e6, 1e6)
    spec = homogeneous_spec(4, 4, 1e4, pair)
    params = calibrate_sneak_params(spec)
    wider = homogeneous_spec(4, 5, 1e4, pair)
    with pytest.raises(ValueError, match="do not fit"):
        parametric_solve(wider, params)


def test_linear_tables_converge_in_two_sweeps():
    """Ohmic cells make the ladder fixed point independent of the starting
    chord, so the second sweep only confirms the first."""
    spec = random_spec(5, 8, 8, 1e4, linear_pair(1e6, 12e6))
    params = calibrate_sneak_params(spec)
    sol = parametric_solve(spec, params)
    assert sol.converged
    assert sol.iterations <= 2
    assert sol.residual <= 1e-12


def test_parametric_tracks_oracle_on_mixed_bits():
    """Random bit patterns at benign and sneak-heavy interconnects: the
    calibrated ladder must stay within a few percent of the full mesh."""
    pair = knee_pair()
    for m, seed, r_int in ((4, 11, 1e5), (8, 7, 1e5), (8, 7, 1e6)):
        spec = random_spec(seed, m, m, r_int, pair)
        params = calibrate_sneak_params(spec)
        oracle = kirchhoff_solve(spec)
        assert oracle.converged
        sol = parametric_solve(spec, params)
        assert sol.converged
        err_i = np.abs(sol.i_out - oracle.i_out) / np.abs(oracle.i_out)
        err_v = np.abs(sol.v_cell - oracle.v_cell) / np.abs(oracle.v_cell)
        assert err_i.max() < 0.05, f"{m}x{m} r={r_int}"
        assert err_v.max() < 0.05, f"{m}x{m} r={r_int}"


def test_parametric_tracks_oracle_on_large_homogeneous_array():
    spec = homogeneous_spec(64, 64, 1e5, knee_pair())
    params = calibrate_sneak_params(spec)
    oracle = kirchhoff_solve(spec)
    sol = parametric_solve(spec, params)
    err_v = np.abs(sol.v_cell - oracle.v_cell) / np.abs(oracle.v_cell)
    assert err_v.max() < 0.05


def test_distortion_profile_on_homogeneous_array():
    """Worst cell of a homogeneous read sits at the corner farthest from
    source and ground, and the normalized profile decays along the row."""
    spec = homogeneous_spec(16, 16, 1e6, knee_pair())
    params = calibrate_sneak_params(spec)
    oracle = kirchhoff_solve(spec)
    sol = parametric_solve(spec, params)
    corner = (0, spec.n - 1)
    for readout in (oracle, sol):
        assert np.unravel_index(np.argmin(readout.v_cell), readout.v_cell.shape) == corner
        assert np.unravel_index(np.argmin(readout.i_out), readout.i_out.shape) == corner
    assert np.all(sol.v_normalized <= 1.0 + 1e-9)
    assert np.all(np.diff(sol.v_normalized, axis=1) <= 1e-12)


def test_thread_count_does_not_change_values():
    spec = random_spec(19, 8, 8, 1e6, knee_pair())
    params = calibrate_sneak_params(spec)
    serial = parametric_solve(spec, params, threads=1)
    pooled = parametric_solve(spec, params, threads=4)
    assert np.array_equal(serial.v_cell, pooled.v_cell)
    assert np.array_equal(serial.i_out, pooled.i_out)
    assert serial.power == pooled.power


@pytest.mark.parametrize(
    "case",
    json.loads(PINS.read_text()),
    ids=lambda c: f"{c['m']}x{c['n']}-rint{c['r_int']:.0e}-{c['fraction_mode']}",
)
def test_readout_matches_pinned_row_by_row_solution(case):
    """The pinned readouts were written by the row-at-a-time Picard loop
    that the batched engine replaced (one ladder solve, chord lookup and
    least-squares fit per row and sweep).  The batch must reproduce them
    to 1e-9 V and 1e-9 relative current, in the same number of sweeps."""
    spec = disordered_spec(case["seed"], case["m"], case["n"], case["r_int"])
    sol = parametric_solve(spec, calibrate_sneak_params(spec))
    assert sol.converged
    assert sol.iterations == case["iterations"]
    np.testing.assert_allclose(sol.v_cell, case["v_cell"], rtol=0, atol=1e-9)
    np.testing.assert_allclose(sol.i_out, case["i_out"], rtol=1e-9, atol=0)


def mixed_rows_case():
    """A 12x32 array at r_int 1e7 with its calibration factors as pinned
    in tests/data (written with repr precision)."""
    pinned = json.loads(MIXED_ROWS_PARAMS.read_text())
    spec = disordered_spec(pinned["seed"], pinned["m"], pinned["n"], pinned["r_int"])
    return spec, SneakParams(alpha=np.array(pinned["alpha"]), beta=np.array(pinned["beta"]))


def test_rows_solved_together_match_rows_solved_alone():
    """Every decision of the batched fixed point (convergence, damped
    reset, Anderson weights, bias-ramp rescue) is taken per row, so a row
    gets the same bits in any batch.  At a tolerance of 1e-15 V this array
    mixes rows that converge in the first stage, rows the rescue brings
    home and rows that run out of sweeps.  Which rows land in which kind
    turns on the last bits of alpha, so the case runs on pinned
    calibration factors rather than on a fresh calibration."""
    spec, params = mixed_rows_case()

    def solve(rows):
        return _solve_rows(spec, params, np.asarray(rows), 1e-15, DEFAULT_MAX_ITER)

    v, sweeps, converged, residual = solve(np.arange(spec.m))
    assert np.any(sweeps <= 60)
    assert np.any((sweeps > 60) & converged)
    assert np.any(~converged)
    for rows in [[i] for i in range(spec.m)] + [[9, 2, 8, 4]]:
        v_r, sweeps_r, converged_r, residual_r = solve(rows)
        assert np.array_equal(v_r, v[rows])
        assert np.array_equal(sweeps_r, sweeps[rows])
        assert np.array_equal(converged_r, converged[rows])
        assert np.array_equal(residual_r, residual[rows])


def test_rows_out_of_sweeps_on_the_bias_ramp_are_not_converged():
    """A row that meets a partial-bias ramp stage's looser tolerance and
    then has no sweeps left holds voltages at a fraction of the bias; it
    must be reported unconverged, never as a solution."""
    spec = disordered_spec(3, 12, 32, 1e7)
    params = calibrate_sneak_params(spec)
    every = np.arange(spec.m)
    ref, _, ref_converged, _ = _solve_rows(spec, params, every, 1e-6, DEFAULT_MAX_ITER)
    assert ref_converged.all()
    for max_iter in range(61, 80):
        v, _, converged, _ = _solve_rows(spec, params, every, 1e-15, max_iter)
        off = np.abs(v - ref).max(axis=1) > 1e-3
        assert not np.any(converged & off), f"max_iter {max_iter}"


def test_bias_ramp_stays_within_the_sweep_budget():
    """Budgets from 61 to 79 sweeps end inside a partial-bias ramp stage,
    which must stop on the budget rather than run its usual minimum of 10
    sweeps."""
    spec, params = mixed_rows_case()
    for max_iter in range(61, 80):
        sol = parametric_solve(spec, params, tol=1e-15, max_iter=max_iter)
        assert sol.iterations <= max_iter, f"max_iter {max_iter}"
        assert not sol.converged


def test_fractions_of_stacked_rows_match_single_rows():
    rng = np.random.default_rng(8)
    loads = rng.uniform(0.0, 0.5, size=(5, 7))
    stacked = _ladder_fractions(loads)
    for row, c in zip(stacked, loads):
        assert np.array_equal(row, _ladder_fractions(c))


# --- readout and power ----------------------------------------------------


def test_readout_currents_pass_through_when_beta_is_one():
    spec = random_spec(2, 4, 4, 1e4, knee_pair())
    params = SneakParams(alpha=np.full(4, 0.9), beta=np.ones(4))
    v_cell = np.full((4, 4), 0.3)
    from xbar.ivtable import interpolate_current

    expect = np.where(
        spec.bits == 1,
        interpolate_current(spec.pair.logic1_table, 0.3, 0.0),
        interpolate_current(spec.pair.logic0_table, 0.3, 0.0),
    )
    assert np.allclose(readout_currents(v_cell, params, spec), expect, rtol=1e-12)
    assert np.all(readout_currents(np.zeros((4, 4)), params, spec) == 0.0)


def test_readout_currents_scale_with_beta():
    spec = homogeneous_spec(3, 3, 1e4, linear_pair(1e6, 1e6))
    beta = np.array([0.5, 0.75, 1.0])
    params = SneakParams(alpha=np.ones(3), beta=beta)
    v_cell = np.full((3, 3), 0.4)
    currents = readout_currents(v_cell, params, spec)
    assert np.allclose(currents, (0.4 / 1e6) * beta[None, :], rtol=1e-12)


def test_normalized_voltages_divide_out_the_row_factor():
    spec = homogeneous_spec(2, 3, 1e4, linear_pair(1e6, 1e6))
    params = SneakParams(alpha=np.array([0.5, 0.25]), beta=np.ones(3))
    v_cell = np.full((2, 3), 0.1)
    norm = normalized_voltages(v_cell, params, spec)
    assert np.allclose(norm[0], 0.2, rtol=1e-12)
    assert np.allclose(norm[1], 0.4, rtol=1e-12)


def test_compute_power_prefers_reported_source_current():
    spec = homogeneous_spec(2, 2, 1e4, linear_pair(1e6, 1e6))
    base = dict(
        v_cell=np.zeros((2, 2)),
        power=0.0,
        iterations=1,
        converged=True,
        residual=0.0,
        solver="test",
    )
    with_source = ReadoutSolution(
        i_out=np.full((2, 2), 1e-6),
        source_current=np.array([3e-6, 5e-6]),
        **base,
    )
    assert compute_power(spec, with_source) == pytest.approx(
        spec.v_in * 8e-6, rel=1e-12
    )
    without = ReadoutSolution(i_out=np.full((2, 2), 1e-6), **base)
    assert compute_power(spec, without) == pytest.approx(
        spec.v_in * 4e-6, rel=1e-12
    )


def test_power_strictly_decreases_when_interconnect_doubles():
    """More series interconnect draws less from the source.  The two
    solvers disagree slightly away from the calibrated first column, so
    the cross-check is loose while the monotonicity is strict."""
    pair = linear_pair(1e6, 1e6)
    powers_param, powers_oracle = [], []
    for r_int in (1e4, 2e4):
        spec = homogeneous_spec(8, 8, r_int, pair)
        params = calibrate_sneak_params(spec)
        powers_param.append(parametric_solve(spec, params).power)
        powers_oracle.append(kirchhoff_solve(spec).power)
        assert powers_param[-1] == pytest.approx(powers_oracle[-1], rel=0.02)
    assert powers_param[1] < powers_param[0]
    assert powers_oracle[1] < powers_oracle[0]
