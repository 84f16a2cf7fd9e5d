"""Parametric solver tests: calibration anchors, agreement with the nodal
reference, and the distortion profile of the readout."""

import json
from pathlib import Path
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbar import fixedpoint, ivtable
from xbar.crossbar import (
    _ladder_fractions,
    _solve_rows,
    array_reader,
    calibrate_sneak_params,
    default_g_mean,
    parametric_solve,
    readout_currents,
)
from xbar.defaults import shipped_pair
from xbar.ivtable import LookupPlan
from xbar.model import CrossbarSpec, ReadoutSolution, SneakParams
from xbar.nodal import GeometryFactors, kirchhoff_solve

from factories import disordered_spec, knee_pair, linear_pair, random_spec

PINS = Path(__file__).parent / "data" / "parametric_pins.json"


def homogeneous_spec(m, n, r_int, pair, v_in=1.0):
    bits = np.ones((m, n), dtype=np.int8)
    return CrossbarSpec(m=m, n=n, r_int=r_int, v_in=v_in, bits=bits, pair=pair)


def plan_of(spec):
    return LookupPlan(spec.pair, spec.bits, spec.delta)


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
    # with the row factor divided out, the source-segment divider is left
    assert sol.v_cell[0, 0] / (spec.v_in * params.alpha[0]) == pytest.approx(
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
    spec = homogeneous_spec(64, 64, 1e6, linear_pair(1e6, 1e6))
    params = calibrate_sneak_params(spec)
    assert np.all(np.diff(params.alpha) > 0)
    assert params.alpha[-1] - params.alpha[0] > 0.3
    assert np.all(params.alpha > 0) and np.all(params.alpha <= 1)
    assert np.all(np.diff(params.beta) >= 0)
    assert params.beta[0] < 0.2
    assert params.beta[-1] == pytest.approx(1.0)


def test_calibration_rejects_nonpositive_mean_conductance():
    spec = homogeneous_spec(2, 2, 1e4, linear_pair(np.inf, np.inf))  # zero-current tables
    with pytest.raises(ValueError, match="mean conductance must be positive"):
        calibrate_sneak_params(spec)


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


def test_linear_tables_converge_in_two_newton_steps():
    """Ohmic cells make the ladder solution independent of the starting
    chord, so the first Newton step only confirms the first state."""
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
    source and ground, and the model's cell voltages, with each row's
    factor divided out, decay along the row from at most one."""
    spec = homogeneous_spec(16, 16, 1e6, knee_pair())
    params = calibrate_sneak_params(spec)
    oracle = kirchhoff_solve(spec)
    sol = parametric_solve(spec, params)
    corner = (0, spec.n - 1)
    for readout in (oracle, sol):
        assert np.unravel_index(np.argmin(readout.v_cell), readout.v_cell.shape) == corner
        assert np.unravel_index(np.argmin(readout.i_out), readout.i_out.shape) == corner
    in_row = sol.v_cell / (spec.v_in * params.alpha[:, None])
    assert np.all(in_row <= 1.0 + 1e-9)
    assert np.all(np.diff(in_row, axis=1) <= 1e-12)


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
    ids=lambda c: f"{c['m']}x{c['n']}-rint{c['r_int']:.0e}",
)
def test_readout_matches_pinned_row_by_row_solution(case):
    """The pinned readouts, Newton step counts included, were written by
    the batched Newton readout itself; it must keep reproducing them to
    1e-9 V and 1e-9 relative current, in the same number of steps."""
    spec = disordered_spec(case["seed"], case["m"], case["n"], case["r_int"])
    sol = parametric_solve(spec, calibrate_sneak_params(spec))
    assert sol.converged
    assert sol.iterations == case["iterations"]
    np.testing.assert_allclose(sol.v_cell, case["v_cell"], rtol=0, atol=1e-9)
    np.testing.assert_allclose(sol.i_out, case["i_out"], rtol=1e-9, atol=0)


def test_rows_solved_together_match_rows_solved_alone():
    """Every decision of the Newton driver (step, line search, stop) is
    taken per row, so a row gets the same bits in any batch.  The step
    budget is one short of the slowest row's, so the batch mixes rows that
    converge and rows the budget cuts off."""
    spec = disordered_spec(3, 12, 32, 1e7)
    params = calibrate_sneak_params(spec)
    plan = plan_of(spec)
    every = np.arange(spec.m)
    _, needed, _, _ = _solve_rows(spec, params, plan, every)

    def solve(rows):
        with mock.patch.object(fixedpoint, "MAX_ITER", needed.max() - 1):
            return _solve_rows(spec, params, plan, np.asarray(rows))

    v, steps, converged, size = solve(every)
    assert np.any(converged) and np.any(~converged)
    for rows in [[i] for i in range(spec.m)] + [[9, 2, 8, 4]]:
        v_r, steps_r, converged_r, size_r = solve(rows)
        assert np.array_equal(v_r, v[rows])
        assert np.array_equal(steps_r, steps[rows])
        assert np.array_equal(converged_r, converged[rows])
        assert np.array_equal(size_r, size[rows])


def test_rows_out_of_newton_steps_are_not_converged():
    """A row given fewer Newton steps than it needs stops on the budget
    and is not reported converged; a row that needs no more converges to
    the bits it reaches without a budget."""
    spec = disordered_spec(3, 12, 32, 1e7)
    params = calibrate_sneak_params(spec)
    plan = plan_of(spec)
    every = np.arange(spec.m)
    ref, needed, converged, _ = _solve_rows(spec, params, plan, every)
    assert converged.all() and needed.max() >= 3
    for max_iter in range(1, needed.max()):
        with mock.patch.object(fixedpoint, "MAX_ITER", max_iter):
            v, steps, converged, _ = _solve_rows(spec, params, plan, every)
        assert np.array_equal(steps, np.minimum(needed, max_iter))
        assert np.array_equal(converged, needed <= max_iter)
        assert np.array_equal(v[converged], ref[converged])


def test_readout_stays_within_the_step_budget():
    """A readout whose slowest row needs more Newton steps than the budget
    stops on the budget and is reported unconverged."""
    spec = disordered_spec(3, 12, 32, 1e7)
    params = calibrate_sneak_params(spec)
    needed = parametric_solve(spec, params).iterations
    assert needed >= 3
    for max_iter in range(1, needed):
        with mock.patch.object(fixedpoint, "MAX_ITER", max_iter):
            sol = parametric_solve(spec, params)
        assert sol.iterations == max_iter, f"max_iter {max_iter}"
        assert not sol.converged


def test_fractions_of_stacked_rows_match_single_rows():
    rng = np.random.default_rng(8)
    loads = rng.uniform(0.0, 0.5, size=(5, 7))
    stacked = _ladder_fractions(loads)
    for row, c in zip(stacked, loads):
        assert np.array_equal(row, _ladder_fractions(c))


# --- stacks of arrays -----------------------------------------------------

READOUT_FIELDS = ("v_cell", "i_out", "power", "converged")


def assert_stack_reads_like_each_array(spec, params, max_iter=fixedpoint.MAX_ITER):
    """A stacked readout equals each of its arrays read alone, bit for bit,
    and reports the maxima of their step counts and last steps."""
    with mock.patch.object(fixedpoint, "MAX_ITER", max_iter):
        stacked = parametric_solve(spec, params)
        alone = [parametric_solve(one, params) for one in spec.arrays()]
    for name in READOUT_FIELDS:
        expect = np.array([getattr(sol, name) for sol in alone])
        got = getattr(stacked, name)
        assert got.shape == expect.shape and got.dtype == expect.dtype, name
        assert np.array_equal(got, expect), name
    assert stacked.iterations == max(sol.iterations for sol in alone)
    assert stacked.residual == max(sol.residual for sol in alone)
    return stacked


@st.composite
def stacks(draw):
    """A stack of 1-4 arrays up to 6x6 on the shipped tables: random bits
    and offsets, an interconnect from light to sneak-heavy, and a step
    budget that may cut some rows off."""
    b, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    bits = draw(hnp.arrays(np.int8, (b, m, n), elements=st.integers(0, 1)))
    delta = draw(hnp.arrays(float, (b, m, n), elements=st.floats(0.0, 0.2)))
    r_int = draw(st.sampled_from([1e4, 1e5, 1e6, 1e7]))
    max_iter = draw(st.sampled_from([1, 2, 3, fixedpoint.MAX_ITER]))
    spec = CrossbarSpec(m=m, n=n, r_int=r_int, bits=bits, pair=shipped_pair(), delta=delta)
    return spec, max_iter


@settings(max_examples=40, deadline=None)
@given(stacks())
def test_stacked_readout_matches_each_array_read_alone(case):
    spec, max_iter = case
    assert_stack_reads_like_each_array(spec, calibrate_sneak_params(spec), max_iter)


def test_step_budget_cuts_off_one_array_of_a_stack_but_not_another():
    """A disordered array needs more Newton steps than an all-zero one at
    the largest offset; with a budget between the two, only the first is
    reported unconverged, and each still gets its own bits."""
    hard = disordered_spec(3, 12, 32, 1e7)
    easy = np.zeros_like(hard.bits)
    spec = CrossbarSpec(
        m=12, n=32, r_int=1e7, pair=hard.pair,
        bits=np.stack([hard.bits, easy]),
        delta=np.stack([hard.delta, np.full(easy.shape, 0.2)]),
    )
    params = calibrate_sneak_params(hard)
    needed = [parametric_solve(one, params).iterations for one in spec.arrays()]
    assert needed[1] < needed[0]
    for max_iter in range(needed[1], needed[0]):
        stacked = assert_stack_reads_like_each_array(spec, params, max_iter)
        assert stacked.converged.tolist() == [False, True]


def test_single_array_reads_as_a_stack_of_one():
    spec = disordered_spec(5, 6, 9, 1e6)
    params = calibrate_sneak_params(spec)
    one = parametric_solve(spec, params)
    stack = parametric_solve(
        CrossbarSpec(m=6, n=9, r_int=1e6, pair=spec.pair, bits=spec.bits[None], delta=spec.delta[None]),
        params,
    )
    assert isinstance(one.power, float) and isinstance(one.converged, bool)
    for name in READOUT_FIELDS:
        assert np.array_equal(getattr(stack, name), np.asarray(getattr(one, name))[None]), name


def test_spec_rejects_bits_outside_zero_one_before_casting():
    """257 would wrap to 1 in the int8 cast."""
    for bits in (np.array([[257]]), np.array([[1, 2]]), np.array([[[0, 1]], [[1, -1]]])):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            CrossbarSpec(m=1, n=bits.shape[-1], r_int=1e4, bits=bits, pair=shipped_pair())


def test_spec_rejects_stacks_of_the_wrong_shape():
    for shape in ((2, 3), (2, 2, 3), (0, 2, 2), (1, 1, 2, 2), (4,)):
        with pytest.raises(ValueError, match="bits shape"):
            CrossbarSpec(m=2, n=2, r_int=1e4, bits=np.zeros(shape), pair=shipped_pair())
    with pytest.raises(ValueError, match="delta shape"):
        CrossbarSpec(m=2, n=2, r_int=1e4, bits=np.zeros((3, 2, 2)), delta=np.zeros((2, 2)),
                     pair=shipped_pair())


def test_oracle_reads_a_stack_array_by_array():
    """The oracle reads a stack's rows on one pool, each array through
    mode operators of its own, which read one array only."""
    arrays = [disordered_spec(seed, 5, 5, 1e6) for seed in (4, 6, 9)]
    stack = CrossbarSpec(m=5, n=5, r_int=1e6, pair=arrays[0].pair,
                         bits=np.stack([a.bits for a in arrays]), delta=np.stack([a.delta for a in arrays]))
    with pytest.raises(ValueError, match="one array at a time"):
        GeometryFactors(stack)
    alone = [kirchhoff_solve(one) for one in arrays]
    reads = [kirchhoff_solve(stack, threads=t) for t in (1, 3)]
    reads.append(array_reader("kirchhoff", arrays[0], 1)(stack))
    for stacked in reads:
        assert stacked.solver == "kirchhoff"
        assert stacked.iterations == max(a.iterations for a in alone)
        assert stacked.residual == max(a.residual for a in alone)
        for b, one in enumerate(alone):
            for name in ("v_cell", "i_out", "power", "converged", "source_current"):
                assert np.array_equal(getattr(stacked, name)[b], getattr(one, name)), name


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
    assert np.allclose(readout_currents(v_cell, params, plan_of(spec)), expect, rtol=1e-12)
    assert np.all(readout_currents(np.zeros((4, 4)), params, plan_of(spec)) == 0.0)


@pytest.fixture
def delta_weightings(monkeypatch):
    """Records every offset-axis weight computation of a table lookup."""
    calls = []
    original = ivtable._axis_weights

    def counting(grid, q, name):
        if name == "delta":
            calls.append(np.size(q))
        return original(grid, q, name)

    monkeypatch.setattr(ivtable, "_axis_weights", counting)
    return calls


def test_readout_weighs_offsets_once_per_table_not_per_sweep(delta_weightings):
    """Offsets do not change within a readout, so their table weights are
    computed once per table, however many Newton steps the readout takes."""
    spec = disordered_spec(3, 16, 16, 1e7)
    params = calibrate_sneak_params(spec)
    delta_weightings.clear()
    sol = parametric_solve(spec, params)
    assert sol.iterations >= 3
    assert len(delta_weightings) <= 2


def test_oracle_weighs_offsets_once_per_table_per_array(delta_weightings):
    spec = disordered_spec(3, 8, 8, 1e7)
    delta_weightings.clear()
    sol = kirchhoff_solve(spec)
    assert sol.iterations >= 2
    assert len(delta_weightings) <= 2


def test_readout_currents_scale_with_beta():
    spec = homogeneous_spec(3, 3, 1e4, linear_pair(1e6, 1e6))
    beta = np.array([0.5, 0.75, 1.0])
    params = SneakParams(alpha=np.ones(3), beta=beta)
    v_cell = np.full((3, 3), 0.4)
    currents = readout_currents(v_cell, params, plan_of(spec))
    assert np.allclose(currents, (0.4 / 1e6) * beta[None, :], rtol=1e-12)


def test_compute_power_prefers_reported_source_current():
    """from_rows sums the source current when a solver reports one and the
    column currents when it does not, over every row activation."""
    spec = homogeneous_spec(2, 2, 1e4, linear_pair(1e6, 1e6))
    rows = dict(v_cell=np.zeros((2, 2)), i_out=np.full((2, 2), 1e-6), steps=[1, 1],
                converged=[True, True], size=[0.0, 0.0])
    with_source = ReadoutSolution.from_rows(spec, "test", **rows, source_current=[3e-6, 5e-6])
    assert with_source.power == pytest.approx(spec.v_in * 8e-6, rel=1e-12)
    without = ReadoutSolution.from_rows(spec, "test", **rows)
    assert without.power == pytest.approx(spec.v_in * 4e-6, rel=1e-12)


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
