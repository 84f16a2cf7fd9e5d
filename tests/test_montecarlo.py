"""Monte Carlo machinery tests: stream determinism, threshold search
against brute force, and campaign-level reproducibility."""

import numpy as np
import pytest

from xbar import crossbar, montecarlo
from xbar.ivtable import StrandPair, save_table, synthesize_table
from xbar.montecarlo import (
    McConfig,
    load_mc_config,
    optimal_threshold,
    run_mc,
    sample_bits,
    save_mc_report,
    sample_deltas,
)

from factories import brute_force_ber, separable_pair


def lossy_pair():
    # conductive enough that a megaohm interconnect garbles far cells
    t1 = synthesize_table(3e7, 6e8, delta_sensitivity=8.0, strand_id="lossy1")
    t0 = synthesize_table(3.6e8, 7.2e9, delta_sensitivity=8.0, strand_id="lossy0")
    return StrandPair(logic0_table=t0, logic1_table=t1)


def small_config(**overrides):
    base = dict(
        m=8,
        n=8,
        r_int=1e4,
        pair=separable_pair(),
        delta_max=0.1,
        seed=99,
        trials=4,
    )
    base.update(overrides)
    return McConfig(**base)


# --- sampling -------------------------------------------------------------


def test_sample_deltas_zero_width_gives_zero_matrix():
    config = small_config(delta_max=0.0)
    assert np.all(sample_deltas(config, 0) == 0.0)


def test_sample_deltas_repeatable_and_trial_dependent():
    config = small_config()
    first = sample_deltas(config, 3)
    again = sample_deltas(config, 3)
    other = sample_deltas(config, 4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert first.min() >= 0.0 and first.max() <= config.delta_max


def test_sample_deltas_shared_mode_is_constant_per_trial():
    config = small_config(per_cell=False)
    draw = sample_deltas(config, 7)
    assert np.all(draw == draw[0, 0])
    assert 0.0 <= draw[0, 0] <= config.delta_max


def test_sample_deltas_mean_matches_uniform_statistics():
    config = small_config(m=1000, n=1000, delta_max=0.2)
    draws = sample_deltas(config, 0)
    sigma = 0.2 / np.sqrt(12.0) / np.sqrt(draws.size)
    assert abs(draws.mean() - 0.1) < 3.0 * sigma


def test_sample_bits_probability_extremes_and_determinism():
    assert np.all(sample_bits(small_config(p_one=1.0), 0) == 1)
    assert np.all(sample_bits(small_config(p_one=0.0), 0) == 0)
    config = small_config(p_one=0.5)
    assert np.array_equal(sample_bits(config, 5), sample_bits(config, 5))
    assert not np.array_equal(sample_bits(config, 5), sample_bits(config, 6))


def test_bit_and_delta_streams_are_independent():
    # same trial index must not feed both draws from one stream
    config = small_config(p_one=0.5, delta_max=0.2)
    bits = sample_bits(config, 2)
    deltas = sample_deltas(config, 2)
    flat = deltas.ravel()[bits.ravel() == 1]
    assert flat.size > 0 and not np.allclose(flat, flat[0])


# --- threshold search -----------------------------------------------------


def test_threshold_separable_classes():
    cut = optimal_threshold([1e-9, 2e-9, 3e-9, 10e-9, 11e-9], [0, 0, 0, 1, 1])
    assert cut.ber == 0.0
    assert 3e-9 < cut.threshold < 10e-9
    assert cut.polarity == 1
    assert not cut.single_class


def test_threshold_identical_multisets_gives_half():
    cut = optimal_threshold([1.0, 2.0, 1.0, 2.0], [0, 0, 1, 1])
    assert cut.ber == 0.5


def test_threshold_interleaved_quarter_error():
    cut = optimal_threshold([1.0, 5.0, 3.0, 7.0], [0, 0, 1, 1])
    assert cut.ber == 0.25


def test_threshold_single_class_sentinels():
    high = optimal_threshold([1.0, 2.0], [1, 1])
    assert high.single_class and high.ber == 0.0 and high.threshold == -np.inf
    low = optimal_threshold([1.0, 2.0], [0, 0])
    assert low.single_class and low.ber == 0.0 and low.threshold == np.inf


def test_threshold_picks_inverted_polarity_when_ones_run_low():
    cut = optimal_threshold([1.0, 2.0, 8.0, 9.0], [1, 1, 0, 0])
    assert cut.ber == 0.0
    assert cut.polarity == -1


def test_threshold_result_is_self_consistent():
    rng = np.random.default_rng(17)
    for _ in range(50):
        size = rng.integers(2, 40)
        currents = rng.choice([1.0, 2.0, 3.0, 5.0, 8.0], size=size)
        labels = rng.integers(0, 2, size=size)
        cut = optimal_threshold(currents, labels)
        if cut.single_class:
            continue
        reads_one = (currents > cut.threshold) == (cut.polarity == 1)
        assert np.mean(reads_one != (labels == 1)) == cut.ber


def test_threshold_matches_brute_force_on_random_pools():
    rng = np.random.default_rng(23)
    for _ in range(300):
        size = int(rng.integers(2, 65))
        # coarse value set forces heavy ties, the hard case for cut search
        currents = rng.choice(np.linspace(0.0, 4.0, 9), size=size)
        labels = rng.integers(0, 2, size=size)
        cut = optimal_threshold(currents, labels)
        assert cut.ber == brute_force_ber(currents, labels)


def test_threshold_rejects_bad_input():
    with pytest.raises(ValueError):
        optimal_threshold([1.0, 2.0], [0])
    with pytest.raises(ValueError):
        optimal_threshold([], [])


# --- campaigns ------------------------------------------------------------


def test_run_mc_separable_array_reads_clean():
    report = run_mc(small_config(trials=1, delta_max=0.0))
    assert report.ber_mean == 0.0
    assert report.failed_trials == ()
    assert report.ber_samples.shape == (1,)


def test_run_mc_reports_are_reproducible_and_thread_invariant():
    config = small_config(trials=6, pair=lossy_pair(), r_int=1e6, delta_max=0.2)
    a = run_mc(config, threads=1)
    b = run_mc(config, threads=1)
    c = run_mc(config, threads=3)
    for other in (b, c):
        assert np.array_equal(a.ber_samples, other.ber_samples)
        assert np.array_equal(a.threshold_samples, other.threshold_samples)
        assert np.array_equal(a.v_mean_samples, other.v_mean_samples)
        assert np.array_equal(a.hist_counts0, other.hist_counts0)
        assert np.array_equal(a.hist_counts1, other.hist_counts1)


def saved_mc_files(config, threads, tmp_path, name):
    out = tmp_path / name
    save_mc_report(run_mc(config, threads=threads), out)
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize(
    "config",
    [
        # 10 trials of 40x40 to a default stack: stacks of 10 and 3
        small_config(m=40, n=40, trials=13, pair=lossy_pair(), r_int=1e6, delta_max=0.2),
        small_config(m=4, n=5, trials=5, pair=lossy_pair(), r_int=1e6, solver="kirchhoff"),
    ],
    ids=["parametric", "kirchhoff"],
)
def test_run_mc_reports_do_not_depend_on_stacking_or_threads(config, tmp_path, monkeypatch):
    """Each trial keeps its own streams, threshold and counts whatever stack
    it is read in: one trial per stack, the default stacks and the whole
    campaign in one stack write the same bytes, on one thread or three."""
    reference = saved_mc_files(config, 1, tmp_path, "reference")
    for cells in (1, crossbar.STACK_CELLS, 2**20):
        monkeypatch.setattr(crossbar, "STACK_CELLS", cells)
        for threads in (1, 3):
            assert saved_mc_files(config, threads, tmp_path, f"{cells}-{threads}") == reference


def test_run_mc_ber_never_exceeds_half_and_histograms_account_all_cells():
    config = small_config(m=16, n=16, trials=8, pair=lossy_pair(), r_int=1e6, delta_max=0.2)
    report = run_mc(config, threads=2)
    assert np.all(report.ber_samples <= 0.5)
    assert np.any(report.ber_samples > 0.0)  # this regime must show errors
    total = report.hist_counts0.sum() + report.hist_counts1.sum()
    assert total == 8 * 16 * 16
    assert np.isfinite(report.mean_cell_voltage)


def test_mc_config_validation():
    with pytest.raises(ValueError, match="delta_max"):
        small_config(delta_max=0.5)  # tables stop at 0.2
    with pytest.raises(ValueError, match="solver"):
        small_config(solver="exact")
    with pytest.raises(ValueError, match="p_one"):
        small_config(p_one=1.5)
    with pytest.raises(ValueError, match="trial"):
        small_config(trials=0)


def test_mc_config_roundtrip_through_json(tmp_path):
    pair = separable_pair()
    save_table(pair.logic1_table, tmp_path / "t1.json")
    save_table(pair.logic0_table, tmp_path / "t0.json")
    from xbar import runio

    runio.dump_json(
        {
            "m": 4,
            "n": 6,
            "r_int_ohm": 2e4,
            "delta_max_ev": 0.15,
            "seed": 7,
            "trials": 11,
            "p_one": 0.25,
            "logic1_table": "t1.json",
            "logic0_table": "t0.json",
        },
        tmp_path / "mc.json",
    )
    config = load_mc_config(tmp_path / "mc.json")
    assert (config.m, config.n) == (4, 6)
    assert config.r_int == 2e4
    assert config.delta_max == 0.15
    assert config.trials == 11
    assert config.p_one == 0.25
    assert config.solver == "parametric"
    assert config.pair.logic1_table.strand_id == "lin1"


def test_mc_config_missing_field_is_named(tmp_path):
    from xbar import runio

    runio.dump_json({"m": 4, "n": 4}, tmp_path / "bad.json")
    with pytest.raises(ValueError, match="logic1_table"):
        load_mc_config(tmp_path / "bad.json")


def test_unconverged_trials_keep_nan_slots_and_leave_the_aggregates(monkeypatch):
    """Trials whose array did not converge keep a NaN slot and are listed;
    the mean BER, the mean cell voltage and the histograms cover the rest,
    which read exactly as in a campaign where every trial converged."""
    config = small_config(pair=lossy_pair(), r_int=1e7, delta_max=0.2, trials=6)
    clean = run_mc(config)
    failed = (1, 4)
    failed_bits = [sample_bits(config, t) for t in failed]
    real_reader = montecarlo.array_reader

    def reader(solver, spec, threads):
        read = real_reader(solver, spec, threads)

        def read_marked(stack):
            sol = read(stack)
            for b, bits in enumerate(stack.bits):
                if any(np.array_equal(bits, f) for f in failed_bits):
                    sol.converged[b] = False
            return sol

        return read_marked

    monkeypatch.setattr(montecarlo, "array_reader", reader)
    report = run_mc(config)
    kept = [t for t in range(config.trials) if t not in failed]
    assert report.failed_trials == failed
    for samples in (report.ber_samples, report.threshold_samples, report.v_mean_samples):
        assert np.all(np.isnan(samples[list(failed)]))
    np.testing.assert_array_equal(report.ber_samples[kept], clean.ber_samples[kept])
    assert len(set(clean.ber_samples)) > 1  # the failed trials move the mean
    assert report.ber_mean == np.mean(clean.ber_samples[kept])
    assert report.mean_cell_voltage == np.mean(clean.v_mean_samples[kept])
    counted = report.hist_counts0.sum() + report.hist_counts1.sum()
    assert counted == len(kept) * config.m * config.n
