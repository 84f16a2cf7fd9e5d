"""Top-level acceptance checks, one test per promised behavior.

Each test pins its tolerances and runs against analytic closed forms,
conservation laws, exhaustive brute force, or sign-level trend checks.
These are intentionally end-to-end: they exercise the public API the way
a study script would.
"""

import time
from functools import partial

import numpy as np
import pytest

import xbar.cli as cli
from xbar import runio
from xbar import transport as tp
from xbar.crossbar import calibrate_sneak_params, parametric_solve
from xbar.defaults import shipped_pair
from xbar.ivtable import StrandPair, save_table
from xbar.model import CrossbarSpec, save_crossbar_spec
from xbar.montecarlo import McConfig, optimal_threshold, run_mc
from xbar.nodal import kirchhoff_row_solve, kirchhoff_solve
from xbar.runio import RunManifest
from xbar.storage import ImageJob, StoreConfig, run_storage_benchmark
from xbar.transport import BiasPoint, ContactProbeConfig, QuantumSystem, TransmissionSpectrum

import factories
from factories import brute_force_ber, linear_table
from mesh_walk import edge_walk

knee_pair = partial(factories.knee_pair, ids=("acc1", "acc0"))


def random_bits(seed, m, n):
    return np.random.default_rng(seed).integers(0, 2, size=(m, n)).astype(np.int8)


# --- transport anchors ------------------------------------------------------


def test_c01_single_level_transmission_matches_lorentzian():
    eps = -5.2
    system = QuantumSystem([[eps]], [[1.0]], [1], homo_energy=eps)
    config = ContactProbeConfig(gamma_contact=1.0, gamma_probe=0.0)
    h_b = tp.orthogonal_block_hamiltonian(system)
    energies = np.linspace(eps - 1.0, eps + 1.0, 2001)

    start = time.perf_counter()
    spectrum = tp.transmission_spectrum(h_b, system.partition, config, energies)
    elapsed = time.perf_counter() - start

    # gamma_l = gamma_r = 1 eV: T = 1 / ((E - eps)^2 + 1)
    lorentzian = 1.0 / ((energies - eps) ** 2 + 1.0)
    rel = np.abs(spectrum.t_eff - lorentzian) / lorentzian
    assert rel.max() <= 1e-6
    assert elapsed < 1.0


def test_c02_unit_transmission_gives_quantized_current():
    mu = -5.2
    v_bias = 1e-3
    energies = np.linspace(mu - 3e-4, mu + v_bias + 3e-4, 4001)
    ones = np.ones_like(energies)
    spectrum = TransmissionSpectrum(energies=energies, t_eff=ones, t_coherent=ones)
    current = tp.landauer_current(spectrum, BiasPoint(v_bias, mu, temperature=0.1))
    assert abs(current) == pytest.approx(77.48e-9, rel=1e-3)


def test_c03_probe_currents_conserve_and_vanishing_coupling_is_coherent():
    rng = np.random.default_rng(2024)
    n_blocks, block = 7, 2
    n_orb = n_blocks * block
    raw = rng.normal(scale=0.2, size=(n_orb, n_orb))
    fock = 0.5 * (raw + raw.T) + np.diag(-5.2 + 0.3 * rng.normal(size=n_orb))
    system = QuantumSystem(fock, np.eye(n_orb), [block] * n_blocks, homo_energy=-5.2)
    config = ContactProbeConfig(gamma_contact=1.0, gamma_probe=0.010)
    h_b = tp.orthogonal_block_hamiltonian(system)
    energies = np.linspace(-6.2, -4.2, 101)

    for energy in energies:
        g_r = tp.retarded_green(energy, h_b, system.partition, config)
        t = tp.probe_transmissions(g_r, system.partition, config)
        pots = np.concatenate([[1.0, 0.0], tp.probe_occupancies(t)])
        flows = t * (pots[:, None] - pots[None, :])
        net = flows.sum(axis=1)
        contact_inflow = max(abs(net[0]), abs(net[1]))
        assert np.abs(net[2:]).max() <= 1e-10 * contact_inflow
        assert tp.effective_transmission(t) >= 0.0

    # with probes switched off the effective and coherent curves coincide
    silent = ContactProbeConfig(gamma_contact=1.0, gamma_probe=0.0)
    spectrum = tp.transmission_spectrum(h_b, system.partition, silent, energies)
    np.testing.assert_array_equal(spectrum.t_eff, spectrum.t_coherent)


def test_c04_seven_block_ramp_shifts_are_exact():
    expected = np.array([0.0, 0.40, 0.45, 0.50, 0.55, 0.60, 1.0])
    np.testing.assert_allclose(tp.ramp_fractions(7), expected, rtol=0.0, atol=1e-15)
    ramped = tp.apply_bias_ramp(np.zeros((7, 7)), 1.0, (1,) * 7)
    np.testing.assert_allclose(np.diag(ramped), expected, rtol=0.0, atol=1e-15)


# --- circuit oracle ---------------------------------------------------------


def test_c05_nodal_oracle_satisfies_circuit_laws():
    # single cell: plain series divider, exact to nine digits
    pair = StrandPair(
        logic0_table=linear_table(1e6, "eq0"), logic1_table=linear_table(1e6, "eq1")
    )
    spec = CrossbarSpec(m=1, n=1, r_int=1e4, bits=[[1]], pair=pair)
    sol = kirchhoff_solve(spec)
    assert sol.i_out[0, 0] == pytest.approx(1.0 / 1.02e6, rel=1e-9)
    assert sol.power == pytest.approx(1.0 / 1.02e6, rel=1e-9)

    # random-bit arrays: every node balances, dissipation matches the source
    nonlinear = knee_pair()
    for seed, m in ((11, 8), (12, 64)):
        spec = CrossbarSpec(
            m=m, n=m, r_int=1e5, bits=random_bits(seed, m, m), pair=nonlinear
        )
        row = kirchhoff_row_solve(spec, active_row=m // 3)
        assert row.converged
        worst, dissipated, _ = edge_walk(spec, row)
        source_power = spec.v_in * row.source_current
        assert worst <= 1e-9 * row.source_current
        assert np.sum(row.i_out) == pytest.approx(row.source_current, rel=1e-9)
        assert dissipated == pytest.approx(source_power, rel=1e-6)


def test_c06_parametric_model_tracks_oracle_within_five_percent():
    pair = knee_pair()
    for m in (64, 128):
        bits = np.ones((m, m), dtype=np.int8)
        for r_int in (1e4, 1e5, 1e6):
            spec = CrossbarSpec(m=m, n=m, r_int=r_int, bits=bits, pair=pair)

            start = time.perf_counter()
            oracle = kirchhoff_solve(spec, threads=1)
            oracle_elapsed = time.perf_counter() - start
            assert oracle.converged
            assert oracle_elapsed <= 60.0, (
                f"oracle {m}x{m} at r_int {r_int:.0e}: {oracle_elapsed:.1f} s"
            )

            start = time.perf_counter()
            params = calibrate_sneak_params(spec)
            model = parametric_solve(spec, params)
            model_elapsed = time.perf_counter() - start
            assert model.converged
            assert model_elapsed <= 60.0, (
                f"model {m}x{m} at r_int {r_int:.0e}: {model_elapsed:.1f} s"
            )

            mean_err = float(np.mean(np.abs(model.i_out - oracle.i_out) / oracle.i_out))
            assert mean_err <= 0.05, f"{m}x{m} at {r_int:.0e}: {mean_err:.4f}"


# --- storage and error-rate behavior -----------------------------------------


def test_c07_image_round_trip_exact_at_low_interconnect():
    rng = np.random.default_rng(77)
    payload = bytes(rng.integers(0, 256, size=49152, dtype=np.uint8))
    report = run_storage_benchmark(
        StoreConfig(
            jobs=[ImageJob(source=payload, name="noise")],
            r_ints=[1e4],
            sizes=[(64, 64), (128, 128)],
            pair=shipped_pair(),
        )
    )
    assert len(report.per_tile) >= 100
    assert report.failures == 0
    for record in report.per_tile:
        assert record.ber == 0.0, f"tile {record.tile_id} misread"


def test_c08_error_rate_trends_with_interconnect_and_disorder():
    pair = shipped_pair()
    means = {}
    v_means = {}
    for r_int in (1e5, 1e6):
        for delta_max in (0.1, 0.2):
            config = McConfig(
                m=128,
                n=128,
                r_int=r_int,
                pair=pair,
                delta_max=delta_max,
                seed=2026,
                trials=100,
            )
            report = run_mc(config)
            assert not report.failed_trials
            means[r_int, delta_max] = report.ber_mean
            v_means[r_int, delta_max] = float(np.nanmean(report.v_mean_samples))

    for delta_max in (0.1, 0.2):
        assert means[1e6, delta_max] > means[1e5, delta_max]
    for r_int in (1e5, 1e6):
        assert means[r_int, 0.2] >= means[r_int, 0.1]
        assert v_means[r_int, 0.2] > v_means[r_int, 0.1]


def test_c09_bit_load_error_hump_peaks_near_sixty_percent():
    pair = shipped_pair()
    m = n = 128
    cells = m * n
    probe = CrossbarSpec(
        m=m, n=n, r_int=1e6, bits=np.zeros((m, n), dtype=np.int8), pair=pair
    )
    params = calibrate_sneak_params(probe)
    rng = np.random.default_rng(7)

    loads = list(range(10, 100, 10))
    medians = []
    for load in loads:
        bers = []
        for _ in range(6):
            flat = np.zeros(cells, dtype=np.int8)
            flat[: round(cells * load / 100.0)] = 1
            bits = rng.permutation(flat).reshape(m, n)
            spec = CrossbarSpec(m=m, n=n, r_int=1e6, bits=bits, pair=pair)
            sol = parametric_solve(spec, params)
            assert sol.converged
            cut = optimal_threshold(sol.i_out.ravel(), bits.ravel())
            bers.append(cut.ber)
        medians.append(float(np.median(bers)))

    peak_load = loads[int(np.argmax(medians))]
    assert max(medians) > 0.0
    assert 50 <= peak_load <= 70, f"peak at {peak_load}%: {medians}"


def test_c10_read_power_falls_with_interconnect_and_rises_with_size():
    pair = shipped_pair()
    power = {}
    for m in (64, 128):
        for r_int in (1e4, 1e5, 1e6):
            probe = CrossbarSpec(
                m=m, n=m, r_int=r_int, bits=np.zeros((m, m), dtype=np.int8), pair=pair
            )
            params = calibrate_sneak_params(probe)
            samples = []
            for k in range(4):
                spec = CrossbarSpec(
                    m=m, n=m, r_int=r_int, bits=random_bits(300 + k, m, m), pair=pair
                )
                sol = parametric_solve(spec, params)
                assert sol.converged
                samples.append(sol.power)
            power[m, r_int] = float(np.mean(samples))

    for m in (64, 128):
        assert power[m, 1e4] > power[m, 1e5] > power[m, 1e6]
    for r_int in (1e4, 1e5, 1e6):
        assert power[128, r_int] > power[64, r_int]


# --- search and reproducibility ------------------------------------------------


def test_c11_threshold_search_matches_exhaustive_brute_force():
    rng = np.random.default_rng(1111)
    for trial in range(1000):
        size = int(rng.integers(1, 65))
        if trial % 2 == 0:
            currents = rng.choice(np.linspace(0.0, 3.0, 7), size=size)
        else:
            currents = rng.uniform(0.0, 1.0, size=size)
        labels = rng.integers(0, 2, size=size)
        cut = optimal_threshold(currents, labels)
        assert cut.ber == brute_force_ber(currents, labels)


def test_c12_identical_manifests_reproduce_outputs_bit_for_bit(tmp_path):
    save_table(linear_table(1e6, "lin1"), tmp_path / "t1.json")
    save_table(linear_table(1e8, "lin0"), tmp_path / "t0.json")
    pair = StrandPair(
        logic0_table=linear_table(1e8, "lin0"), logic1_table=linear_table(1e6, "lin1")
    )
    spec = CrossbarSpec(m=4, n=4, r_int=1e5, bits=random_bits(1, 4, 4), pair=pair)
    save_crossbar_spec(spec, tmp_path / "spec.json", "t1.json", "t0.json")
    runio.dump_json(
        {
            "m": 8,
            "n": 8,
            "r_int_ohm": 1e5,
            "delta_max_ev": 0.2,
            "seed": 5,
            "trials": 4,
            "logic1_table": "t1.json",
            "logic0_table": "t0.json",
        },
        tmp_path / "mc.json",
    )
    rng = np.random.default_rng(8)
    (tmp_path / "img.bin").write_bytes(bytes(rng.integers(0, 256, 64, dtype=np.uint8)))
    runio.dump_json(
        {
            "images": [{"path": "img.bin", "name": "img"}],
            "sizes": [[8, 8]],
            "r_int_ohm": [1e4, 1e5],
            "logic1_table": "t1.json",
            "logic0_table": "t0.json",
        },
        tmp_path / "store.json",
    )

    commands = {
        "solve": ["solve", "--config", str(tmp_path / "spec.json")],
        "mc": ["mc", "--config", str(tmp_path / "mc.json")],
        "store": ["store", "--config", str(tmp_path / "store.json")],
    }
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        first = RunManifest.from_file(out_a / runio.MANIFEST_NAME)
        second = RunManifest.from_file(out_b / runio.MANIFEST_NAME)
        assert first.same_inputs(second)
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for file_name in files_a:
            if file_name == runio.MANIFEST_NAME:
                continue  # carries the timestamp
            assert (out_a / file_name).read_bytes() == (out_b / file_name).read_bytes(), (
                f"{name}: {file_name} differs between reruns"
            )
