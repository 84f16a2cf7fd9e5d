"""Transport-layer tests: orthogonalization, bias ramp,
Green's function, probe bookkeeping, and current integration.

Oracles are independent of the implementation: generalized/dense
eigensolvers, explicit matrix products for transmissions, closed one-level
formulas, and refined-grid quadrature.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import constants
from scipy.integrate import trapezoid
from scipy.linalg import eigh as generalized_eigh

from xbar import transport as tp
from xbar.transport import (
    BiasPoint,
    ContactProbeConfig,
    QuantumSystem,
    TransmissionSpectrum,
)


def random_symmetric(n, seed, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * scale
    a = 0.5 * (a + a.T)
    a[np.arange(n), np.arange(n)] += shift
    return a


def seven_block_system(seed=11):
    return tp.tight_binding_chain(
        7, block_size=2, onsite=-5.2, intra_hop=0.25, inter_hop=0.12,
        onsite_jitter=0.3, seed=seed,
    )


def one_level_hamiltonian(eps=-5.2):
    return np.array([[eps]])


ONE_SITE = [1]
ONE_SITE_CONFIG = ContactProbeConfig(gamma_contact=1.0, gamma_probe=0.0)

IV_PINS = Path(__file__).parent / "data" / "iv_sweep_pins.json"


# ---------------------------------------------------------------- lowdin


def test_lowdin_identity_overlap_is_noop():
    f = random_symmetric(5, seed=0, shift=-5.0)
    h_a = tp.lowdin_orthogonalize(f, np.eye(5))
    np.testing.assert_allclose(h_a, f, atol=1e-13)


def test_lowdin_spectrum_matches_generalized_eigensolver():
    f = np.array([[-5.0, -1.0], [-1.0, -5.0]])
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    h_a = tp.lowdin_orthogonalize(f, s)
    np.testing.assert_allclose(h_a, h_a.T, atol=1e-14)
    ours = np.linalg.eigvalsh(h_a)
    oracle = generalized_eigh(f, s, eigvals_only=True)
    np.testing.assert_allclose(ours, oracle, atol=1e-10)


def test_lowdin_spectrum_matches_on_random_system():
    rng = np.random.default_rng(3)
    f = random_symmetric(8, seed=4, shift=-4.0)
    b = rng.normal(size=(8, 8))
    s = np.eye(8) + 0.05 * (b + b.T)
    h_a = tp.lowdin_orthogonalize(f, s)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(h_a), generalized_eigh(f, s, eigvals_only=True), atol=1e-10
    )


def test_lowdin_rejects_indefinite_overlap():
    s = np.diag([1.0, -0.1])
    with pytest.raises(ValueError, match="positive definite"):
        tp.lowdin_orthogonalize(np.eye(2) * -5.0, s)


# ------------------------------------------------------------- bias ramp


def test_ramp_fractions_seven_blocks_exact():
    np.testing.assert_allclose(
        tp.ramp_fractions(7),
        [0.0, 0.40, 0.45, 0.50, 0.55, 0.60, 1.0],
        rtol=0.0,
        atol=1e-15,
    )


def test_ramp_fractions_degenerate_chains():
    np.testing.assert_allclose(tp.ramp_fractions(2), [0.0, 1.0], atol=0.0)
    np.testing.assert_allclose(tp.ramp_fractions(3), [0.0, 0.5, 1.0], atol=0.0)
    np.testing.assert_allclose(tp.ramp_fractions(1), [0.5], atol=0.0)


def test_apply_bias_ramp_shifts_only_diagonal():
    h = random_symmetric(7, seed=5, shift=-5.0)
    part = [2, 3, 2]
    out = tp.apply_bias_ramp(h, 0.8, part)
    shifts = np.repeat(tp.ramp_fractions(3) * 0.8, part)
    np.testing.assert_allclose(np.diag(out), np.diag(h) + shifts, atol=1e-15)
    mask = ~np.eye(7, dtype=bool)
    np.testing.assert_array_equal(out[mask], h[mask])


def test_apply_bias_ramp_zero_bias_is_identity():
    h = random_symmetric(4, seed=6)
    np.testing.assert_array_equal(tp.apply_bias_ramp(h, 0.0, [2, 2]), h)


# ------------------------------------------------------- Green's function


def test_retarded_green_one_level_resonant():
    g = tp.retarded_green(-5.2, one_level_hamiltonian(), ONE_SITE, ONE_SITE_CONFIG)
    np.testing.assert_allclose(g, [[-1.0j]], atol=1e-14)


def test_retarded_green_one_level_off_resonance():
    g = tp.retarded_green(-4.2, one_level_hamiltonian(), ONE_SITE, ONE_SITE_CONFIG)
    np.testing.assert_allclose(g, [[0.5 - 0.5j]], atol=1e-14)


def test_retarded_green_residual_on_seven_block_system():
    system = seven_block_system()
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig()
    gvec = tp.broadening_vector(system.partition, config)
    for energy in (-5.6, -5.2, -4.9):
        g = tp.retarded_green(energy, h_b, system.partition, config)
        m = np.diag(energy + 0.5j * gvec) - h_b
        residual = np.linalg.norm(m @ g - np.eye(h_b.shape[0]))
        assert residual <= 1e-10


def direct_green(energy, h_b, partition, config):
    """Oracle: one LU solve of E - H - Sigma against the identity."""
    gvec = tp.broadening_vector(partition, config)
    m = np.diag(energy + 0.5j * gvec) - h_b
    return np.linalg.solve(m, np.eye(h_b.shape[0]))


@st.composite
def random_chains(draw):
    """Chains of 1-7 blocks of 1-4 orbitals each, every bond its own hop,
    seeded onsite jitter and an optional overlap on the bonds."""
    partition = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    n_orb = sum(partition)
    hops = draw(st.lists(st.floats(0.05, 0.6), min_size=n_orb - 1, max_size=n_orb - 1))
    jitter = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fock = np.diag(-5.2 + rng.uniform(-jitter, jitter, n_orb))
    overlap = np.eye(n_orb)
    s_bond = draw(st.floats(0.0, 0.1))
    for a, hop in enumerate(hops):
        fock[a, a + 1] = fock[a + 1, a] = hop
        overlap[a, a + 1] = overlap[a + 1, a] = s_bond
    return QuantumSystem(fock, overlap, partition, -5.2)


@settings(max_examples=60, deadline=None)
@given(random_chains(), st.sampled_from([0.0, 0.01]), st.floats(-6.2, -4.2))
def test_retarded_green_matches_direct_solve_on_random_chains(system, gamma_probe, energy):
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig(gamma_probe=gamma_probe)
    g = tp.retarded_green(energy, h_b, system.partition, config)
    oracle = direct_green(energy, h_b, system.partition, config)
    assert np.linalg.norm(g - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_retarded_green_near_exceptional_point():
    """A contact site (broadening 1) and a probe site (0.01) coupled by
    hop = (1 - 0.01)/4 sit at an exceptional point of H + Sigma: its two
    eigenvalues meet and their eigenvectors turn parallel (condition number
    ~3e7).  G formed from the eigenvectors then loses digits in proportion,
    so the bound here is 1e-7, not the 1e-10 of well-separated spectra."""
    fock = np.diag([-5.2, -5.2, -5.2])
    fock[0, 1] = fock[1, 0] = 0.2475
    system = QuantumSystem(fock, np.eye(3), [1, 1, 1], -5.2)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig()
    for energy in np.linspace(-5.6, -4.8, 81):
        g = tp.retarded_green(energy, h_b, system.partition, config)
        oracle = direct_green(energy, h_b, system.partition, config)
        assert np.linalg.norm(g - oracle) <= 1e-7 * np.linalg.norm(oracle)


# ---------------------------------------------------- probe transmissions


def test_probe_transmissions_resonant_single_site_is_unity():
    g = tp.retarded_green(-5.2, one_level_hamiltonian(), ONE_SITE, ONE_SITE_CONFIG)
    t = tp.probe_transmissions(g, ONE_SITE, ONE_SITE_CONFIG)
    np.testing.assert_allclose(t, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_probe_transmissions_zero_probe_coupling_decouples_interior():
    system = seven_block_system()
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig(gamma_probe=0.0)
    g = tp.retarded_green(-5.2, h_b, system.partition, config)
    t = tp.probe_transmissions(g, system.partition, config)
    assert np.all(t[2:, :] == 0.0)
    assert np.all(t[:, 2:] == 0.0)
    assert t[0, 1] > 0.0


def test_probe_transmissions_against_matrix_product_oracle():
    # three-block chain, uniform couplings; oracle is Tr[G_k G^r G_l G^a]
    # with explicit full-size broadening matrices
    system = tp.tight_binding_chain(3, block_size=2, intra_hop=0.3, inter_hop=0.15)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig(gamma_contact=1.0, gamma_probe=0.01)
    g = tp.retarded_green(-5.1, h_b, system.partition, config)
    t = tp.probe_transmissions(g, system.partition, config)

    n = h_b.shape[0]
    slices = [slice(0, 2), slice(2, 4), slice(4, 6)]
    gammas_full = []
    for blk, gam in ((0, 1.0), (2, 1.0), (1, 0.01)):  # terminal order L, R, probe
        mat = np.zeros((n, n))
        sl = slices[blk]
        mat[sl, sl] = np.eye(2) * gam
        gammas_full.append(mat)
    g_a = g.conj().T
    for k in range(3):
        for l in range(3):
            if k == l:
                continue
            oracle = np.trace(gammas_full[k] @ g @ gammas_full[l] @ g_a).real
            np.testing.assert_allclose(t[k, l], oracle, rtol=1e-12, atol=1e-16)


def test_probe_transmissions_reciprocity():
    system = seven_block_system(seed=21)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig()
    g = tp.retarded_green(-5.0, h_b, system.partition, config)
    t = tp.probe_transmissions(g, system.partition, config)
    assert np.max(np.abs(t - t.T)) <= 1e-10
    assert np.all(t >= 0.0)


# -------------------------------------------------- effective transmission


def test_effective_transmission_no_probes_equals_direct():
    system = tp.tight_binding_chain(2, block_size=2)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig()
    g = tp.retarded_green(-5.2, h_b, system.partition, config)
    t = tp.probe_transmissions(g, system.partition, config)
    assert t.shape == (2, 2)
    assert tp.effective_transmission(t) == t[0, 1]


def test_effective_transmission_zero_coupling_falls_back_to_direct():
    system = seven_block_system()
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig(gamma_probe=0.0)
    g = tp.retarded_green(-5.2, h_b, system.partition, config)
    t = tp.probe_transmissions(g, system.partition, config)
    assert tp.effective_transmission(t) == t[0, 1]


def probe_net_currents(t):
    """Net current at each probe given its floating occupancy; zero is the
    conservation target."""
    u = np.concatenate([[1.0, 0.0], tp.probe_occupancies(t)])
    n = t.shape[0]
    currents = np.zeros(n - 2)
    for k in range(2, n):
        currents[k - 2] = sum(t[k, l] * (u[k] - u[l]) for l in range(n) if l != k)
    return currents


def test_probe_condition_conserves_current_on_seven_block_grid():
    system = seven_block_system(seed=17)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig(gamma_probe=0.010)
    energies = np.arange(-5.8, -4.6, 0.01)
    for energy in energies:
        g = tp.retarded_green(energy, h_b, system.partition, config)
        t = tp.probe_transmissions(g, system.partition, config)
        t_eff = tp.effective_transmission(t)
        assert t_eff >= 0.0
        inflow = max(t_eff, 1e-300)
        assert np.max(np.abs(probe_net_currents(t))) <= 1e-10 * inflow


def test_effective_transmission_matches_occupancy_route():
    # the solve used for t_eff and the occupancies must describe the same
    # probe state: left-contact outflow computed from u equals t_eff
    system = seven_block_system(seed=29)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig()
    g = tp.retarded_green(-5.15, h_b, system.partition, config)
    t = tp.probe_transmissions(g, system.partition, config)
    u = np.concatenate([[1.0, 0.0], tp.probe_occupancies(t)])
    outflow = sum(t[0, l] * (1.0 - u[l]) for l in range(1, t.shape[0]))
    np.testing.assert_allclose(tp.effective_transmission(t), outflow, rtol=1e-12)


# ------------------------------------------------------- one-level law


def test_one_level_lorentzian_law():
    eps = -5.2
    config = ONE_SITE_CONFIG
    energies = np.linspace(eps - 1.0, eps + 1.0, 2001)  # 2 eV window
    spec = tp.transmission_spectrum(one_level_hamiltonian(eps), ONE_SITE, config, energies)
    gamma_total = 2.0 * config.gamma_contact
    oracle = config.gamma_contact**2 / (
        (energies - eps) ** 2 + (gamma_total / 2.0) ** 2
    )
    np.testing.assert_allclose(spec.t_eff, oracle, rtol=1e-6)
    np.testing.assert_array_equal(spec.t_eff, spec.t_coherent)


# --------------------------------------------------------------- current


def test_physical_constants_equal_scipys_bit_for_bit():
    """The module writes the SI's exact defining values out; they must be
    the very floats scipy.constants gives."""
    assert tp.KB_EV == constants.value("Boltzmann constant in eV/K")
    assert tp.G0_S == 2 * constants.e**2 / constants.h


def test_fermi_occupation_saturates_without_overflow_warnings():
    # far above mu the exponential overflows; pytest turns the warning into an error
    kt = tp.KB_EV * 1.0
    f = tp.fermi_occupation(np.array([-50.0, 0.0, 50.0]), 0.0, kt)
    np.testing.assert_array_equal(f, [1.0, 0.5, 0.0])


def test_landauer_zero_bias_is_exactly_zero():
    energies = np.linspace(-6.0, -4.0, 201)
    spec = TransmissionSpectrum(energies, np.ones_like(energies), np.ones_like(energies))
    assert tp.landauer_current(spec, BiasPoint(0.0, -5.2)) == 0.0


def test_landauer_quantized_conductance_limit():
    # flat unit transmission at 0.1 K and 1 mV: the conductance quantum
    bias = BiasPoint(1e-3, 0.0, temperature=0.1)
    energies = np.linspace(-0.01, 0.011, 2201)
    spec = TransmissionSpectrum(energies, np.ones_like(energies), np.ones_like(energies))
    current = tp.landauer_current(spec, bias)
    expected = tp.G0_S * 1e-3
    assert abs(current - expected) <= 1e-3 * expected
    assert abs(current - 77.48e-9) <= 1e-3 * 77.48e-9


def test_landauer_matches_refined_quadrature_oracle():
    # Lorentzian transmission centered 1 eV below the bias window
    e_fl, v_bias = -5.2, 1.0
    bias = BiasPoint(v_bias, e_fl)
    center, gamma = e_fl - 1.0, 0.1

    def lorentz(e):
        return (gamma / 2) ** 2 / ((e - center) ** 2 + (gamma / 2) ** 2)

    kt = bias.kt
    lo, hi = e_fl - 10 * kt, e_fl + v_bias + 10 * kt
    coarse = np.arange(lo - 2e-3, hi + 2.5e-3, 1e-3)
    spec = TransmissionSpectrum(coarse, lorentz(coarse), lorentz(coarse))
    current = tp.landauer_current(spec, bias)

    fine = np.arange(lo, hi + 5e-6, 1e-5)  # 0.01 meV reference grid
    window = tp.fermi_occupation(fine, bias.e_fermi_right, kt) - tp.fermi_occupation(
        fine, bias.e_fermi_left, kt
    )
    oracle = tp.G0_S * trapezoid(lorentz(fine) * window, fine)
    assert abs(current - oracle) <= 1e-3 * abs(oracle)
    assert current > 0.0  # positive bias drives positive current


def test_landauer_rejects_narrow_window():
    energies = np.linspace(-5.3, -5.0, 31)
    spec = TransmissionSpectrum(energies, np.ones_like(energies), np.ones_like(energies))
    with pytest.raises(ValueError, match="window"):
        tp.landauer_current(spec, BiasPoint(1.0, -5.2))


# ---------------------------------------------------------------- sweeps


def test_iv_sweep_zero_bias_grid_gives_zero_column():
    system = tp.tight_binding_chain(3)
    table = tp.iv_sweep(system, ContactProbeConfig(), [0.0], [0.0, 0.1])
    np.testing.assert_array_equal(table.current, np.zeros((2, 1)))


def test_iv_sweep_single_site_matches_analytic_oracle():
    eps = -5.3
    system = QuantumSystem([[eps]], [[1.0]], [1], homo_energy=eps)
    config = ONE_SITE_CONFIG
    v_grid = np.array([0.0, 0.25, 0.5, 1.0])
    d_grid = np.array([0.0, 0.1, 0.2])
    table = tp.iv_sweep(system, config, v_grid, d_grid)

    kt = tp.KB_EV * 300.0
    gamma_half = config.gamma_contact  # (gamma_L + gamma_R)/2

    for idl, delta in enumerate(d_grid):
        for iv, v in enumerate(v_grid):
            if v == 0.0:
                assert table.current[idl, iv] == 0.0
                continue
            mu_l = eps + delta
            mu_r = mu_l + v
            fine = np.arange(mu_l - 10 * kt, mu_r + 10 * kt + 5e-6, 1e-5)
            level = eps + 0.5 * v  # lone block rides the ramp midpoint
            t_analytic = config.gamma_contact**2 / (
                (fine - level) ** 2 + gamma_half**2
            )
            window = tp.fermi_occupation(fine, mu_r, kt) - tp.fermi_occupation(
                fine, mu_l, kt
            )
            oracle = tp.G0_S * trapezoid(t_analytic * window, fine)
            assert abs(table.current[idl, iv] - oracle) <= 5e-3 * abs(oracle)


def test_iv_sweep_zero_probe_coupling_equals_coherent_only():
    system = tp.tight_binding_chain(4, intra_hop=0.0, inter_hop=0.2)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig(gamma_probe=0.0)
    energies = np.arange(-5.6, -4.8, 0.005)
    spec = tp.transmission_spectrum(h_b, system.partition, config, energies)
    np.testing.assert_array_equal(spec.t_eff, spec.t_coherent)


def test_transmission_peak_shifts_with_positive_bias():
    system = tp.tight_binding_chain(5, inter_hop=0.15)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig()
    energies = np.arange(-6.0, -4.4, 0.002)

    def peak(v):
        biased = tp.apply_bias_ramp(h_b, v, system.partition)
        spec = tp.transmission_spectrum(biased, system.partition, config, energies)
        return energies[np.argmax(spec.t_eff)]

    assert peak(0.4) > peak(0.0) > peak(-0.4)


def test_iv_sweep_thread_count_does_not_change_results():
    system = seven_block_system(seed=39)
    config = ContactProbeConfig()
    v_grid, d_grid = [-0.3, 0.0, 0.2, 0.5], [0.0, 0.1]
    serial = tp.iv_sweep(system, config, v_grid, d_grid, threads=1)
    pooled = tp.iv_sweep(system, config, v_grid, d_grid, threads=2)
    np.testing.assert_array_equal(serial.current, pooled.current)


def test_iv_sweep_lowest_delta_reads_its_own_window_grid():
    """The shared spectrum's grid starts where the lowest delta's own
    window grid starts, so that row is bit-equal to integrating a spectrum
    evaluated on the window of each point alone."""
    system = seven_block_system(seed=31)
    config = ContactProbeConfig()
    v_grid, d_grid = [-0.4, 0.0, 0.3], [0.05, 0.15]
    table = tp.iv_sweep(system, config, v_grid, d_grid)
    h_b = tp.orthogonal_block_hamiltonian(system)
    kt = tp.KB_EV * 300.0
    for iv, v in enumerate(v_grid):
        if v == 0.0:
            continue
        bias = BiasPoint(v, system.homo_energy + d_grid[0])
        lo = min(bias.e_fermi_left, bias.e_fermi_right) - 10.0 * kt
        hi = max(bias.e_fermi_left, bias.e_fermi_right) + 10.0 * kt
        energies = np.arange(lo - 2e-3, hi + 2.5e-3, 1e-3)
        ramped = tp.apply_bias_ramp(h_b, v, system.partition)
        spec = tp.transmission_spectrum(ramped, system.partition, config, energies)
        assert table.current[0, iv] == tp.landauer_current(spec, bias)


def pinned_chain(n_blocks, block_size, onsite, intra_hop, inter_hop, jitter, seed):
    """Nearest-neighbour chain with seeded onsite disorder, identity overlap."""
    rng = np.random.default_rng(seed)
    n_orb = n_blocks * block_size
    fock = np.diag(onsite + rng.uniform(-jitter, jitter, size=n_orb))
    for a in range(n_orb - 1):
        hop = inter_hop if (a + 1) % block_size == 0 else intra_hop
        fock[a, a + 1] = fock[a + 1, a] = hop
    return QuantumSystem(fock, np.eye(n_orb), [block_size] * n_blocks, onsite)


@pytest.mark.parametrize(
    "case", json.loads(IV_PINS.read_text()), ids=lambda case: case["name"]
)
def test_iv_sweep_reproduces_pinned_tables(case):
    """Tables written by the sweep that integrated every (bias, delta) point
    on its own energy grid, before one spectrum per bias was shared.

    With delta steps on the 1 meV energy grid every delta reads its
    energies at the old points up to np.arange round-off (rtol 1e-12).
    On the sharp, probe-less resonances of a strongly disordered chain
    that round-off is amplified: moving the old anchor by one ulp moves
    the old tables by 3.7e-14, and the shared grid sits ~40 ulps away at
    delta = 0.1 (measured 1.4e-12, pinned at 1e-11).  Off-grid deltas
    resample the spectrum at points up to 1 meV away, which moves
    currents at 300 K by ~2e-5 (pinned at 1e-4)."""
    system = pinned_chain(**case["chain"])
    config = ContactProbeConfig(gamma_probe=case["gamma_probe"])
    table = tp.iv_sweep(system, config, case["v_grid"], case["delta_grid"])
    pinned = np.array(case["current_a"])
    np.testing.assert_array_equal(table.current == 0.0, pinned == 0.0)
    np.testing.assert_allclose(table.current, pinned, rtol=case["rtol"], atol=0.0)


# ------------------------------------------------------- energy blocks


C = tp.ENERGY_BLOCK


@pytest.mark.parametrize("count", [0, 1, C - 1, C, C + 1, 2 * C + 3])
def test_spectrum_blocks_match_single_energies(count):
    system = seven_block_system(seed=43)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig()
    energies = -5.7 + 0.0137 * np.arange(count)
    spec = tp.transmission_spectrum(h_b, system.partition, config, energies)
    single = [tp.transmission_at(e, h_b, system.partition, config) for e in energies]
    np.testing.assert_array_equal(spec.t_eff, np.array([p[0] for p in single]).reshape(-1))
    np.testing.assert_array_equal(
        spec.t_coherent, np.array([p[1] for p in single]).reshape(-1)
    )


def test_stacked_transmissions_match_single_energy_calls():
    system = seven_block_system(seed=47)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig()
    energies = np.linspace(-5.6, -4.9, 9)
    g_stack = tp.retarded_green(energies, h_b, system.partition, config)
    t_stack = tp.probe_transmissions(g_stack, system.partition, config)
    t_eff = tp.effective_transmission(t_stack)
    assert g_stack.shape == (9, 14, 14) and t_stack.shape == (9, 7, 7)
    for k, energy in enumerate(energies):
        g = tp.retarded_green(energy, h_b, system.partition, config)
        t = tp.probe_transmissions(g, system.partition, config)
        np.testing.assert_array_equal(g_stack[k], g)
        np.testing.assert_array_equal(t_stack[k], t)
        one = tp.effective_transmission(t)
        assert type(one) is float and t_eff[k] == one


def test_singular_probe_system_falls_back_to_direct_for_that_energy_only():
    system = seven_block_system(seed=53)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig()
    energies = np.linspace(-5.5, -5.0, 5)
    g = tp.retarded_green(energies, h_b, system.partition, config)
    t_stack = tp.probe_transmissions(g, system.partition, config)
    # two probes coupled only to each other: W = [[x, -x], [-x, x]] is
    # singular although their rows do not sum to zero
    odd = np.zeros(t_stack.shape[1:])
    odd[0, 1] = odd[1, 0] = 0.3
    odd[2, 3] = odd[3, 2] = 0.1
    t_stack[2] = odd
    t_eff = tp.effective_transmission(t_stack)
    assert tp.effective_transmission(odd) == 0.3
    assert t_eff[2] == 0.3
    for k in (0, 1, 3, 4):
        assert t_eff[k] == tp.effective_transmission(t_stack[k])
        assert t_eff[k] > t_stack[k, 0, 1]


def test_singular_transport_matrix_names_its_energy():
    # the isolated middle site at -5.2 eV has no broadening without probes
    system = tp.tight_binding_chain(3, inter_hop=0.0)
    h_b = tp.orthogonal_block_hamiltonian(system)
    config = ContactProbeConfig(gamma_probe=0.0)
    with pytest.raises(RuntimeError, match=r"E = -5\.200000 eV"):
        tp.transmission_spectrum(h_b, system.partition, config, [-5.3, -5.2, -5.1])


# ------------------------------------------------------------ data model


def test_bias_point_ties_right_fermi_level_to_bias():
    bias = BiasPoint(0.7, -5.2)
    assert bias.e_fermi_right == -5.2 + 0.7
    with pytest.raises(ValueError, match="temperature"):
        BiasPoint(0.1, -5.2, temperature=0.0)


def test_quantum_system_validation():
    good = tp.tight_binding_chain(3, block_size=2, overlap_coupling=0.1)
    assert good.n_orb == 6 and good.n_blocks == 3

    asym = np.zeros((2, 2))
    asym[0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        QuantumSystem(asym - 5 * np.eye(2), np.eye(2), [1, 1], -5.0)
    with pytest.raises(ValueError, match="partition"):
        QuantumSystem(-5 * np.eye(4), np.eye(4), [2, 3], -5.0)
    with pytest.raises(ValueError, match="positive definite"):
        QuantumSystem(-5 * np.eye(2), np.diag([1.0, -0.1]), [1, 1], -5.0)


def test_quantum_system_file_roundtrip(tmp_path):
    system = seven_block_system(seed=41)
    path = tmp_path / "system.json"
    tp.save_quantum_system(system, path)
    back = tp.load_quantum_system(path)
    np.testing.assert_array_equal(back.fock, system.fock)
    np.testing.assert_array_equal(back.overlap, system.overlap)
    assert back.partition == system.partition
    assert back.homo_energy == system.homo_energy


def test_quantum_system_loader_accepts_single_block_file(tmp_path):
    # one block with both contacts attached is the analytic one-level case
    path = tmp_path / "one.json"
    from xbar import runio

    runio.dump_json(
        {
            "n_orb": 1,
            "partition": [1],
            "homo_energy_ev": -5.2,
            "fock": [-5.2],
            "overlap": [1.0],
        },
        path,
    )
    system = tp.load_quantum_system(path)
    assert system.partition == (1,)
    assert system.fock[0, 0] == -5.2
    runio.dump_json({"n_orb": 0, "partition": [], "homo_energy_ev": 0.0,
                     "fock": [], "overlap": []}, tmp_path / "empty.json")
    with pytest.raises(ValueError, match="empty"):
        tp.load_quantum_system(tmp_path / "empty.json")


def test_quantum_system_loader_names_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    from xbar import runio

    runio.dump_json({"n_orb": 1, "partition": [1]}, path)
    with pytest.raises(ValueError, match="homo_energy_ev"):
        tp.load_quantum_system(path)


def test_tight_binding_chain_is_seeded():
    a = tp.tight_binding_chain(5, onsite_jitter=0.2, seed=9)
    b = tp.tight_binding_chain(5, onsite_jitter=0.2, seed=9)
    np.testing.assert_array_equal(a.fock, b.fock)
