"""Decoherent electron transport through a block-partitioned molecular chain.

The model: a Fock/overlap matrix pair describing a chain of nucleotide blocks
is symmetrically orthogonalized and opened up with wide-band contacts on the
two end blocks plus phase-breaking probes on every interior block.
Transmission between the contacts (direct plus probe-mediated) is integrated
against the bias window to give current.  Each block's broadening and bias
shift is a constant times the identity, and each transmission sums |G|^2
over a pair of blocks, so a rotation within a block changes no current: the
orthogonalized matrix is used as it is.

H + Sigma does not depend on energy, so it is diagonalized once per
spectrum, A = V diag(lambda) W with W = V^-1, and G(E) = V diag(1/(E -
lambda)) W.  A transmission needs only the block sums S_kl = sum |G_ab|^2
over a in block k and b in block l.  With A_k = V^+ P_k V and B_l = W P_l
W^+ (P_k the projector onto block k), partial fractions give, for real E,

    S_kl(E) = 2 Re sum_p r_p / (E - lambda_p),
    r_p = sum_q (A_k)_qp (B_l)_pq / (lambda_p - conj lambda_q),

so a spectrum builds one residue table per live terminal pair and each
energy costs one reciprocal 1/(E - lambda) and one product with the table.
The sum is exact in exact arithmetic but only absolutely accurate: deep in
a gap without probes its terms cancel.  Each energy carries the rounding
bound 2 n eps sum_p rho_p / |E - lambda_p|, rho_p = sum_q |term_pq|, and an
energy whose bound exceeds POLE_SUM_RTOL of its largest live terminal
transmission is solved by the direct form instead: G formed from the same
eigenvectors, then probe_transmissions.  An I-V sweep computes one
spectrum per bias and integrates every Fermi offset's window from it.

Energies are in eV throughout; currents come out in amperes.  The
Boltzmann constant and the conductance quantum are built from the SI's
exact defining values (2019), so this module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xbar import runio
from xbar.ivtable import IVTable

# the SI's exact defining constants (2019): Boltzmann k in J/K, elementary
# charge q in C and Planck h in J s
KB_EV = 1.380649e-23 / 1.602176634e-19

# conductance quantum 2q^2/h (spin included), siemens
G0_S = 2.0 * 1.602176634e-19**2 / 6.62607015e-34

SYMMETRY_RTOL = 1e-12
OVERLAP_EIG_FLOOR = 1e-10

# Fermi factors decay below 1e-4 within ten thermal energies of the window.
WINDOW_KT_MARGIN = 10.0

ENERGY_SPACING = 1e-3  # eV

# An energy whose pole sum may be off by more than this share of its largest
# live terminal transmission is recomputed from its Green's function.
POLE_SUM_RTOL = 1e-10

# Energies per pole-sum product in transmission_spectrum, so that memory
# stays flat however wide the spectrum.  At 28 orbitals one BLAS thread
# takes ~6 us per energy at 128, ~5 at 256 and ~7 at 64; a block whose
# energies all fall back holds a (128, n, n) complex stack (1.5 MiB).
ENERGY_BLOCK = 128


def _check_symmetric(mat: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.max(np.abs(mat))))
    skew = float(np.max(np.abs(mat - mat.T)))
    if skew > SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric: max |A - A^T| = {skew:.3e}")


def _block_slices(partition) -> list[slice]:
    edges = np.concatenate([[0], np.cumsum(partition)])
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


@dataclass
class QuantumSystem:
    """Fock/overlap input with its nucleotide block layout.

    partition lists orbitals per block in chain order; homo_energy is the
    reference the Fermi level is measured from (metadata, never used to
    modify the matrices).
    """

    fock: np.ndarray
    overlap: np.ndarray
    partition: tuple
    homo_energy: float

    def __post_init__(self):
        self.fock = np.array(self.fock, dtype=float)
        self.overlap = np.array(self.overlap, dtype=float)
        self.partition = tuple(int(p) for p in self.partition)
        self.homo_energy = float(self.homo_energy)
        if self.fock.ndim != 2 or self.fock.shape[0] != self.fock.shape[1]:
            raise ValueError("fock matrix must be square")
        if self.overlap.shape != self.fock.shape:
            raise ValueError("overlap shape does not match fock")
        if any(p < 1 for p in self.partition):
            raise ValueError("partition entries must be positive")
        if sum(self.partition) != self.n_orb:
            raise ValueError(
                f"partition sums to {sum(self.partition)}, expected {self.n_orb}"
            )
        _check_symmetric(self.fock, "fock")
        _check_symmetric(self.overlap, "overlap")
        lam_min = float(np.linalg.eigvalsh(self.overlap)[0])
        if lam_min <= OVERLAP_EIG_FLOOR:
            raise ValueError(
                f"overlap is not positive definite: smallest eigenvalue {lam_min:.3e}"
            )

    @property
    def n_orb(self) -> int:
        return self.fock.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.partition)


@dataclass
class ContactProbeConfig:
    """Broadenings for the two contacts and the interior probes (see
    terminal_blocks for where they attach)."""

    gamma_contact: float = 1.0  # eV
    gamma_probe: float = 0.010  # eV

    def __post_init__(self):
        if self.gamma_contact <= 0:
            raise ValueError("gamma_contact must be positive")
        if self.gamma_probe < 0:
            raise ValueError("gamma_probe must be non-negative")


@dataclass
class BiasPoint:
    """Bias voltage with the left Fermi level; the right one is tied to it."""

    v_bias: float
    e_fermi_left: float
    temperature: float = 300.0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @property
    def e_fermi_right(self) -> float:
        # qV in eV equals the bias numerically
        return self.e_fermi_left + self.v_bias

    @property
    def kt(self) -> float:
        return KB_EV * self.temperature


@dataclass
class TransmissionSpectrum:
    energies: np.ndarray
    t_eff: np.ndarray
    t_coherent: np.ndarray

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.t_eff = np.asarray(self.t_eff, dtype=float)
        self.t_coherent = np.asarray(self.t_coherent, dtype=float)
        if self.energies.ndim != 1 or np.any(np.diff(self.energies) <= 0):
            raise ValueError("energies must be strictly increasing")
        if self.t_eff.shape != self.energies.shape:
            raise ValueError("t_eff length does not match energies")
        if self.t_coherent.shape != self.energies.shape:
            raise ValueError("t_coherent length does not match energies")


def ramp_fractions(n_blocks: int) -> np.ndarray:
    """Per-block potential-drop fractions of the applied bias.

    End blocks sit at 0 and 1; the interior carries the middle 20% of the
    drop linearly, so 40% falls across each contact.  Degenerate chains:
    a single interior block (or a lone block) sits at the 0.5 midpoint.
    """
    if n_blocks < 1:
        raise ValueError("need at least one block")
    if n_blocks == 1:
        return np.array([0.5])
    frac = np.empty(n_blocks)
    frac[0] = 0.0
    frac[-1] = 1.0
    if n_blocks == 3:
        frac[1] = 0.5
    else:
        k = np.arange(2, n_blocks)  # one-based interior indices 2..N-1
        frac[1:-1] = 0.4 + 0.2 * (k - 2) / (n_blocks - 3)
    return frac


def apply_bias_ramp(h_b, v_bias: float, partition) -> np.ndarray:
    """Shift each block's on-site energies by its share of the bias."""
    h_b = np.array(h_b, dtype=float)
    if sum(partition) != h_b.shape[0]:
        raise ValueError("partition does not match matrix size")
    if v_bias == 0.0:
        return h_b
    diag = np.arange(h_b.shape[0])
    h_b[diag, diag] += np.repeat(ramp_fractions(len(partition)) * v_bias, partition)
    return h_b


def broadening_vector(partition, config: ContactProbeConfig) -> np.ndarray:
    """Per-orbital level broadening from contacts and probes (eV): each
    block's terminal broadenings summed, repeated over its orbitals."""
    blocks, gammas = terminal_blocks(len(partition), config)
    per_block = np.bincount(blocks, weights=gammas, minlength=len(partition))
    return np.repeat(per_block, partition)


def _resolvent(h_b, partition, config: ContactProbeConfig):
    """Eigendecomposition of A = H - (i/2) diag(broadening), which does not
    depend on energy: returns (lam, vec, vec^-1) with A = vec diag(lam)
    vec^-1, so that G(E) = (E - A)^-1 = vec diag(1/(E - lam)) vec^-1."""
    a = np.array(h_b, dtype=complex)
    idx = np.arange(a.shape[0])
    a[idx, idx] -= 0.5j * broadening_vector(partition, config)
    lam, vec = np.linalg.eig(a)
    return lam, vec, np.linalg.inv(vec)


def _reciprocal(energy, lam):
    """1/(E - lam) at one energy, or at each of a 1-D array of energies (a
    (k, n) array).  An energy equal to an eigenvalue raises RuntimeError
    naming the first such energy."""
    den = energy[..., None] - lam
    singular = ~den.reshape(-1, lam.size).all(axis=1)
    if singular.any():
        e = energy.reshape(-1)[np.flatnonzero(singular)[0]]
        raise RuntimeError(f"singular transport matrix at E = {e:.6f} eV")
    return 1.0 / den


def _green(energy, resolvent):
    """G at one energy, or at each of a 1-D array of energies (a (k, n, n)
    stack), from a _resolvent.  Each energy's G is one (n, n) @ (n, n)
    product, the same arithmetic alone and in a stack."""
    lam, vec, inv = resolvent
    return np.matmul(vec * _reciprocal(energy, lam)[..., None, :], inv)


def retarded_green(energy, h_b, partition, config: ContactProbeConfig):
    """G = [E - H - Sigma]^-1 at one energy, or at each of a 1-D array of
    energies (a (k, n, n) stack).

    Sigma is -i/2 times the broadening on each orbital.  H + Sigma is
    diagonalized once and every energy's G is formed from its eigenvectors.
    An energy equal to an eigenvalue raises RuntimeError naming the first
    such energy.
    """
    energy = np.asarray(energy, dtype=float)
    return _green(energy, _resolvent(h_b, partition, config))


def terminal_blocks(n_blocks: int, config: ContactProbeConfig):
    """Where the terminals attach, in the order of all transmission matrices.

    The left contact sits on the first block (index 0), the right contact
    on the last (index 1; a one-block chain carries both), and a probe on
    every block between, in chain order.  Returns (block indices, gammas).
    """
    blocks = [0, n_blocks - 1, *range(1, n_blocks - 1)]
    gammas = np.array(
        [config.gamma_contact, config.gamma_contact]
        + [config.gamma_probe] * (len(blocks) - 2)
    )
    return blocks, gammas


def probe_transmissions(g_r, partition, config: ContactProbeConfig) -> np.ndarray:
    """Terminal-to-terminal transmissions Gamma_k Gamma_l sum |G_ab|^2.

    Rows/columns follow terminal_blocks ordering; the diagonal is zero.
    With a single block the 2x2 result still carries the contact-to-contact
    term since both contacts attach to that block.  A (k, n, n) stack of
    Green's functions gives a (k, n_t, n_t) stack, matrix by matrix.
    """
    g_r = np.asarray(g_r)
    starts = np.concatenate([[0], np.cumsum(partition)[:-1]])
    blocks, gammas = terminal_blocks(len(partition), config)
    abs2 = np.square(g_r.real) + np.square(g_r.imag)
    sums = np.add.reduceat(np.add.reduceat(abs2, starts, axis=-2), starts, axis=-1)
    t = np.triu(
        np.multiply.outer(gammas, gammas) * sums[..., blocks, :][..., blocks], 1
    )
    return t + np.swapaxes(t, -1, -2)


def _probe_system(t_terminals):
    """W matrices of the zero-net-probe-current conditions, one per terminal
    matrix of the stack.  A probe that exchanges nothing (a zero row sum of
    non-negative transmissions) is pinned at 0, where it adds nothing, by a
    diagonal of its energy's largest exchange (1 where none is exchanged),
    so the pin stays within the scale of the singular values lstsq keeps."""
    t = np.asarray(t_terminals)
    w = -t[..., 2:, 2:]
    idx = np.arange(w.shape[-1])
    exchanged = t[..., 2:, :].sum(axis=-1)
    idle = exchanged == 0.0
    if idle.any():
        pin = exchanged.max(axis=-1, keepdims=True)
        pin[pin == 0.0] = 1.0
        exchanged = np.where(idle, pin, exchanged)
    w[..., idx, idx] += exchanged
    return w


def _probe_potentials(t, contact):
    """Potentials v (k, p, 1), W v = t[probes, contact], of a stack t.  A stack
    whose solve raises is solved energy by energy; a W still singular (probes
    exchanging only among themselves) takes least squares, holding them at 0."""
    w, rhs = _probe_system(t), t[:, 2:, contact : contact + 1]
    try:
        return np.linalg.solve(w, rhs)
    except np.linalg.LinAlgError:
        v = np.empty_like(rhs)
        for k in range(len(w)):
            try:
                v[k] = np.linalg.solve(w[k], rhs[k])
            except np.linalg.LinAlgError:
                v[k] = np.linalg.lstsq(w[k], rhs[k], rcond=None)[0]
        return v


def probe_occupancies(t_terminals) -> np.ndarray:
    """Relative probe Fermi factors u_k = (f_k - f_R)/(f_L - f_R).

    These are the potentials the probes float to so that each carries zero
    net current; the left/right contacts sit at u = 1 and u = 0.
    """
    return _probe_potentials(np.asarray(t_terminals)[None], 0)[0, :, 0]


def effective_transmission(t_terminals):
    """Contact-to-contact transmission with the probe contribution folded in.

    Adds to the direct term the current re-emitted by probes held at their
    zero-net-current potentials (_probe_potentials); a probe that exchanges
    nothing adds nothing.  A (k, n_t, n_t) stack gives k values, a matrix a float.
    """
    t = np.asarray(t_terminals)
    # in C order, each energy's product below rounds as it does alone
    stack = np.ascontiguousarray(t.reshape((-1,) + t.shape[-2:]))
    gain = stack[:, 0:1, 2:] @ _probe_potentials(stack, 1)
    out = (stack[:, 0, 1] + gain[:, 0, 0]).reshape(t.shape[:-2])
    return float(out) if out.ndim == 0 else out


def _residue_table(resolvent, partition, pairs):
    """Residues r and rounding weights rho of the block sums S_kl for each
    (k, l) of pairs: S_kl(E) = 2 Re sum_p r_p / (E - lam_p), and rho_p sums
    the moduli of the terms r_p sums.  Returns (n, len(pairs)) complex and
    real arrays.  A pair of modes whose denominator lam_p - conj lam_q is
    exactly 0 has two real eigenvalues: such modes carry no weight on any
    broadened orbital, so their term vanishes for every live pair and is
    taken as 0."""
    lam, vec, inv = resolvent
    den = lam[:, None] - lam.conj()
    inv_den = np.divide(1.0, den, out=np.zeros_like(den), where=den != 0)
    slices = _block_slices(partition)
    # (A_k)_qp / (lam_p - conj lam_q) and (B_l)_pq, both at [p, q]
    a_den = [(vec[s].T @ vec[s].conj()) * inv_den for s in slices]
    b = [inv[:, s] @ inv[:, s].conj().T for s in slices]
    residues = np.empty((lam.size, len(pairs)), dtype=complex)
    weights = np.empty((lam.size, len(pairs)))
    for j, (k, l) in enumerate(pairs):
        term = a_den[k] * b[l]
        residues[:, j] = term.sum(axis=1)
        weights[:, j] = np.abs(term).sum(axis=1)
    return residues, weights


def transmission_spectrum(
    h_b, partition, config: ContactProbeConfig, energies
) -> TransmissionSpectrum:
    """Evaluate the transmission over an energy grid.

    H + Sigma is diagonalized once for the whole grid, and each live
    terminal pair (off the diagonal, with Gamma_k Gamma_l > 0) gets one
    residue table, so a terminal transmission is Gamma_k Gamma_l 2 Re
    sum_p r_p / (E - lam_p), computed ENERGY_BLOCK energies at a time.
    Each energy's rounding bound is 2 n eps Gamma_k Gamma_l sum_p rho_p /
    |E - lam_p|; where it exceeds POLE_SUM_RTOL of the energy's largest
    live terminal transmission (or is not finite), the energy's terminal
    matrix is recomputed by the direct form, probe_transmissions of its
    Green's function from the same eigenvectors, exactly as
    retarded_green gives it.  effective_transmission then folds in the
    probes.
    """
    energies = np.asarray(energies, dtype=float)
    t_eff = np.empty(energies.shape)
    t_coh = np.empty(energies.shape)
    resolvent = _resolvent(h_b, partition, config)
    lam = resolvent[0]
    blocks, gammas = terminal_blocks(len(partition), config)
    rows, cols = np.triu_indices(len(blocks), 1)
    live = gammas[rows] * gammas[cols] > 0
    rows, cols = rows[live], cols[live]
    coupling = gammas[rows] * gammas[cols]
    residues, weights = _residue_table(
        resolvent, partition, [(blocks[i], blocks[j]) for i, j in zip(rows, cols)]
    )
    residues *= 2.0 * coupling
    weights *= 2.0 * lam.size * np.finfo(float).eps * coupling
    for start in range(0, energies.size, ENERGY_BLOCK):
        block = slice(start, start + ENERGY_BLOCK)
        z = _reciprocal(energies[block], lam)
        pair_t = (z @ residues).real
        bound = np.abs(z) @ weights
        t = np.zeros((z.shape[0], len(blocks), len(blocks)))
        t[:, rows, cols] = t[:, cols, rows] = pair_t
        direct = ~(bound.max(axis=1) <= POLE_SUM_RTOL * pair_t.max(axis=1))
        if direct.any():
            green = _green(energies[block][direct], resolvent)
            t[direct] = probe_transmissions(green, partition, config)
        t_eff[block] = effective_transmission(t)
        t_coh[block] = t[:, 0, 1]
    return TransmissionSpectrum(energies, t_eff, t_coh)


def fermi_occupation(energy, mu: float, kt: float):
    """f(E) = 1/(1 + exp((E - mu)/kT)); far above mu the exponential
    overflows to inf and f to an exact 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp((np.asarray(energy, dtype=float) - mu) / kt))


def landauer_current(spectrum: TransmissionSpectrum, bias: BiasPoint) -> float:
    """Integrate the transmission against the bias window.

    Positive bias raises the right Fermi level, and the sign convention is
    chosen so that positive bias drives positive current.  The spectrum must
    cover both Fermi levels plus ten thermal energies on each side; the
    integrand is resampled on a grid fine enough to resolve the Fermi step
    even at sub-kelvin temperatures.
    """
    if bias.v_bias == 0.0:
        return 0.0
    kt = bias.kt
    mu_lo = min(bias.e_fermi_left, bias.e_fermi_right)
    mu_hi = max(bias.e_fermi_left, bias.e_fermi_right)
    lo = mu_lo - WINDOW_KT_MARGIN * kt
    hi = mu_hi + WINDOW_KT_MARGIN * kt
    energies = spectrum.energies
    if energies[0] > lo or energies[-1] < hi:
        raise ValueError(
            "spectrum window too narrow: have "
            f"[{energies[0]:.6f}, {energies[-1]:.6f}] eV, "
            f"need [{lo:.6f}, {hi:.6f}] eV"
        )
    h_fine = min(ENERGY_SPACING, kt / 4.0)
    grid = np.union1d(
        np.arange(lo, hi + 0.5 * h_fine, h_fine),
        energies[(energies >= lo) & (energies <= hi)],
    )
    grid = grid[np.concatenate([[True], np.diff(grid) > 1e-6 * h_fine])]  # drop near-duplicates
    t = np.interp(grid, energies, spectrum.t_eff)
    window = fermi_occupation(grid, bias.e_fermi_right, kt) - fermi_occupation(
        grid, bias.e_fermi_left, kt
    )
    y = t * window
    return float(G0_S * np.sum(np.diff(grid) * (y[1:] + y[:-1]) / 2.0))


def orthogonal_block_hamiltonian(system: QuantumSystem) -> np.ndarray:
    """The Löwdin-orthogonalized Hamiltonian S^{-1/2} F S^{-1/2}, in the
    orbital order of the system's blocks: the unbiased starting point for
    sweeps.  Its spectrum is the generalized spectrum of (F, S), which
    QuantumSystem checks symmetric and positive definite."""
    lam, q = np.linalg.eigh(system.overlap)
    s_inv_half = (q * lam**-0.5) @ q.T
    h_a = s_inv_half @ system.fock @ s_inv_half
    return 0.5 * (h_a + h_a.T)


def iv_sweep(
    system: QuantumSystem,
    config: ContactProbeConfig,
    v_grid,
    delta_grid,
    temperature: float = 300.0,
    threads: int = 1,
    strand_id: str = "system",
) -> IVTable:
    """Current over a (bias, Fermi-offset) grid.

    For each point the left Fermi level sits at homo_energy + delta and the
    right one follows the bias.  The ramped Hamiltonian depends on the bias
    alone (delta only moves the Fermi window), so each nonzero bias gets one
    transmission spectrum covering the windows of every delta, on a grid
    anchored at the lowest delta's window start; each delta then integrates
    its own window of that spectrum.  When delta steps are multiples of
    ENERGY_SPACING every delta reads its energies at the points of its own
    window grid, to round-off.  Biases are independent and computed in
    parallel when asked, one table column each; the table is built, and
    its grids checked, before the first spectrum, and its columns are
    filled in grid order.
    """
    table = IVTable(strand_id, v_grid, delta_grid, np.zeros((np.size(delta_grid), np.size(v_grid))))
    h_b0 = orthogonal_block_hamiltonian(system)
    margin = WINDOW_KT_MARGIN * (KB_EV * temperature)

    def column(v):
        if v == 0.0:
            return np.zeros(table.delta_grid.size)
        biases = [
            BiasPoint(v, system.homo_energy + float(d), temperature) for d in table.delta_grid
        ]
        lo = min(biases[0].e_fermi_left, biases[0].e_fermi_right) - margin
        hi = max(biases[-1].e_fermi_left, biases[-1].e_fermi_right) + margin
        # two spacings of slack so the coverage check never trips on rounding
        energies = np.arange(lo - 2 * ENERGY_SPACING, hi + 2.5 * ENERGY_SPACING, ENERGY_SPACING)
        ramped = apply_bias_ramp(h_b0, v, system.partition)
        spec = transmission_spectrum(ramped, system.partition, config, energies)
        return [landauer_current(spec, bias) for bias in biases]

    table.current[:] = np.column_stack(runio.parallel_map(column, table.v_grid.tolist(), threads))
    return table


def tight_binding_chain(
    n_blocks: int,
    block_size: int = 1,
    onsite: float = -5.2,
    intra_hop: float = 0.2,
    inter_hop: float = 0.1,
    onsite_jitter: float = 0.0,
    overlap_coupling: float = 0.0,
    homo_energy: float | None = None,
    seed: int | None = None,
) -> QuantumSystem:
    """Synthetic nearest-neighbor chain standing in for real Fock/overlap data.

    Blocks couple head-to-tail through a single inter_hop element; within a
    block, adjacent orbitals couple by intra_hop.  onsite_jitter draws
    uniform per-orbital disorder so tests can request random-but-seeded
    systems.  overlap_coupling puts that value on every hopping pair of the
    overlap matrix (keep it well below 0.5 for positive definiteness).
    """
    if n_blocks < 1 or block_size < 1:
        raise ValueError("need at least one block and one orbital per block")
    n_orb = n_blocks * block_size
    fock = np.zeros((n_orb, n_orb))
    overlap = np.eye(n_orb)
    rng = np.random.default_rng(seed)
    diag = np.full(n_orb, onsite)
    if onsite_jitter > 0:
        diag += rng.uniform(-onsite_jitter, onsite_jitter, n_orb)
    fock[np.arange(n_orb), np.arange(n_orb)] = diag
    slices = _block_slices([block_size] * n_blocks)
    for sl in slices:
        for a in range(sl.start, sl.stop - 1):
            fock[a, a + 1] = fock[a + 1, a] = intra_hop
    for b in range(n_blocks - 1):
        a, c = slices[b].stop - 1, slices[b + 1].start
        fock[a, c] = fock[c, a] = inter_hop
    if overlap_coupling != 0.0:
        pairs = np.nonzero(np.triu(fock, 1))
        overlap[pairs] = overlap_coupling
        overlap[pairs[1], pairs[0]] = overlap_coupling
    return QuantumSystem(
        fock,
        overlap,
        [block_size] * n_blocks,
        homo_energy if homo_energy is not None else onsite,
    )


def save_quantum_system(system: QuantumSystem, path) -> None:
    runio.dump_json(
        {
            "n_orb": system.n_orb,
            "partition": list(system.partition),
            "homo_energy_ev": system.homo_energy,
            "fock": system.fock.ravel().tolist(),
            "overlap": system.overlap.ravel().tolist(),
        },
        path,
    )


def load_quantum_system(path) -> QuantumSystem:
    """Read a system file; symmetry/definiteness are validated on load."""
    raw = runio.load_json(path)
    n_orb = runio.require(raw, "n_orb", path, int)
    partition = runio.require(raw, "partition", path, [int])
    homo = runio.require(raw, "homo_energy_ev", path, float)
    fock = np.array(runio.require(raw, "fock", path, [float]), dtype=float)
    overlap = np.array(runio.require(raw, "overlap", path, [float]), dtype=float)
    if fock.size != n_orb * n_orb:
        raise ValueError(f"{path}: fock has {fock.size} entries, expected {n_orb * n_orb}")
    if overlap.size != n_orb * n_orb:
        raise ValueError(
            f"{path}: overlap has {overlap.size} entries, expected {n_orb * n_orb}"
        )
    if not partition:
        raise ValueError(f"{path}: partition is empty")
    with runio.named(path):
        return QuantumSystem(
            fock.reshape(n_orb, n_orb), overlap.reshape(n_orb, n_orb), partition, homo
        )
