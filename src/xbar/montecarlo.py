"""Monte Carlo study of read errors under Fermi-level disorder.

Each trial stores a random bit pattern, perturbs every cell's level offset,
solves the readout, and classifies cells against the best threshold that
trial's own current pool admits.  Bit decisions are therefore exactly as
good as a post-fabrication calibration could make them, which is the
operating point the error statistics are meant to describe.

Trials draw from counted generator streams (seed plus trial index), so a
report is reproducible from its configuration alone and trials can run on
any number of threads without coupling their randomness.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from xbar import runio
from xbar.crossbar import SOLVERS, array_reader, map_in_stacks
from xbar.ivtable import PAIR_KEYS, StrandPair, interpolate_current, load_pair, pair_payload
from xbar.model import CrossbarSpec

# fixed sub-stream labels per trial; changing these invalidates every
# previously recorded report
_DELTA_STREAM = 0
_BITS_STREAM = 1

HISTOGRAM_BINS = 64


@dataclass
class McConfig:
    """One Monte Carlo campaign: array geometry, disorder strength, trial
    count, and the seed everything derives from."""

    m: int
    n: int
    r_int: float
    pair: StrandPair
    delta_max: float
    seed: int
    trials: int = 1000
    p_one: float = 0.5
    v_in: float = 1.0
    solver: str = "parametric"
    per_cell: bool = True  # False draws one offset per trial for the array
    # the campaign's condition, every trial's arrays read on it; its own
    # checks cover the geometry, r_int and v_in
    spec: CrossbarSpec = field(init=False, compare=False)

    def __post_init__(self):
        # each trial reads its own bits; a size below 1 fails the spec's check
        blank = np.zeros((max(self.m, 0), max(self.n, 0)), dtype=np.int8)
        self.spec = CrossbarSpec(
            m=self.m, n=self.n, r_int=self.r_int, bits=blank, pair=self.pair, v_in=self.v_in
        )
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.p_one <= 1.0:
            raise ValueError("p_one must lie in [0, 1]")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver '{self.solver}', expected {SOLVERS}")
        self.pair.check_range(self.v_in, (0.0, self.delta_max), "delta_max_ev offsets")


class ThresholdResult(NamedTuple):
    """Best cut through a labeled current pool.

    polarity +1 reads currents above the threshold as logic 1, -1 reads
    them as logic 0.  single_class marks pools where one label is absent,
    in which case the sentinel threshold classifies everything correctly
    by convention.
    """

    threshold: float
    ber: float
    polarity: int
    single_class: bool


def sample_deltas(config: McConfig, trial: int) -> np.ndarray:
    """Level offsets for one trial, uniform on [0, delta_max].

    The stream is keyed by (seed, trial), independent of execution order."""
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(trial, _DELTA_STREAM))
    )
    if config.per_cell:
        return rng.uniform(0.0, config.delta_max, size=(config.m, config.n))
    return np.full((config.m, config.n), rng.uniform(0.0, config.delta_max))


def sample_bits(config: McConfig, trial: int) -> np.ndarray:
    """Stored pattern for one trial; each cell is logic 1 with p_one."""
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(trial, _BITS_STREAM))
    )
    return (rng.random((config.m, config.n)) < config.p_one).astype(np.int8)


def optimal_threshold(currents, labels) -> ThresholdResult:
    """Exhaustive scan for the misclassification-minimizing cut.

    Candidates are the midpoints between consecutive distinct sorted
    currents plus a sentinel below them all, each tried with both polarity
    assignments.  Ties prefer the widest gap, then the lowest cut (a
    sentinel above them all would tie the one below, and lose).
    """
    c = np.asarray(currents, dtype=float).ravel()
    y = np.asarray(labels).ravel().astype(np.int8)
    if c.size != y.size:
        raise ValueError("currents and labels must have equal length")
    if c.size == 0:
        raise ValueError("empty current pool")
    n1 = int(np.count_nonzero(y))
    n0 = y.size - n1
    if n0 == 0:
        return ThresholdResult(-np.inf, 0.0, 1, True)
    if n1 == 0:
        return ThresholdResult(np.inf, 0.0, 1, True)

    # the scan reads label counts only at boundaries between distinct
    # currents, so the order within a tie never reaches the result
    order = np.argsort(c)
    cs = c[order]
    ys = y[order]
    # cut index k means the threshold sits between cs[k] and cs[k+1],
    # and below every current at k = -1
    steps = np.diff(cs)
    boundary = np.nonzero(steps > 0)[0]
    cuts = np.concatenate([[-1], boundary])
    ones_le = np.concatenate([[0], np.cumsum(ys)])[cuts + 1]
    errors_high = 2 * ones_le + n0 - (cuts + 1)  # ones below + zeros above
    errors = np.minimum(errors_high, c.size - errors_high)
    polarity = np.where(errors_high <= c.size - errors_high, 1, -1)

    gaps = np.concatenate([[np.inf], steps[boundary]])
    best_err = errors.min()
    candidates = np.nonzero(errors == best_err)[0]
    pick = candidates[np.argmax(gaps[candidates])]

    k = cuts[pick]
    threshold = -np.inf if k < 0 else 0.5 * (cs[k] + cs[k + 1])
    return ThresholdResult(
        float(threshold), best_err / c.size, int(polarity[pick]), False
    )


@dataclass
class McReport:
    """Per-trial error rates and thresholds plus pooled current histograms.

    Failed trials (solver did not converge) keep their slot as NaN in the
    per-trial arrays and are listed by index; aggregate numbers cover the
    successful trials only.
    """

    trials: int
    solver: str
    ber_samples: np.ndarray
    threshold_samples: np.ndarray
    polarity_samples: np.ndarray
    v_mean_samples: np.ndarray
    ber_mean: float
    mean_cell_voltage: float
    hist_edges_na: np.ndarray
    hist_counts0: np.ndarray
    hist_counts1: np.ndarray
    failed_trials: tuple


def run_mc(config: McConfig, threads: int = 1) -> McReport:
    """Run the campaign and aggregate; trial order never affects values.

    Trials are read in stacks (crossbar.map_in_stacks) of the campaign's
    one spec, each trial with its own sample streams, threshold and
    histogram counts."""
    spec = config.spec
    read = array_reader(config.solver, spec, 1)

    # histogram support: currents can never exceed the strongest cell's
    # full-bias current at an offset in [0, delta_max], piecewise linear in
    # the offset and so largest at a table node clipped into that range or
    # at its end: the bin range is known before any trial runs
    i_top = 0.0
    for table in (config.pair.logic1_table, config.pair.logic0_table):
        offsets = np.clip([*table.delta_grid, config.delta_max], 0.0, config.delta_max)
        i_top = max(i_top, float(np.max(interpolate_current(table, config.v_in, offsets))))
    edges = np.linspace(0.0, i_top, HISTOGRAM_BINS + 1)

    def run_trials(trials):
        bits = np.stack([sample_bits(config, t) for t in trials])
        delta = np.stack([sample_deltas(config, t) for t in trials])
        sol = read(replace(spec, bits=bits, delta=delta))
        outcomes = []
        for b, trial_bits in enumerate(bits):
            if not sol.converged[b]:
                outcomes.append(None)
                continue
            i_out, labels = sol.i_out[b].ravel(), trial_bits.ravel()
            cut = optimal_threshold(i_out, labels)
            pooled = np.clip(i_out, edges[0], edges[-1])
            h0, _ = np.histogram(pooled[labels == 0], bins=edges)
            h1, _ = np.histogram(pooled[labels == 1], bins=edges)
            outcomes.append((cut, float(sol.v_cell[b].mean()), h0, h1))
        return outcomes

    outcomes = map_in_stacks(run_trials, range(config.trials), spec, threads)

    ber = np.full(config.trials, np.nan)
    thr = np.full(config.trials, np.nan)
    pol = np.zeros(config.trials, dtype=int)
    v_mean = np.full(config.trials, np.nan)
    h0 = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
    h1 = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
    failed = []
    for t, outcome in enumerate(outcomes):
        if outcome is None:
            failed.append(t)
            continue
        cut, v_bar, t0, t1 = outcome
        ber[t] = cut.ber
        thr[t] = cut.threshold
        pol[t] = cut.polarity
        v_mean[t] = v_bar
        h0 += t0
        h1 += t1

    ok = ~np.isnan(ber)
    if not np.any(ok):
        raise RuntimeError("every trial failed to converge")
    return McReport(
        trials=config.trials,
        solver=config.solver,
        ber_samples=ber,
        threshold_samples=thr,
        polarity_samples=pol,
        v_mean_samples=v_mean,
        ber_mean=float(ber[ok].mean()),
        mean_cell_voltage=float(v_mean[ok].mean()),
        hist_edges_na=edges * 1e9,
        hist_counts0=h0,
        hist_counts1=h1,
        failed_trials=tuple(failed),
    )


def save_mc_report(report: McReport, out_dir) -> None:
    """JSON summary plus per-trial and histogram CSVs."""
    out = Path(out_dir)
    runio.dump_json(
        {
            "trials": report.trials,
            "solver": report.solver,
            "ber_mean": report.ber_mean,
            "mean_cell_voltage_v": report.mean_cell_voltage,
            "failed_trials": report.failed_trials,
        },
        out / "mc_summary.json",
    )
    runio.write_rows_csv(
        out / "mc_trials.csv",
        ["trial", "ber", "threshold_a", "polarity", "mean_cell_voltage_v"],
        zip(range(report.trials), report.ber_samples, report.threshold_samples,
            report.polarity_samples, report.v_mean_samples),
    )
    runio.write_rows_csv(
        out / "mc_histogram.csv",
        ["bin_low_na", "bin_high_na", "count_logic0", "count_logic1"],
        zip(report.hist_edges_na[:-1], report.hist_edges_na[1:],
            report.hist_counts0, report.hist_counts1),
    )


# McConfig's fields besides its pair: the key a campaign file gives each
# and the JSON kind it is read as; a field with a default may be left out
_MC_FIELDS = (
    ("m", "m", int),
    ("n", "n", int),
    ("r_int", "r_int_ohm", float),
    ("delta_max", "delta_max_ev", float),
    ("seed", "seed", int),
    ("trials", "trials", int),
    ("p_one", "p_one", float),
    ("v_in", "v_in_v", float),
    ("solver", "solver", str),
    ("per_cell", "per_cell", bool),
)


def load_mc_config(path) -> McConfig:
    """Read a campaign description; table paths resolve relative to it."""
    path = Path(path)
    raw = runio.load_json(path)
    pair = load_pair(raw, path)
    defaults = {f.name: f.default for f in fields(McConfig) if f.default is not MISSING}
    declared = [(key, kind, defaults.get(name, runio.REQUIRED)) for name, key, kind in _MC_FIELDS]
    values = runio.read_fields(raw, path, declared, PAIR_KEYS)
    with runio.named(path):
        return McConfig(pair=pair, **{name: v for (name, _, _), v in zip(_MC_FIELDS, values)})


def mc_config_payload(config: McConfig) -> dict:
    """The campaign as a manifest digests it: each field by its file key, the tables."""
    values = {key: getattr(config, name) for name, key, _ in _MC_FIELDS}
    return {**values, **pair_payload(config.pair)}
