"""Image-storage benchmark: bytes -> bits -> crossbar tiles -> read-back.

Any byte source counts as an image.  Bits fill fixed-size arrays row by
row, the last tile is zero-padded, and padded cells never enter the error
accounting.  Each tile is read with its own empirically optimal threshold,
mirroring a per-array post-fabrication calibration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from xbar import runio
from xbar.crossbar import SOLVERS, array_reader, map_in_stacks
from xbar.defaults import shipped_pair
from xbar.ivtable import PAIR_KEYS, StrandPair, load_pair, pair_payload
from xbar.model import CrossbarSpec
from xbar.montecarlo import optimal_threshold

BINARIZATIONS = ("raw-bits", "gray-threshold")


@dataclass
class ImageJob:
    """One byte source to store: either every bit of every byte, or one
    bit per byte by gray-level thresholding."""

    source: bytes
    name: str  # the tile ids' prefix, one per job of a sweep
    binarization: str = "raw-bits"
    level: int = 128

    def __post_init__(self):
        if len(self.source) == 0:
            raise ValueError("empty byte source")
        if not self.name:
            raise ValueError("field 'name' must not be empty")
        if self.binarization not in BINARIZATIONS:
            raise ValueError(
                f"field 'binarization' must be one of {BINARIZATIONS}, got '{self.binarization}'"
            )
        if not 0 <= self.level <= 255:
            raise ValueError(f"field 'level' must fit in a byte, got {self.level}")


@dataclass
class StoreConfig:
    """One storage sweep: the images, every array size and interconnect
    value to store them at, the strand pair and the read.  The one place a
    sweep is checked, whether its values come from a file or from flags."""

    jobs: list
    sizes: list
    r_ints: list
    pair: StrandPair
    v_in: float = 1.0
    solver: str = "parametric"

    def __post_init__(self):
        self.jobs = list(self.jobs)
        for key, values in (("images", self.jobs), ("sizes", self.sizes), ("r_int_ohm", self.r_ints)):
            if not values:
                raise ValueError(f"field '{key}' must not be empty")
        if any(len(s) != 2 for s in self.sizes):
            raise ValueError("field 'sizes' must list [m, n] pairs")
        if any(min(s) < 1 for s in self.sizes):
            raise ValueError("field 'sizes' must hold dimensions of at least 1")
        self.sizes = [(int(m), int(n)) for m, n in self.sizes]
        self.r_ints = [float(r) for r in self.r_ints]
        for key, values in (("r_int_ohm", self.r_ints), ("v_in_v", [self.v_in])):
            if not all(v > 0 and np.isfinite(v) for v in values):
                raise ValueError(f"field '{key}' must be positive and finite")
        # each image and condition is read once: one listed twice would
        # report every tile of it twice, under the same tile ids
        for label, values, show in (
            ("image", [job.name for job in self.jobs], str),
            ("size", self.sizes, lambda s: f"{s[0]}x{s[1]}"),
            ("r_int", self.r_ints, lambda r: f"{r:g}"),
        ):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{label} {show(value)} is listed more than once")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver '{self.solver}', expected {SOLVERS}")
        self.pair.check_range(self.v_in, 0.0, "tile offsets")


def image_to_bits(job: ImageJob) -> np.ndarray:
    """Flat bit vector for one job; raw mode is most-significant-bit first."""
    data = np.frombuffer(job.source, dtype=np.uint8)
    if job.binarization == "raw-bits":
        return np.unpackbits(data).astype(np.int8)
    return (data >= job.level).astype(np.int8)


def tile_bits(bits, m: int, n: int):
    """Row-major fill into m x n tiles; returns (tiles, pad) where pad is
    the number of filler zeros at the tail of the last tile."""
    bits = np.asarray(bits, dtype=np.int8).ravel()
    if bits.size == 0:
        raise ValueError("no bits to tile")
    if m < 1 or n < 1:
        raise ValueError("tile dimensions must be at least 1x1")
    cell_count = m * n
    tiles_needed = -(-bits.size // cell_count)
    pad = tiles_needed * cell_count - bits.size
    padded = np.concatenate([bits, np.zeros(pad, dtype=np.int8)])
    return list(padded.reshape(tiles_needed, m, n)), int(pad)


def valid_mask(m: int, n: int, pad: int = 0) -> np.ndarray:
    """True where a tile holds content bits; the last pad cells are filler."""
    if not 0 <= pad < m * n:
        raise ValueError(f"pad {pad} outside [0, {m * n})")
    mask = np.ones(m * n, dtype=bool)
    if pad:
        mask[m * n - pad :] = False
    return mask.reshape(m, n)


def bit_load(tile, pad: int = 0) -> float:
    """Percentage of content cells storing logic 1."""
    tile = np.asarray(tile)
    mask = valid_mask(tile.shape[0], tile.shape[1], pad)
    return 100.0 * float(tile[mask].sum()) / int(mask.sum())


@dataclass
class TileRecord:
    """One stored tile under one electrical condition."""

    tile_id: str
    m: int
    n: int
    r_int: float
    bit_load_pct: float
    ber: float
    power_w: float
    converged: bool


@dataclass
class StorageReport:
    """All per-tile results plus the two aggregates the benchmark is run
    for: BER box statistics per integer bit-load bin (keyed by size and
    interconnect) and mean power per condition."""

    per_tile: list
    binned_ber: list
    power_vs_rint: list
    failures: int


def _box_stats(values: np.ndarray) -> dict:
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return {
        "count": int(values.size),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "min": float(values.min()),
        "max": float(values.max()),
    }


def run_storage_benchmark(config: StoreConfig, threads: int = 1) -> StorageReport:
    """Store every job on every array size at every interconnect value.

    Tiles are independent work items, read in stacks of one condition
    (crossbar.map_in_stacks); aggregation is index-ordered, so neither the
    thread count nor the stacking changes any reported number.
    """
    per_tile = []
    binned = []
    powers = []
    for m, n in config.sizes:
        tiled = []
        for job in config.jobs:
            tiles, pad = tile_bits(image_to_bits(job), m, n)
            for k, tile in enumerate(tiles):
                tile_pad = pad if k == len(tiles) - 1 else 0
                tiled.append((f"{job.name}/t{k}", tile, tile_pad))
        for r_int in config.r_ints:
            blank = np.zeros((m, n), dtype=np.int8)
            spec = CrossbarSpec(
                m=m, n=n, r_int=r_int, bits=blank, pair=config.pair, v_in=config.v_in
            )
            read = array_reader(config.solver, spec, 1)

            def read_tiles(stack):
                bits = np.stack([tile for _, tile, _ in stack])
                sol = read(replace(spec, bits=bits, delta=None))
                records = []
                for b, (tile_id, tile, pad) in enumerate(stack):
                    load = bit_load(tile, pad)
                    if not sol.converged[b]:
                        records.append(TileRecord(tile_id, m, n, r_int, load, np.nan, np.nan, False))
                        continue
                    mask = valid_mask(m, n, pad).ravel()
                    cut = optimal_threshold(sol.i_out[b].ravel()[mask], tile.ravel()[mask])
                    records.append(
                        TileRecord(tile_id, m, n, r_int, load, cut.ber, float(sol.power[b]), True)
                    )
                return records

            records = map_in_stacks(read_tiles, tiled, spec, threads)
            per_tile.extend(records)
            condition = {"m": m, "n": n, "r_int_ohm": r_int}
            read_ok = [r for r in records if r.converged]
            loads = [int(round(r.bit_load_pct)) for r in read_ok]
            for b in sorted(set(loads)):
                vals = np.array([r.ber for r, load in zip(read_ok, loads) if load == b])
                binned.append({**condition, "bit_load_pct": b, **_box_stats(vals)})
            if read_ok:
                powers.append(
                    {**condition, "power_mean_w": float(np.mean([r.power_w for r in read_ok]))}
                )

    return StorageReport(
        per_tile=per_tile,
        binned_ber=binned,
        power_vs_rint=powers,
        failures=sum(not r.converged for r in per_tile),
    )


def save_storage_report(report: StorageReport, out_dir) -> None:
    """Per-tile CSV plus JSON aggregates."""
    out = Path(out_dir)
    runio.write_rows_csv(
        out / "storage_tiles.csv",
        ["tile_id", "size", "r_int_ohm", "bit_load_pct", "ber", "power_w"],
        [
            (
                r.tile_id,
                f"{r.m}x{r.n}",
                r.r_int,
                r.bit_load_pct,
                r.ber,
                r.power_w,
            )
            for r in report.per_tile
        ],
    )
    runio.dump_json(
        {
            "binned_ber": report.binned_ber,
            "power_vs_rint": report.power_vs_rint,
            "failures": report.failures,
        },
        out / "storage_summary.json",
    )


# a sweep file's keys besides its pair, and each image entry's: the JSON
# kind each is read as and its default (runio.REQUIRED: none; an image's
# name left out is its file's stem)
_SWEEP_FIELDS = (
    ("images", [dict], runio.REQUIRED),
    ("sizes", [[int]], runio.REQUIRED),
    ("r_int_ohm", [float], runio.REQUIRED),
    ("v_in_v", float, 1.0),
)
_IMAGE_FIELDS = (
    ("path", str, runio.REQUIRED),
    ("binarization", str, "raw-bits"),
    ("level", int, 128),
    ("name", str, None),
)


def load_store_config(path) -> StoreConfig:
    """Read a sweep file; image and table paths resolve relative to it."""
    path = Path(path)
    raw = runio.load_json(path)
    entries, sizes, r_ints, v_in = runio.read_fields(raw, path, _SWEEP_FIELDS, PAIR_KEYS)
    jobs = []
    for entry in entries:
        source, binarization, level, name = runio.read_fields(entry, path, _IMAGE_FIELDS)
        image = path.parent / source
        name = image.stem if name is None else name
        data = runio.read_referenced(path, image, Path.read_bytes)
        with runio.named(path):
            jobs.append(ImageJob(data, name, binarization, level))
    pair = load_pair(raw, path) if set(PAIR_KEYS) & raw.keys() else shipped_pair()
    with runio.named(path):
        return StoreConfig(jobs, sizes, r_ints, pair, v_in)


def store_payload(config: StoreConfig) -> dict:
    """The sweep as a manifest digests it: images by content hash, the axes, the tables."""
    return {
        "images": [
            {
                "name": job.name,
                "binarization": job.binarization,
                "level": job.level,
                "sha256": hashlib.sha256(job.source).hexdigest(),
            }
            for job in config.jobs
        ],
        "sizes": [list(s) for s in config.sizes],
        "r_int_ohm": config.r_ints,
        "v_in_v": config.v_in,
        "solver": config.solver,
        **pair_payload(config.pair),
    }
