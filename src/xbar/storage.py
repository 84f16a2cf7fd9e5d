"""Image-storage benchmark: bytes -> bits -> crossbar tiles -> read-back.

Any byte source counts as an image.  Bits fill fixed-size arrays row by
row, the last tile is zero-padded, and padded cells never enter the error
accounting.  Each tile is read with its own empirically optimal threshold,
mirroring a per-array post-fabrication calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from xbar import runio
from xbar.crossbar import array_reader
from xbar.ivtable import StrandPair
from xbar.model import CrossbarSpec
from xbar.montecarlo import optimal_threshold

BINARIZATIONS = ("raw-bits", "gray-threshold")


@dataclass
class ImageJob:
    """One byte source to store: either every bit of every byte, or one
    bit per byte by gray-level thresholding."""

    source: bytes
    binarization: str = "raw-bits"
    level: int = 128
    name: str = ""

    def __post_init__(self):
        if len(self.source) == 0:
            raise ValueError("empty byte source")
        if self.binarization not in BINARIZATIONS:
            raise ValueError(
                f"unknown binarization '{self.binarization}', expected {BINARIZATIONS}"
            )
        if not 0 <= self.level <= 255:
            raise ValueError("threshold level must fit in a byte")


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


def reconstruct_bits(i_out, threshold: float, polarity: int = 1, pad: int = 0) -> np.ndarray:
    """Thresholded read-back; padded positions report 0 regardless."""
    i_out = np.asarray(i_out, dtype=float)
    reads_one = ((i_out > threshold) == (polarity == 1)).astype(np.int8)
    if pad:
        mask = valid_mask(i_out.shape[0], i_out.shape[1], pad)
        reads_one[~mask] = 0
    return reads_one


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


def run_storage_benchmark(
    jobs,
    r_ints,
    sizes,
    pair: StrandPair,
    v_in: float = 1.0,
    solver: str = "parametric",
    threads: int | None = None,
) -> StorageReport:
    """Store every job on every array size at every interconnect value.

    Tiles are independent work items; aggregation is index-ordered so the
    thread count never changes any reported number.
    """
    jobs = list(jobs)
    r_ints = [float(r) for r in r_ints]
    sizes = [(int(m), int(n)) for (m, n) in sizes]

    per_tile = []
    binned = []
    powers = []
    for m, n in sizes:
        tiled = []
        for j, job in enumerate(jobs):
            tiles, pad = tile_bits(image_to_bits(job), m, n)
            label = job.name or f"job{j}"
            for k, tile in enumerate(tiles):
                tile_pad = pad if k == len(tiles) - 1 else 0
                tiled.append((f"{label}/t{k}", tile, tile_pad))
        for r_int in r_ints:
            read = array_reader(solver, m, n, r_int, pair, v_in, 1)

            def read_tile(item):
                tile_id, tile, pad = item
                spec = CrossbarSpec(
                    m=m, n=n, r_int=r_int, bits=tile, pair=pair, v_in=v_in
                )
                sol = read(spec)
                load = bit_load(tile, pad)
                if not sol.converged:
                    return TileRecord(
                        tile_id, m, n, r_int, load, np.nan, np.nan, False
                    )
                mask = valid_mask(m, n, pad).ravel()
                cut = optimal_threshold(
                    sol.i_out.ravel()[mask], tile.ravel()[mask]
                )
                return TileRecord(
                    tile_id, m, n, r_int, load, cut.ber, sol.power, True
                )

            records = runio.parallel_map(read_tile, tiled, threads)
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
