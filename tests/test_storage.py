"""Image storage pipeline tests: bit extraction, tiling, load accounting,
and the end-to-end benchmark."""

import numpy as np
import pytest

from xbar import crossbar
from xbar.ivtable import StrandPair, synthesize_table
from xbar.storage import (
    ImageJob,
    StoreConfig,
    TileRecord,
    bit_load,
    image_to_bits,
    run_storage_benchmark,
    save_storage_report,
    tile_bits,
    valid_mask,
)

from factories import separable_pair


# --- bit extraction -------------------------------------------------------


def test_raw_bits_unpack_msb_first():
    bits = image_to_bits(ImageJob(source=bytes([0xF0]), name="x"))
    assert bits.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]


def test_gray_threshold_splits_at_level():
    job = ImageJob(
        source=bytes([0, 127, 128, 255]), binarization="gray-threshold", name="x"
    )
    assert image_to_bits(job).tolist() == [0, 0, 1, 1]


def test_gray_threshold_honors_custom_level():
    job = ImageJob(
        source=bytes([10, 50, 90]), binarization="gray-threshold", level=50, name="x"
    )
    assert image_to_bits(job).tolist() == [0, 1, 1]


def test_raw_bits_popcount_matches_oracle():
    rng = np.random.default_rng(41)
    payload = bytes(rng.integers(0, 256, size=200, dtype=np.uint8))
    bits = image_to_bits(ImageJob(source=payload, name="x"))
    assert bits.size == 1600
    assert int(bits.sum()) == sum(byte.bit_count() for byte in payload)


def test_image_job_rejects_bad_input():
    with pytest.raises(ValueError):
        ImageJob(source=b"", name="x")
    with pytest.raises(ValueError):
        ImageJob(source=b"a", binarization="dither", name="x")
    with pytest.raises(ValueError):
        ImageJob(source=b"a", binarization="gray-threshold", level=300, name="x")


# --- tiling ---------------------------------------------------------------


def test_tile_bits_pads_last_tile():
    bits = np.arange(10) % 2
    tiles, pad = tile_bits(bits, 2, 2)
    assert len(tiles) == 3 and pad == 2
    assert tiles[0].shape == (2, 2)
    # row-major fill: first four bits land in reading order
    assert tiles[0].ravel().tolist() == bits[:4].tolist()
    assert tiles[2].ravel().tolist() == [0, 1, 0, 0]


def test_tile_bits_exact_fit_has_no_pad():
    tiles, pad = tile_bits(np.ones(12, dtype=np.int8), 3, 4)
    assert len(tiles) == 1 and pad == 0


def test_tile_round_trip_recovers_stream():
    rng = np.random.default_rng(43)
    bits = rng.integers(0, 2, size=77).astype(np.int8)
    tiles, pad = tile_bits(bits, 4, 5)
    merged = np.concatenate([t.ravel() for t in tiles])
    assert np.array_equal(merged[: merged.size - pad], bits)


def test_valid_mask_marks_trailing_pad():
    mask = valid_mask(2, 3, pad=2)
    assert mask.shape == (2, 3)
    assert mask.sum() == 4
    assert not mask[1, 1] and not mask[1, 2]
    with pytest.raises(ValueError):
        valid_mask(2, 3, pad=6)
    with pytest.raises(ValueError):
        valid_mask(2, 3, pad=-1)


# --- load accounting ------------------------------------------------------


def test_bit_load_percentages():
    assert bit_load(np.zeros((4, 4), dtype=np.int8)) == 0.0
    checker = np.indices((4, 4)).sum(axis=0) % 2
    assert bit_load(checker) == 50.0


def test_bit_load_matches_popcount():
    rng = np.random.default_rng(47)
    tile = rng.integers(0, 2, size=(8, 8)).astype(np.int8)
    assert bit_load(tile) == pytest.approx(100.0 * tile.sum() / 64)


def test_bit_load_excludes_pad_from_denominator():
    tile = np.zeros((2, 3), dtype=np.int8)
    tile[0, :] = 1  # three ones, then one valid zero, then two pad cells
    assert bit_load(tile, pad=2) == pytest.approx(75.0)
    with pytest.raises(ValueError):
        bit_load(tile, pad=6)


# --- benchmark ------------------------------------------------------------


def test_benchmark_round_trip_is_exact_at_low_interconnect():
    rng = np.random.default_rng(59)
    payload = bytes(rng.integers(0, 256, size=100, dtype=np.uint8))
    report = run_storage_benchmark(
        StoreConfig(
            jobs=[ImageJob(source=payload, name="img")],
            r_ints=[1e4],
            sizes=[(8, 8)],
            pair=separable_pair(),
        )
    )
    assert report.failures == 0
    assert len(report.per_tile) == 13  # 800 bits into 64-cell tiles
    for record in report.per_tile:
        assert record.ber == 0.0
        assert record.converged


def test_benchmark_single_class_tile_reads_clean():
    report = run_storage_benchmark(
        StoreConfig(
            jobs=[ImageJob(source=bytes([0]), name="zeros")],
            r_ints=[1e4],
            sizes=[(2, 4)],
            pair=separable_pair(),
        )
    )
    (record,) = report.per_tile
    assert record.bit_load_pct == 0.0
    assert record.ber == 0.0


def test_benchmark_power_decreases_with_interconnect_resistance():
    rng = np.random.default_rng(61)
    payload = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
    report = run_storage_benchmark(
        StoreConfig(
            jobs=[ImageJob(source=payload, name="img")],
            r_ints=[1e4, 1e5, 1e6],
            sizes=[(16, 16)],
            pair=separable_pair(),
        )
    )
    rows = {row["r_int_ohm"]: row["power_mean_w"] for row in report.power_vs_rint}
    assert rows[1e4] > rows[1e5] > rows[1e6]


def test_benchmark_is_thread_invariant():
    rng = np.random.default_rng(67)
    payload = bytes(rng.integers(0, 256, size=24, dtype=np.uint8))
    jobs = [ImageJob(source=payload, name="img")]
    config = StoreConfig(jobs, r_ints=[1e5], sizes=[(8, 8)], pair=separable_pair())
    one = run_storage_benchmark(config, threads=1)
    three = run_storage_benchmark(config, threads=3)
    assert one.per_tile == three.per_tile
    assert one.binned_ber == three.binned_ber


@pytest.mark.parametrize(
    "sizes, r_ints, repeated",
    [([(8, 8), (4, 4), (8, 8)], [1e4], "size 8x8"), ([(4, 4)], [1e4, 1e5, 1e4], "r_int 10000")],
)
def test_benchmark_rejects_a_condition_listed_twice(sizes, r_ints, repeated):
    """A repeated size or interconnect value would read every tile of the
    condition twice and report each tile id twice."""
    with pytest.raises(ValueError, match=f"^{repeated} is listed more than once$"):
        StoreConfig(
            jobs=[ImageJob(source=bytes([7, 9]), name="img")],
            r_ints=r_ints,
            sizes=sizes,
            pair=separable_pair(),
        )


def test_binned_stats_group_by_condition_and_load():
    rng = np.random.default_rng(71)
    payload = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
    report = run_storage_benchmark(
        StoreConfig(
            jobs=[ImageJob(source=payload, name="img")],
            r_ints=[1e4],
            sizes=[(8, 8)],
            pair=separable_pair(),
        )
    )
    assert report.binned_ber
    total = sum(row["count"] for row in report.binned_ber)
    assert total == len(report.per_tile)
    for row in report.binned_ber:
        assert row["q1"] <= row["median"] <= row["q3"]
        assert row["min"] <= row["q1"] and row["q3"] <= row["max"]


def saved_storage_files(threads, tmp_path, name):
    # lossy strands at a sneak-heavy interconnect, so that the tiles' errors differ
    pair = StrandPair(
        logic0_table=synthesize_table(3.6e8, 7.2e9, strand_id="lossy0"),
        logic1_table=synthesize_table(3e7, 6e8, strand_id="lossy1"),
    )
    rng = np.random.default_rng(83)
    jobs = [
        ImageJob(source=bytes(rng.integers(0, 256, size=300, dtype=np.uint8)), name="a"),
        ImageJob(
            source=bytes(rng.integers(0, 256, size=700, dtype=np.uint8)),
            binarization="gray-threshold",
            name="b",
        ),
    ]
    report = run_storage_benchmark(
        StoreConfig(jobs, [(8, 8), (6, 10)], [1e4, 1e6], pair), threads=threads
    )
    out = tmp_path / name
    save_storage_report(report, out)
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_storage_report_does_not_depend_on_stacking_or_threads(tmp_path, monkeypatch):
    """One tile per stack, four, the default stacks and every tile of a
    condition in one stack write the same bytes, on one thread or three."""
    reference = saved_storage_files(1, tmp_path, "reference")
    for cells in (1, 2**8, crossbar.STACK_CELLS, 2**20):
        monkeypatch.setattr(crossbar, "STACK_CELLS", cells)
        for threads in (1, 3):
            assert saved_storage_files(threads, tmp_path, f"{cells}-{threads}") == reference


def test_aggregates_regroup_per_tile_records_by_condition(monkeypatch):
    """Two sizes by two interconnect values, every tile of one condition
    forced unconverged: the binned BER rows and mean powers are exactly a
    regrouping of the per-tile records by condition and rounded load, and
    the failed condition contributes to neither."""
    read = crossbar.parametric_solve

    def fail_one_condition(spec, params, **kwargs):
        sol = read(spec, params, **kwargs)
        if (spec.m, spec.r_int) == (8, 1e5):
            sol.converged[:] = False  # one flag per tile of the stack
        return sol

    monkeypatch.setattr(crossbar, "parametric_solve", fail_one_condition)
    rng = np.random.default_rng(79)
    jobs = [
        ImageJob(source=bytes(rng.integers(0, 256, size=40, dtype=np.uint8)), name="a"),
        ImageJob(
            source=bytes(rng.integers(0, 256, size=96, dtype=np.uint8)),
            binarization="gray-threshold",
            name="b",
        ),
    ]
    sizes, r_ints = [(4, 4), (8, 8)], [1e4, 1e5]
    report = run_storage_benchmark(StoreConfig(jobs, sizes, r_ints, separable_pair()))

    failed = [r for r in report.per_tile if not r.converged]
    assert failed and {(r.m, r.r_int) for r in failed} == {(8, 1e5)}
    assert report.failures == len(failed)
    binned, powers = [], []
    for m, n in sizes:
        for r_int in r_ints:
            group = [
                r for r in report.per_tile
                if r.converged and (r.m, r.n, r.r_int) == (m, n, r_int)
            ]
            for load in sorted({int(round(r.bit_load_pct)) for r in group}):
                bers = [r.ber for r in group if int(round(r.bit_load_pct)) == load]
                q1, med, q3 = np.percentile(bers, [25.0, 50.0, 75.0])
                binned.append(
                    {"m": m, "n": n, "r_int_ohm": r_int, "bit_load_pct": load,
                     "count": len(bers), "median": med, "q1": q1, "q3": q3,
                     "min": min(bers), "max": max(bers)}
                )
            if group:
                powers.append(
                    {"m": m, "n": n, "r_int_ohm": r_int,
                     "power_mean_w": np.mean([r.power_w for r in group])}
                )
    assert len(powers) == 3
    assert report.binned_ber == binned
    assert report.power_vs_rint == powers


def test_save_storage_report_writes_stable_files(tmp_path):
    rng = np.random.default_rng(73)
    payload = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
    report = run_storage_benchmark(
        StoreConfig(
            jobs=[ImageJob(source=payload, name="img")],
            r_ints=[1e4],
            sizes=[(4, 4)],
            pair=separable_pair(),
        )
    )
    save_storage_report(report, tmp_path / "a")
    save_storage_report(report, tmp_path / "b")
    tiles_a = (tmp_path / "a" / "storage_tiles.csv").read_bytes()
    tiles_b = (tmp_path / "b" / "storage_tiles.csv").read_bytes()
    assert tiles_a == tiles_b
    header = tiles_a.decode().splitlines()[0]
    assert header == "tile_id,size,r_int_ohm,bit_load_pct,ber,power_w"
    summary = (tmp_path / "a" / "storage_summary.json").read_text()
    assert '"binned_ber"' in summary and '"power_vs_rint"' in summary
