"""The benchmark's own test: every workload at a tiny size, run twice with
tracing, must repeat its exact counts and its output digests."""

import pytest

import run
import spans
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_repeats_exactly(name):
    first, second = (
        run.run_workload(name, seed=11, cycles=2, trace=True, scale="tiny", canonical=False)
        for _ in range(2)
    )
    assert first["problems"] == [] and first["failed"] == 0
    assert first["counts"] == second["counts"]
    assert first["digests"] == second["digests"]
    assert len(set(first["digests"])) == 2  # each cycle has its own inputs
    assert first["counts"]["runio.bytes_written"] > 0
    layer_count = {
        "mc-128": "crossbar.iterations",
        "oracle-64": "nodal.sweeps_per_row",
        "store-sweep": "crossbar.iterations",
        "ivgen-chain": "transport.energies",
    }[name]
    assert first["counts"][layer_count] > 0


def test_tracer_restores_every_patched_function():
    cli = run.load_cli()
    import xbar.crossbar
    import xbar.ivtable

    before = (xbar.ivtable.interpolate_current, xbar.crossbar.interpolate_current, cli.main)
    with spans.Tracer():
        assert xbar.crossbar.interpolate_current is not before[1]
    assert (xbar.ivtable.interpolate_current, xbar.crossbar.interpolate_current, cli.main) == before


def test_self_time_counts_overlapping_children_once():
    # parent 0..10 with two pool children overlapping on 2..6, one nested
    # grandchild that must not reduce the parent's self time again
    trace = [
        (1, "storage.run", 0.0, 10.0, None, "c", 1, None),
        (2, "crossbar.solve", 2.0, 5.0, 1, "c", 2, None),
        (3, "crossbar.solve", 3.0, 6.0, 1, "c", 3, None),
        (4, "ivtable.lookup", 3.5, 4.5, 3, "c", 3, None),
    ]
    selfs = spans.self_times(trace)
    assert selfs == {1: 6.0, 2: 3.0, 3: 2.0, 4: 1.0}
