"""Each benchmark workload's canonical case, at full scale, must match the
committed reference.  The benchmark's own test runs its workloads without
the canonical case, so a call in `perfbench/workloads.py` that the library
no longer accepts would otherwise surface only when the benchmark runs."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_canonical_case_matches_the_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name](run.SRC, tmp_path, seed=1, scale="full")
    got = workload.canonical(lambda argv: run.call_cli(run.load_cli(), argv))
    assert workloads.compare_reference(name, got, workload.tolerances()) == []
