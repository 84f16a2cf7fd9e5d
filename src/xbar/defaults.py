"""Representative strand tables shipped with the package.

The pair is synthetic but sized to behave like the real read problem:
hundreds-of-megaohm cells, a 20x current contrast at the full read bias,
and a level-offset sensitivity strong enough that disorder studies show
errors before the interconnect alone ruins the read.  Benchmarks, the
command line, and the acceptance suite all default to these files so that
results are comparable across machines.
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

from xbar.ivtable import StrandPair, load_table, synthesize_table

LOGIC1_NAME = "logic1.json"
LOGIC0_NAME = "logic0.json"

# logic 1 is the conductive strand; logic 0 carries 20x less current at
# every bias point, same knee shape
R_LOGIC1 = 4e8
CONTRAST = 20.0
DELTA_SENSITIVITY = 12.0


def build_shipped_tables() -> StrandPair:
    """Regenerate the shipped pair from its defining parameters."""
    logic1 = synthesize_table(
        R_LOGIC1,
        20.0 * R_LOGIC1,
        delta_sensitivity=DELTA_SENSITIVITY,
        strand_id="rep-logic1",
    )
    logic0 = synthesize_table(
        CONTRAST * R_LOGIC1,
        20.0 * CONTRAST * R_LOGIC1,
        delta_sensitivity=DELTA_SENSITIVITY,
        strand_id="rep-logic0",
    )
    return StrandPair(logic0_table=logic0, logic1_table=logic1)


def shipped_table_path(name: str) -> Path:
    return Path(str(files("xbar").joinpath("data", name)))


def shipped_pair() -> StrandPair:
    """Load the packaged table files."""
    return StrandPair(
        logic0_table=load_table(shipped_table_path(LOGIC0_NAME)),
        logic1_table=load_table(shipped_table_path(LOGIC1_NAME)),
    )
