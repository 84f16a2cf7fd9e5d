"""Tables, strand pairs, arrays and a brute-force grader the tests share.

Strand ids are arguments with defaults: each test module keeps the ids it
has always used, and the CLI tests pin manifest digests that cover them.
"""

import numpy as np

from xbar.defaults import shipped_pair
from xbar.ivtable import IVTable, StrandPair, synthesize_table
from xbar.model import CrossbarSpec


def linear_table(resistance, strand_id):
    """Exactly ohmic table: bilinear interpolation reproduces v/R for any
    query, so chord conductance is 1/R everywhere."""
    v_grid = np.array([0.0, 0.5, 1.0])
    delta_grid = np.array([0.0, 0.2])
    current = np.tile(v_grid / resistance, (delta_grid.size, 1))
    return IVTable(
        strand_id=strand_id, v_grid=v_grid, delta_grid=delta_grid, current=current
    )


def linear_pair(r1, r0, ids=("lin1", "lin0")):
    return StrandPair(
        logic0_table=linear_table(r0, ids[1]),
        logic1_table=linear_table(r1, ids[0]),
    )


def separable_pair():
    # two ohmic strands 100x apart: classes can never overlap
    return linear_pair(1e6, 1e8)


def knee_pair(r1=1e10, ratio=12.0, ids=("syn1", "syn0")):
    # low-bias resistance r1 with a conductance knee near mid-bias; the
    # logic-0 strand is the same shape scaled down by the contrast ratio
    t1 = synthesize_table(r1, 20.0 * r1, strand_id=ids[0])
    t0 = synthesize_table(ratio * r1, 20.0 * ratio * r1, strand_id=ids[1])
    return StrandPair(logic0_table=t0, logic1_table=t1)


def random_spec(seed, m, n, r_int, pair):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(m, n)).astype(np.int8)
    return CrossbarSpec(m=m, n=n, r_int=r_int, v_in=1.0, bits=bits, pair=pair)


def disordered_spec(seed, m, n, r_int):
    """Random bits and per-cell level offsets on the shipped tables."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(m, n)).astype(np.int8)
    delta = rng.uniform(0.0, 0.2, size=(m, n))
    return CrossbarSpec(m=m, n=n, r_int=r_int, bits=bits, pair=shipped_pair(), delta=delta)


def brute_force_ber(currents, labels):
    """Fewest misreads over every cut between distinct currents and both
    outside sentinels, in either polarity, as a fraction of the pool."""
    c = np.asarray(currents, dtype=float)
    y = np.asarray(labels)
    distinct = np.unique(c)
    cuts = [-np.inf, np.inf]
    cuts.extend(0.5 * (distinct[:-1] + distinct[1:]))
    best = c.size
    for t in cuts:
        err_high = int(np.sum((c > t) != (y == 1)))
        best = min(best, err_high, c.size - err_high)
    return best / c.size
