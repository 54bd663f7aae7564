"""The shared hypothesis strategy for the host-executor suites.

``csr_matrices`` draws CSR matrices from every shape family the sliced
reduce in ``repro.sparse.segment`` lays out differently, so the parity
suites exercise each part of the jagged-diagonal plan:

* ``random``: up to 30 rows, nonzeros concentrated on half of them (so
  some rows are empty), duplicates summed;
* ``hubs``: 30–300 short rows plus a few hub rows, i.e. a multi-block
  head with heavy-row tails;
* ``uniform``: every row has the same length (blocks only, no tail);
* ``few_rows``: fewer nonempty rows than ``_SLICE_MIN_ROWS`` (block 0
  plus tails only);
* ``all_empty``: no nonzeros at all;
* ``single_row``: one row.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.sparse import csr_from_coo
from repro.sparse.segment import _SLICE_MIN_ROWS

SHAPES = ("random", "hubs", "uniform", "few_rows", "all_empty", "single_row")


def _from_lengths(rng, lengths, k, integer_values):
    """A matrix whose row ``i`` holds ``lengths[i]`` distinct columns."""
    m = lengths.size
    picks = np.argsort(rng.random((m, k)), axis=1)
    rows, slots = np.nonzero(np.arange(k) < lengths[:, None])
    return _csr(rng, rows, picks[rows, slots], (m, k), integer_values)


def _csr(rng, rows, cols, shape, integer_values):
    if integer_values:
        vals = rng.integers(-4, 5, size=rows.size).astype(np.float32)
    else:
        vals = rng.standard_normal(rows.size).astype(np.float32)
    return csr_from_coo(rows, cols, vals, shape=shape, sum_duplicates=True)


@st.composite
def csr_matrices(draw, integer_values=False):
    """Random CSR from one of :data:`SHAPES`; optionally integer-valued
    float32 entries so plus/mean accumulation is exact."""
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    if shape == "random":
        m, k = draw(st.integers(1, 30)), draw(st.integers(1, 25))
        nnz = draw(st.integers(0, min(150, m * k)))
        rows = rng.integers(0, max(1, m // 2), size=nnz)
        return _csr(rng, rows, rng.integers(0, k, size=nnz), (m, k), integer_values)
    if shape == "hubs":
        m, k = draw(st.integers(30, 300)), draw(st.integers(20, 60))
        lengths = rng.integers(0, 7, size=m)
        hubs = rng.choice(m, size=draw(st.integers(1, 4)), replace=False)
        lengths[hubs] = rng.integers(k // 2, k + 1, size=hubs.size)
        return _from_lengths(rng, lengths, k, integer_values)
    if shape == "uniform":
        m, k = draw(st.integers(1, 120)), draw(st.integers(1, 16))
        return _from_lengths(rng, np.full(m, draw(st.integers(1, k))), k, integer_values)
    if shape == "few_rows":
        m, k = draw(st.integers(1, 60)), draw(st.integers(1, 25))
        lengths = np.zeros(m, dtype=np.int64)
        n_active = min(m, draw(st.integers(1, _SLICE_MIN_ROWS - 1)))
        active = rng.choice(m, size=n_active, replace=False)
        lengths[active] = rng.integers(1, k + 1, size=active.size)
        return _from_lengths(rng, lengths, k, integer_values)
    if shape == "all_empty":
        m, k = draw(st.integers(1, 40)), draw(st.integers(1, 25))
        return _from_lengths(rng, np.zeros(m, dtype=np.int64), k, integer_values)
    k = draw(st.integers(1, 40))
    return _from_lengths(rng, np.array([draw(st.integers(0, k))]), k, integer_values)
