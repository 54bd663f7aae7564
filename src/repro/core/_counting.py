"""Shared closed-form access counting for CSR SpMM kernel models.

All simulated kernels decompose the output into (row, column-segment)
warp tasks: a warp owns one sparse row and a contiguous span of output
columns (32 columns per warp, or ``32 * CF`` under Coarse-grained Warp
Merging).  The helpers here compute the exact 32-byte sector counts for
the access patterns those kernels share:

* dense-matrix row-segment loads (``B[k, j0:j0+len]``),
* output stores (``C[i, j0:j0+len]``),
* coalesced 32-element sparse tile loads (CRC),
* broadcast walks over a sparse row (Algorithm 1, SpMV-style kernels).

Every counter routes through the per-matrix
:class:`~repro.core.access_profile.AccessProfile` — histogram closed
forms computed once per matrix and shared across all kernels, widths,
and GPUs.  ``tests/test_access_profile.py`` checks them for exact
integer equality against the array-expansion references in
``tests/references.py``.

Counts are exact under the alignment established by ``TraceMemory``
(buffers are 32 B aligned).  For dense segments this means: when
``N % 8 == 0`` every row of ``B`` starts on a sector boundary and the
closed form ``ceil(len/8)`` per segment applies; otherwise the count
depends on each nonzero's column modulo 8.  The trace-vs-analytic
property tests exercise both paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.access_profile import (
    ELEMS_PER_SECTOR,
    AccessTotals,
    dense_segments,
    access_profile,
)
from repro.gpusim.memory import segment_sectors
from repro.sparse.csr import CSRMatrix

__all__ = [
    "dense_segments",
    "AccessTotals",
    "ELEMS_PER_SECTOR",
    "count_b_loads",
    "count_c_stores",
    "count_tile_loads",
    "broadcast_walk_sectors",
    "unique_b_columns",
    "occupied_rows",
    "warps_per_row",
]

def warps_per_row(n: int, cf: int = 1) -> int:
    """Number of warps covering ``n`` output columns at coarsening ``cf``."""
    span = 32 * cf
    return (n + span - 1) // span


# ----------------------------------------------------------------------
# Public counters: profile-backed closed forms
# ----------------------------------------------------------------------
def count_b_loads(a: CSRMatrix, n: int) -> AccessTotals:
    """Dense-matrix loads: one 32-wide segment load per nonzero per
    segment of the row span.  Exact sector count."""
    return access_profile(a).b_loads(n)


def count_c_stores(a: CSRMatrix, n: int) -> AccessTotals:
    """Output stores: one segment store per (row, segment)."""
    return access_profile(a).c_stores(n)


def count_tile_loads(a: CSRMatrix, tile: int = 32) -> AccessTotals:
    """Coalesced tile loads of one sparse-side array (colind *or* values):
    per row, ``ceil(L/tile)`` warp loads of up to ``tile`` consecutive
    elements starting at ``rowptr[i] + t*tile``.

    Returns totals **per column-segment warp** — multiply by the number
    of warps sharing the row to get kernel totals.
    """
    if tile % ELEMS_PER_SECTOR != 0:
        # Exotic tiles (not sector multiples) break the phase-histogram
        # identity; no built-in kernel uses one, but stay exact anyway.
        return _expanded_tile_loads(a, tile)
    return access_profile(a).tile_loads(tile)


def broadcast_walk_sectors(a: CSRMatrix) -> int:
    """Distinct sectors touched when a warp walks a sparse row one
    element at a time (broadcast loads): the L1-filtered transaction
    count of Algorithm 1's sparse loads, per column-segment warp and per
    sparse array."""
    return access_profile(a).broadcast_sectors()


def unique_b_columns(a: CSRMatrix) -> int:
    """Number of distinct dense-matrix rows the kernel touches (the
    compulsory footprint of ``B``)."""
    return access_profile(a).unique_b_columns


def occupied_rows(a: CSRMatrix) -> int:
    """Number of rows holding at least one stored element (SDDMM loads
    one X row per occupied row)."""
    return access_profile(a).occupied_rows


def _expanded_tile_loads(a: CSRMatrix, tile: int) -> AccessTotals:
    """:func:`count_tile_loads` by expanding one entry per tile, valid
    for any ``tile >= 1``."""
    lengths = a.row_lengths()
    n_tiles = (lengths + tile - 1) // tile
    total_tiles = int(n_tiles.sum())
    if total_tiles == 0:
        return AccessTotals(0, 0, 0)
    # Expand one entry per tile: row starts repeated, tile index within row.
    row_of_tile = np.repeat(np.arange(a.nrows, dtype=np.int64), n_tiles)
    tile_idx = np.arange(total_tiles, dtype=np.int64) - np.repeat(
        np.cumsum(n_tiles) - n_tiles, n_tiles
    )
    starts = a.rowptr64()[:-1][row_of_tile] + tile_idx * tile
    lens = np.minimum(tile, lengths[row_of_tile] - tile_idx * tile)
    sectors = int(segment_sectors(starts, lens).sum())
    requested = int(lens.sum()) * 4
    return AccessTotals(total_tiles, sectors, requested)
