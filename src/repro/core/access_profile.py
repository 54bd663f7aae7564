"""Per-matrix access profiles: histogram closed forms for sector counting.

Every analytic ``count()`` in the simulator reduces to the same handful
of per-matrix quantities — how many 32 B sectors a warp touches walking a
sparse row, loading its 32-element tiles, or streaming dense row
segments of ``B``/``C``.  The old counters in :mod:`repro.core._counting`
re-derived these from scratch per call, expanding O(nnz) temporaries and
looping over column segments in Python when ``N % 8 != 0``.

Following the observation (Yang, Buluç & Owens, *Design Principles for
Sparse Matrix Multiplication on the GPU*) that SpMM cost models are
functions of the row-length *distribution*, this module collapses the
counters into closed forms over two small histograms computed once per
matrix:

* the ``(start mod 8, length)`` pair histogram of the rows, and
* the ``colind mod 8`` residue-class histogram of the nonzeros.

The key identity: :func:`repro.gpusim.memory.segment_sectors` for
4-byte elements is invariant under ``start -> start + 8`` (shifting a
range by one full sector shifts both its first and last sector by one),
so a contiguous range's sector count depends only on ``(start mod 8,
length)``.  Rows sharing that pair are interchangeable, and a nonzero's
``B``-row base address ``colind * N`` depends only on ``colind mod 8``.
Aligned widths (``N % 8 == 0``) need only the row-length histogram; the
unaligned case becomes one vectorized :func:`segment_sectors` call over
an ``(8, n_segments)`` base grid — O(distinct lengths + segments)
instead of O(nnz x segments).

:class:`AccessProfile` instances are built lazily, cached on the
(immutable) :class:`~repro.sparse.csr.CSRMatrix` via
:func:`access_profile`, and cache their per-``N``/per-tile results, so
a sweep touching the same matrix at many widths, kernels, and GPUs pays
the O(nnz) histogram pass exactly once.  Hits and misses surface as the
``access_profile.hits`` / ``.misses`` counters.  Exactness against the
array-expansion references in ``tests/references.py`` is enforced
bit-for-bit by ``tests/test_access_profile.py`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.gpusim.memory import segment_sectors
from repro.sparse.csr import CSRMatrix

__all__ = [
    "ELEMS_PER_SECTOR",
    "AccessTotals",
    "AccessProfile",
    "dense_segments",
    "access_profile",
    "seed_access_profile",
    "clear_access_profile",
]

ELEMS_PER_SECTOR = 8  # 32-byte sector / 4-byte element


def dense_segments(n: int) -> List[Tuple[int, int]]:
    """The ``(start_column, length)`` of each 32-wide warp load segment
    covering ``n`` columns.  Independent of CF: a CF-coarsened warp issues
    CF of these segments itself, so the union over the row is identical.
    """
    return [(s, min(32, n - s)) for s in range(0, n, 32)]


def _pair_histogram(
    rowptr64: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows' ``(start mod 8, length)`` histogram as ``int64`` arrays
    ``(phase, length, count)``, sorted by ``(phase, length)``.

    Both are encoded into one key ``phase * span + length``; a dense
    ``bincount`` over the key space counts them while it holds at most
    2**20 keys (no row longer than 131,071 elements), ``np.unique``
    otherwise.
    """
    span = int(lengths.max()) + 1 if lengths.size else 1
    keys = (rowptr64[:-1] % ELEMS_PER_SECTOR) * span + lengths
    if ELEMS_PER_SECTOR * span <= 1 << 20:
        dense = np.bincount(keys, minlength=ELEMS_PER_SECTOR * span)
        pairs = np.flatnonzero(dense)
        counts = dense[pairs]
    else:
        pairs, counts = np.unique(keys, return_counts=True)
    return pairs // span, pairs % span, counts.astype(np.int64)


@dataclass(frozen=True)
class AccessTotals:
    """Totals of one access pattern over the whole kernel."""

    instructions: int
    sectors: int
    requested_bytes: int


class AccessProfile:
    """Lazily-cached sector-count closed forms for one CSR matrix.

    Construction runs the two O(nnz) histogram passes; every query after
    that is O(distinct row lengths) (aligned) or O(8 x segments)
    (unaligned) and cached per ``n``/``tile``.
    """

    __slots__ = (
        "nrows",
        "ncols",
        "nnz",
        "unique_b_columns",
        "occupied_rows",
        "_pl_phase",
        "_pl_len",
        "_pl_count",
        "_colind_mod8",
        "_col_counts",
        "_b_loads",
        "_c_stores",
        "_tiles",
        "_grids",
        "_broadcast",
    )

    def __init__(self, a: CSRMatrix) -> None:
        self.nrows = a.nrows
        self.ncols = a.ncols
        self.nnz = a.nnz
        lengths = a.row_lengths()
        self._pl_phase, self._pl_len, self._pl_count = _pair_histogram(
            a.rowptr64(), lengths
        )
        # Residue classes of the nonzeros' column indices: the B-row base
        # address colind*N has phase (colind mod 8 * N) mod 8.
        self._colind_mod8 = np.bincount(
            a.colind % ELEMS_PER_SECTOR, minlength=ELEMS_PER_SECTOR
        ).astype(np.int64)
        self.unique_b_columns = int(np.unique(a.colind).size) if a.nnz else 0
        self.occupied_rows = int((lengths > 0).sum())
        #: int64[ncols] multiplicity of each column, built lazily by the
        #: first incremental update (it is only needed to maintain
        #: ``unique_b_columns`` across deltas) — maintenance state, not
        #: part of the query surface or the parity contract.
        self._col_counts: "np.ndarray | None" = None
        self._b_loads: Dict[int, AccessTotals] = {}
        self._c_stores: Dict[int, AccessTotals] = {}
        self._tiles: Dict[int, AccessTotals] = {}
        self._grids: Dict[int, np.ndarray] = {}
        self._broadcast: int = -1

    # ------------------------------------------------------------------
    # Dense-side counters (B loads / C stores)
    # ------------------------------------------------------------------
    def _phase_grid(self, n: int) -> np.ndarray:
        """``int64[8]``: total sectors of one dense row of width ``n``
        whose base address is ``j`` elements past a sector boundary,
        summed over all of the row's 32-wide segments — one vectorized
        ``segment_sectors`` call over the (8, n_segments) base grid."""
        grid = self._grids.get(n)
        if grid is None:
            seg_starts = np.arange(0, n, 32, dtype=np.int64)
            seg_lens = np.minimum(32, n - seg_starts)
            bases = np.arange(ELEMS_PER_SECTOR, dtype=np.int64)[:, None] + seg_starts[None, :]
            grid = segment_sectors(bases, seg_lens[None, :]).sum(axis=1)
            self._grids[n] = grid
        return grid

    def _aligned_row_sectors(self, n: int) -> int:
        """Sectors of one dense row of width ``n`` starting on a sector
        boundary (the ``N % 8 == 0`` closed form)."""
        return sum((length + 7) // 8 for _, length in dense_segments(n))

    def b_loads(self, n: int) -> AccessTotals:
        """Dense-matrix loads: one 32-wide segment load per nonzero per
        segment of the row span.  Exact sector count."""
        n = int(n)
        out = self._b_loads.get(n)
        if out is not None:
            return out
        nseg = len(dense_segments(n))
        instructions = self.nnz * nseg
        requested = self.nnz * n * 4
        if n % ELEMS_PER_SECTOR == 0:
            sectors = self.nnz * self._aligned_row_sectors(n)
        else:
            # Nonzero with colind ≡ j (mod 8) loads a row based at phase
            # (j*n) mod 8; weight the per-phase grid by the residue counts.
            phase_of = (np.arange(ELEMS_PER_SECTOR, dtype=np.int64) * n) % ELEMS_PER_SECTOR
            sectors = int(np.dot(self._colind_mod8, self._phase_grid(n)[phase_of]))
        out = AccessTotals(int(instructions), int(sectors), int(requested))
        self._b_loads[n] = out
        return out

    def c_stores(self, n: int) -> AccessTotals:
        """Output stores: one segment store per (row, segment)."""
        n = int(n)
        out = self._c_stores.get(n)
        if out is not None:
            return out
        m = self.nrows
        nseg = len(dense_segments(n))
        instructions = m * nseg
        requested = m * n * 4
        if n % ELEMS_PER_SECTOR == 0:
            sectors = m * self._aligned_row_sectors(n)
        else:
            # Row i stores at base i*n, phase ((i mod 8)*n) mod 8; the
            # count of rows with i ≡ j (mod 8) is (m - j + 7) // 8.
            j = np.arange(ELEMS_PER_SECTOR, dtype=np.int64)
            rows_per_residue = (m - j + 7) // ELEMS_PER_SECTOR
            phase_of = (j * n) % ELEMS_PER_SECTOR
            sectors = int(np.dot(rows_per_residue, self._phase_grid(n)[phase_of]))
        out = AccessTotals(int(instructions), int(sectors), int(requested))
        self._c_stores[n] = out
        return out

    # ------------------------------------------------------------------
    # Sparse-side counters (tile loads / broadcast walks)
    # ------------------------------------------------------------------
    def tile_loads(self, tile: int = 32) -> AccessTotals:
        """Coalesced tile loads of one sparse-side array (colind *or*
        values): per row, ``ceil(L/tile)`` warp loads of up to ``tile``
        consecutive elements starting at ``rowptr[i] + t*tile``.

        Requires ``tile % 8 == 0`` (all simulated kernels use multiples
        of 32) so every tile of a row shares the row's start phase —
        ``count_tile_loads`` expands exotic tiles instead.  Returns
        totals **per column-segment warp**.
        """
        tile = int(tile)
        if tile % ELEMS_PER_SECTOR != 0:
            raise ValueError(
                f"tile={tile} is not a multiple of {ELEMS_PER_SECTOR}; "
                "phase-histogram tiling does not apply"
            )
        out = self._tiles.get(tile)
        if out is not None:
            return out
        # tile % 8 == 0 keeps every tile of a row at the row's phase, so
        # a (phase, L) row costs full*S(phase, tile) + S(phase, L % tile).
        full = self._pl_len // tile
        rem = self._pl_len % tile
        full_tile_sectors = segment_sectors(self._pl_phase, np.full_like(self._pl_phase, tile))
        per_row = full * full_tile_sectors + segment_sectors(self._pl_phase, rem)
        sectors = int(np.dot(self._pl_count, per_row))
        instructions = int(np.dot(self._pl_count, full + (rem > 0)))
        requested = int(np.dot(self._pl_count, self._pl_len)) * 4
        out = AccessTotals(instructions, sectors, requested)
        self._tiles[tile] = out
        return out

    def broadcast_sectors(self) -> int:
        """Distinct sectors touched when a warp walks a sparse row one
        element at a time (broadcast loads), summed over rows."""
        if self._broadcast < 0:
            self._broadcast = int(
                np.dot(self._pl_count, segment_sectors(self._pl_phase, self._pl_len))
            )
        return self._broadcast

    # ------------------------------------------------------------------
    # Incremental evolution under edge deltas
    # ------------------------------------------------------------------
    def updated(
        self,
        *,
        rowptr64: np.ndarray,
        lengths: np.ndarray,
        removed_cols: np.ndarray,
        added_cols: np.ndarray,
        parent_colind: np.ndarray,
    ) -> "AccessProfile":
        """A new profile reflecting an edge delta, without the O(nnz)
        constructor passes over ``colind``.

        ``rowptr64``/``lengths`` are the child's row pointers and row
        lengths; the ``(phase, length)`` pair histogram is recomputed
        from them in one O(M) :func:`_pair_histogram` pass (a scattered
        insert rotates the start phase of nearly every later row, so a
        changed-row patch would touch almost all of them anyway).
        ``removed_cols``/``added_cols`` are the deleted and inserted
        column indices (value updates move no columns); the residue and
        column-multiplicity state moves by exactly those, in O(Δ).  The
        result is canonically identical — same arrays, same ordering,
        same dtypes — to ``AccessProfile(child_matrix)``; the delta
        parity suite enforces this.

        ``parent_colind`` seeds the per-column multiplicity table on the
        first incremental update (one O(nnz) ``bincount``, amortized over
        the whole delta chain); afterwards ``unique_b_columns`` is
        maintained in O(Δ).
        """
        child = object.__new__(AccessProfile)
        child.nrows = self.nrows
        child.ncols = self.ncols
        child.nnz = int(rowptr64[-1])
        child._pl_phase, child._pl_len, child._pl_count = _pair_histogram(
            rowptr64, lengths
        )
        child.occupied_rows = int((lengths > 0).sum())

        # colind mod-8 residue histogram: additive in edges.
        child._colind_mod8 = (
            self._colind_mod8
            - np.bincount(removed_cols % ELEMS_PER_SECTOR, minlength=ELEMS_PER_SECTOR)
            + np.bincount(added_cols % ELEMS_PER_SECTOR, minlength=ELEMS_PER_SECTOR)
        ).astype(np.int64)

        # Column multiplicities -> unique_b_columns in O(Δ).
        col_counts = self._col_counts
        if col_counts is None:
            col_counts = np.bincount(
                parent_colind, minlength=self.ncols
            ).astype(np.int64)
            self._col_counts = col_counts  # cache: one seed per parent
        new_counts = col_counts.copy()
        np.subtract.at(new_counts, removed_cols, 1)
        np.add.at(new_counts, added_cols, 1)
        affected = np.unique(np.concatenate([removed_cols, added_cols]))
        if affected.size and new_counts[affected].min() < 0:
            raise ValueError("column-count update went negative; the "
                             "removed set does not match the parent profile")
        child.unique_b_columns = self.unique_b_columns + int(
            (new_counts[affected] > 0).sum() - (col_counts[affected] > 0).sum()
        )
        child._col_counts = new_counts

        # Per-n/tile memos depend on the histograms: start fresh.  The
        # base grids are pure functions of n, so they carry over.
        child._b_loads = {}
        child._c_stores = {}
        child._tiles = {}
        child._grids = dict(self._grids)
        child._broadcast = -1
        return child


def access_profile(a: CSRMatrix) -> AccessProfile:
    """The cached :class:`AccessProfile` of ``a`` (built on first use).

    Lives in the matrix's derived cache alongside ``colind64`` et al.;
    safe under concurrent builders (construction is pure, last write
    wins with an identical value).  ``access_profile.hits`` / ``.misses``
    count cache effectiveness.
    """
    from repro import obs  # late: keep the core import graph light

    prof = a._derived.get("access_profile")
    if prof is not None:
        obs.get_registry().counter("access_profile.hits").inc()
        return prof
    obs.get_registry().counter("access_profile.misses").inc()
    prof = AccessProfile(a)
    a._derived["access_profile"] = prof
    return prof


def seed_access_profile(a: CSRMatrix, prof: AccessProfile) -> None:
    """Install a profile built out-of-band — the delta path evolves the
    parent's cached profile via :meth:`AccessProfile.updated` and seeds
    it here so the child matrix never pays the O(nnz) constructor.
    Counted as ``access_profile.seeded``."""
    from repro import obs  # late: keep the core import graph light

    obs.get_registry().counter("access_profile.seeded").inc()
    a._derived["access_profile"] = prof


def clear_access_profile(a: CSRMatrix) -> None:
    """Drop ``a``'s cached profile (cold-path benchmarks and tests)."""
    a._derived.pop("access_profile", None)
