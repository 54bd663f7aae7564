"""Preprocess-based sparse formats used by the comparison baselines.

GE-SpMM's central compatibility argument (Sections I-II) is that
competing fast-SpMM designs require converting CSR into a bespoke format —
ELLPACK-R for Fastspmm, adaptive tiles for ASpT — and that this
preprocessing (up to 5x the SpMM time in the literature; 0.01x-64.5x in the
paper's own measurements) cannot be amortized in GNN inference or sampled
training.  To reproduce that comparison honestly we implement the formats
and charge their construction explicitly.

Preprocess *work* is metered in units the timing model understands
(elements touched, sort passes) so the simulated preprocess time scales
with matrix structure the way the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix, VALUE_DTYPE

__all__ = ["EllpackR", "ASpTFormat", "to_ellpack_r", "to_aspt"]


@dataclass(frozen=True)
class EllpackR:
    """ELLPACK-R: dense ``M x max_row`` column/value slabs plus a row-length
    array.  Padding makes accesses regular at the cost of memory blowup on
    skewed graphs."""

    shape: Tuple[int, int]
    colind: np.ndarray  # int32[M, width], padded with 0
    values: np.ndarray  # float32[M, width], padded with 0
    row_lengths: np.ndarray  # int32[M]
    preprocess_elements: int  # elements touched building the format

    @property
    def width(self) -> int:
        return self.colind.shape[1]

    @property
    def padding_ratio(self) -> float:
        """Stored slots / true nnz — the memory overhead of padding."""
        nnz = int(self.row_lengths.sum())
        return (self.shape[0] * self.width) / max(nnz, 1)

    def to_dense_product(self, b: np.ndarray) -> np.ndarray:
        """Functional SpMM on the ELLPACK-R layout (oracle check)."""
        mask = np.arange(self.width)[None, :] < self.row_lengths[:, None]
        gathered = b[self.colind.astype(np.int64)] * self.values[..., None]
        gathered[~mask] = 0.0
        return gathered.sum(axis=1).astype(VALUE_DTYPE)


def to_ellpack_r(a: CSRMatrix) -> EllpackR:
    """Convert CSR to ELLPACK-R (Fastspmm's input format)."""
    lengths = a.row_lengths().astype(np.int32)
    width = int(lengths.max()) if a.nrows else 0
    colind = np.zeros((a.nrows, max(width, 1)), dtype=np.int32)
    values = np.zeros((a.nrows, max(width, 1)), dtype=VALUE_DTYPE)
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), lengths.astype(np.int64))
    # Position of each nonzero within its row.
    offsets = np.arange(a.nnz, dtype=np.int64) - np.repeat(
        a.rowptr[:-1].astype(np.int64), lengths.astype(np.int64)
    )
    colind[rows, offsets] = a.colind
    values[rows, offsets] = a.values
    # Building ELLPACK touches every nonzero once plus the padded slab.
    preprocess = a.nnz + a.nrows * max(width, 1)
    return EllpackR(a.shape, colind, values, lengths, preprocess)


@dataclass(frozen=True)
class ASpTFormat:
    """Adaptive Sparse Tiling (Hong et al., PPoPP'19) — CSR plus markers
    of locally-dense column panels.

    The real ASpT reorders columns inside row-panels so that columns with
    many nonzeros form dense tiles processed with shared-memory reuse of
    the *dense* matrix; the sparse remainder runs like plain CSR.  The
    CSR arrays stay the matrix's own (the format holds no reference to
    it, so it can be cached on the matrix); we record, per row-panel, the
    fraction of nonzeros falling in dense tiles — the quantity that
    drives its kernel model's dense-matrix traffic savings.
    """

    shape: Tuple[int, int]
    panel_height: int
    tile_width: int
    dense_threshold: int
    dense_fraction: float  # nnz fraction inside locally-dense tiles
    preprocess_elements: int  # structure-analysis + reorder work


def to_aspt(
    a: CSRMatrix,
    *,
    panel_height: int = 64,
    tile_width: int = 32,
    dense_threshold: int | None = None,
) -> ASpTFormat:
    """Analyze CSR structure into the ASpT tiled representation.

    ``dense_threshold`` is the minimum nonzero count for a (panel, column
    tile) to be classified dense; ASpT uses half the panel height by
    default.
    """
    if dense_threshold is None:
        dense_threshold = max(panel_height // 2, 1)
    if a.nnz == 0:
        return ASpTFormat(a.shape, panel_height, tile_width, dense_threshold, 0.0, a.nrows)

    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_lengths())
    panels = rows // panel_height
    tiles = a.colind.astype(np.int64) // tile_width
    n_tiles = (a.ncols + tile_width - 1) // tile_width
    keys = panels * n_tiles + tiles
    uniq, counts = np.unique(keys, return_counts=True)
    dense_mask = counts >= dense_threshold
    dense_keys = uniq[dense_mask]
    in_dense = np.isin(keys, dense_keys, assume_unique=False)
    dense_fraction = float(in_dense.sum()) / a.nnz

    # Preprocess cost: histogram pass over all nonzeros, a column reorder
    # (gather + scatter of colind/values) and panel bookkeeping.  Three
    # passes over nnz is what ASpT's published preprocessing does.
    preprocess = 3 * a.nnz + a.nrows
    return ASpTFormat(
        a.shape, panel_height, tile_width, dense_threshold, dense_fraction, preprocess
    )
