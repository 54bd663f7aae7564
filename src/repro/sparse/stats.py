"""Structural analysis of sparse matrices.

The kernels' relative performance is driven by a handful of structural
quantities — row-length distribution (load balance for warp-per-row
designs), column locality (L2/ASpT tile reuse), and size regime (launch-
bound vs bandwidth-bound).  This module computes them; the analyzer is
used by examples, the CLI, and the load-balance discussion in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "MatrixProfile",
    "RowImbalance",
    "StructuralDrift",
    "analyze",
    "graph_regime",
    "row_imbalance",
    "row_length_histogram",
    "structural_drift",
    "gini",
]


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative distribution (0 = perfectly
    balanced rows, -> 1 = all nonzeros in one row)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0 or v.sum() == 0:
        return 0.0
    n = v.size
    cum = np.cumsum(v)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


@dataclass(frozen=True)
class RowImbalance:
    """Row-length load-imbalance summary for warp-per-row schedules.

    ``gini`` is the Gini coefficient of the row-length distribution
    (0 = all rows equal, -> 1 = all nonzeros in one row) and
    ``max_over_mean`` is the longest row divided by the mean row length
    — the factor by which the slowest warp of a row-split kernel
    overruns the average one.  Both are 0.0 for an empty matrix, and a
    matrix with all-equal rows has ``gini == 0.0`` with
    ``max_over_mean == 1.0``.
    """

    gini: float
    max_over_mean: float

    def is_skewed(self, threshold: float = 0.5) -> bool:
        """Whether the distribution is skewed at the given Gini cut.

        The default threshold is the one ``graph_regime`` uses for its
        uniform/skewed split: SNAP power-law graphs sit well above it,
        meshes and uniform-random matrices well below.
        """
        return self.gini >= threshold


def row_imbalance(a: CSRMatrix) -> RowImbalance:
    """Compute the :class:`RowImbalance` of ``a``.

    This is the routing statistic for balance-sensitive kernel choices
    (row-split vs merge-path): high values mean one-warp-per-row designs
    serialize on hub rows while a work-balanced partition does not.
    Cached per matrix (derived artifact ``row_imbalance``), so the
    row-length sort behind the Gini coefficient runs once per version.
    """
    return a._cached("row_imbalance", lambda: _compute_row_imbalance(a))


def _compute_row_imbalance(a: CSRMatrix) -> RowImbalance:
    lengths = a.row_lengths()
    if lengths.size == 0 or a.nnz == 0:
        return RowImbalance(gini=0.0, max_over_mean=0.0)
    mean = float(lengths.mean())
    return RowImbalance(
        gini=gini(lengths),
        max_over_mean=float(lengths.max()) / mean if mean > 0 else 0.0,
    )


@dataclass(frozen=True)
class StructuralDrift:
    """How far one matrix version moved from another, in the quantities
    that drive kernel selection (Yang–Buluç–Owens: the right kernel is a
    function of the row-length distribution).

    ``gini_delta`` is the absolute change of the row-length Gini
    coefficient, ``max_over_mean_ratio`` the factor (always >= 1) by
    which the longest-row/mean ratio moved in either direction, and
    ``regime_changed`` whether :func:`graph_regime` relabeled the
    matrix.  This is the gating statistic for
    :meth:`repro.core.tuning.TunedSpMM.rekey_after_delta`: small edge
    deltas barely move any of the three, so a previously tuned kernel
    keeps serving; a hub forming (or dissolving) crosses the thresholds
    and triggers a re-selection.
    """

    gini_delta: float
    max_over_mean_ratio: float
    regime_changed: bool


def structural_drift(old: CSRMatrix, new: CSRMatrix) -> StructuralDrift:
    """Compute the :class:`StructuralDrift` from ``old`` to ``new``.

    Reads each version's cached :func:`row_imbalance`, so along a delta
    stream every version's Gini coefficient is computed once, however
    many drifts (and :func:`graph_regime` calls) read it.
    """
    a, b = row_imbalance(old), row_imbalance(new)
    lo = min(a.max_over_mean, b.max_over_mean)
    hi = max(a.max_over_mean, b.max_over_mean)
    return StructuralDrift(
        gini_delta=abs(b.gini - a.gini),
        max_over_mean_ratio=hi / lo if lo > 0 else (1.0 if hi == 0 else float("inf")),
        regime_changed=graph_regime(old) != graph_regime(new),
    )


def row_length_histogram(a: CSRMatrix, buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128)) -> Dict[str, int]:
    """Row counts per length bucket (the warp-utilization picture)."""
    lengths = a.row_lengths()
    edges = list(buckets) + [np.inf]
    out: Dict[str, int] = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        label = f"{lo}" if hi == lo + 1 else (f"{lo}-{int(hi) - 1}" if np.isfinite(hi) else f">={lo}")
        out[label] = int(((lengths >= lo) & (lengths < hi)).sum())
    return out


@dataclass(frozen=True)
class MatrixProfile:
    """Summary statistics a kernel engineer reads before choosing a design."""

    m: int
    k: int
    nnz: int
    mean_row: float
    max_row: int
    empty_rows: int
    row_gini: float  # load imbalance
    tile_occupancy: float  # mean fill of occupied 32-column tiles (locality)
    short_row_fraction: float  # rows shorter than a warp

    def summary(self) -> str:
        return (
            f"{self.m}x{self.k}, nnz={self.nnz} (nnz/row {self.mean_row:.2f}, "
            f"max {self.max_row}, {self.empty_rows} empty)\n"
            f"  row imbalance (gini)   {self.row_gini:.3f}\n"
            f"  short rows (<32)       {self.short_row_fraction * 100:.1f}%\n"
            f"  column-tile occupancy  {self.tile_occupancy:.2f} nnz per occupied 32-col tile"
        )


def graph_regime(a: CSRMatrix, long_row_threshold: float = 16.0,
                 skew_threshold: float = 0.5) -> str:
    """Coarse structural regime label for reporting aggregation.

    Rows are "long" when the mean row length reaches ``long_row_threshold``
    (a half-warp of work per row keeps warp-per-row designs busy), and
    the distribution is "skewed" when the row-length Gini coefficient
    reaches ``skew_threshold`` (SNAP power-law graphs sit well above it,
    meshes well below).  The four labels —
    ``short-rows/uniform``, ``short-rows/skewed``, ``long-rows/uniform``,
    ``long-rows/skewed`` — are the regime axis of ``repro-bench report``'s
    bound-by distribution tables.
    """
    length_label = "long-rows" if a.mean_row_length() >= long_row_threshold else "short-rows"
    skewed = row_imbalance(a).is_skewed(skew_threshold)
    return f"{length_label}/{'skewed' if skewed else 'uniform'}"


def analyze(a: CSRMatrix, tile_width: int = 32) -> MatrixProfile:
    """Compute the :class:`MatrixProfile` of ``a`` (vectorized)."""
    lengths = a.row_lengths()
    if a.nnz:
        rows = np.repeat(np.arange(a.nrows, dtype=np.int64), lengths)
        tiles = rows * ((a.ncols + tile_width - 1) // tile_width) + (
            a.colind.astype(np.int64) // tile_width
        )
        occupied = np.unique(tiles).size
        tile_occ = a.nnz / occupied
    else:
        tile_occ = 0.0
    return MatrixProfile(
        m=a.nrows,
        k=a.ncols,
        nnz=a.nnz,
        mean_row=a.mean_row_length(),
        max_row=int(lengths.max()) if a.nrows else 0,
        empty_rows=int((lengths == 0).sum()),
        row_gini=gini(lengths),
        tile_occupancy=float(tile_occ),
        short_row_fraction=float((lengths < 32).mean()) if a.nrows else 0.0,
    )
