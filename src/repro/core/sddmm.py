"""SDDMM: the companion operator for attention-style GNNs.

The paper closes by noting that "future GNN models may also use
customized reduction functions" and that frameworks need flexible sparse
primitives; its open-source successor (dgSPARSE, by the same group)
pairs GE-SpMM with **SDDMM** — Sampled Dense-Dense Matrix Multiplication:

    E[i, j] = <X[i, :], Y[j, :]>   for every nonzero (i, j) of a mask A

SDDMM computes attention logits on edges (GAT, Transformer-style GNNs);
an edge-softmax then rescales them and an SpMM aggregates.  We implement
the same kernel family here so the GNN substrate can express GAT-like
models end to end:

* functional execution against a dense oracle;
* an access-pattern model in the same style as the SpMM kernels: per
  nonzero, a warp loads one row of X (coalesced) and one row of Y
  (coalesced) and reduces the product with a shuffle tree;
* edge-softmax as a segment operation over CSR rows.
"""

from __future__ import annotations

import numpy as np

from repro.core.access_profile import access_profile, dense_segments
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE

__all__ = ["GESDDMM", "reference_sddmm", "edge_softmax"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 128


def reference_sddmm(mask: CSRMatrix, x: np.ndarray, y: np.ndarray) -> CSRMatrix:
    """Oracle SDDMM: per stored (i, j), ``<X[i], Y[j]>`` (times the
    mask's stored value, matching cuSPARSE's constrained semantics)."""
    x = np.ascontiguousarray(x, dtype=VALUE_DTYPE)
    y = np.ascontiguousarray(y, dtype=VALUE_DTYPE)
    if x.shape[0] != mask.nrows or y.shape[0] != mask.ncols or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"SDDMM shapes inconsistent: mask {mask.shape}, X {x.shape}, Y {y.shape}"
        )
    rows = np.repeat(np.arange(mask.nrows, dtype=np.int64), mask.row_lengths())
    cols = mask.colind.astype(np.int64)
    dots = np.einsum("ij,ij->i", x[rows], y[cols]).astype(VALUE_DTYPE)
    return mask.with_values(mask.values * dots)


def edge_softmax(logits: CSRMatrix) -> CSRMatrix:
    """Row-wise (destination-wise) softmax over stored edge values —
    the normalization between SDDMM and the aggregating SpMM in GAT."""
    lengths = logits.row_lengths()
    rows = np.repeat(np.arange(logits.nrows, dtype=np.int64), lengths)
    vals = logits.values.astype(np.float64)
    row_max = np.full(logits.nrows, -np.inf)
    np.maximum.at(row_max, rows, vals)
    shifted = np.exp(vals - row_max[rows])
    row_sum = np.zeros(logits.nrows)
    np.add.at(row_sum, rows, shifted)
    return logits.with_values((shifted / row_sum[rows]).astype(VALUE_DTYPE))


class GESDDMM(SpMMKernel):
    """SDDMM kernel model in the GE-SpMM style (warp per nonzero tile).

    One warp processes a run of nonzeros of a row: it streams X[i, :]
    once into registers/shared (coalesced, reused across the run) and,
    per nonzero, streams Y[j, :] coalesced and reduces with a shuffle
    tree.  The ``run``/``count`` interface matches the SpMM kernels, with
    ``b`` standing for Y and the X operand supplied via :meth:`run_xy`.
    """

    name = "GE-SDDMM"
    supports_general_semiring = False  # dot-product reduction is fixed
    regs_per_thread = 36
    mlp = 2.5

    def run(self, a: CSRMatrix, b: np.ndarray, semiring=None):  # pragma: no cover
        raise NotImplementedError("SDDMM needs two dense operands; use run_xy(mask, x, y)")

    def run_xy(self, mask: CSRMatrix, x: np.ndarray, y: np.ndarray) -> CSRMatrix:
        return reference_sddmm(mask, x, y)

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        """Access model for feature width ``n`` (columns of X and Y).

        Per occupied row the warp streams X[i, :] once (coalesced 32-wide
        segments, reused for the whole run), then per nonzero streams
        Y[j, :] the same way and reduces with a shuffle tree (no memory
        traffic); mask structure moves as coalesced 32-element tiles and
        the output as one value per nonzero along the run.  The counts
        are sector-exact when ``N % 8 == 0`` (rows of X and Y start on
        sector boundaries — the same alignment caveat as the dense SpMM
        counters); at other widths the closed form over-counts boundary
        sectors.
        """
        stats = KernelStats()
        prof = access_profile(a)
        m, nnz = a.nrows, a.nnz
        segs = dense_segments(n)
        sec_per_row = sum((length + 7) // 8 for _, length in segs)
        gl = stats.global_load

        # X rows: loaded once per occupied row (reused across the row's run).
        occupied = prof.occupied_rows
        gl.charge(
            occupied * len(segs), occupied * sec_per_row, occupied * n * 4, occupied * sec_per_row
        )
        # Y rows: one coalesced stream per nonzero.
        gl.charge(nnz * len(segs), nnz * sec_per_row, nnz * n * 4, nnz * sec_per_row)
        # Mask structure: coalesced tiles of colind (+values for scaling).
        tiles = prof.tile_loads(32)
        gl.charge(
            2 * tiles.instructions, 2 * tiles.sectors, 2 * tiles.requested_bytes, 2 * tiles.sectors
        )
        # Output: one value per nonzero, coalesced along the run.
        stats.global_store.charge(tiles.instructions, tiles.sectors, 4 * nnz, 0)

        stats.traffic("X", occupied * sec_per_row, m * n * 4, True)
        stats.traffic("Y", nnz * sec_per_row, prof.unique_b_columns * n * 4, False)

        stats.flops = 2 * nnz * n  # multiply + tree-add per element
        # Shuffle-tree reduction: log2(32) warp ops per nonzero segment.
        stats.alu_instructions = 5 * nnz * len(segs) + 10 * m

        warps = max((nnz + 31) // 32, 1)
        launch = LaunchConfig(
            blocks=(warps + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=_THREADS_PER_BLOCK * 8,
        )
        return stats, launch, ExecHints(mlp=self.mlp)
