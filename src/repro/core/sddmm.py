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

from typing import Tuple

import numpy as np

from repro.core import _counting as cnt
from repro.gpusim.batchtrace import BatchTraceMemory, ragged_arange
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

    def trace(self, a, b, gpu, semiring=None):
        raise NotImplementedError(
            "GESDDMM.trace is intentionally unsupported: SDDMM takes two "
            "dense operands (X and Y), which the SpMMKernel.trace(a, b, gpu) "
            "signature cannot express — call trace_xy(mask, x, y, gpu) instead"
        )

    def trace_xy(
        self, mask: CSRMatrix, x: np.ndarray, y: np.ndarray, gpu: GPUSpec
    ) -> Tuple[CSRMatrix, KernelStats]:
        """Faithful warp-level SDDMM execution with exact coalescing.

        Mirrors the access model in :meth:`count`: per occupied row the
        warp streams X[i, :] once (coalesced 32-wide segments, reused for
        the whole run), then per nonzero streams Y[j, :] the same way and
        reduces with a shuffle tree (no memory traffic); mask structure
        moves as coalesced 32-element tiles and the output as one value
        per nonzero along the run.  Sector parity with the closed-form
        counters holds when ``N % 8 == 0`` (rows of X and Y start on
        sector boundaries — the same alignment caveat as the analytic
        dense counters); other widths remain functionally exact but the
        closed form over-counts boundary sectors.

        Batched trace replay — bit-identical stats and output to the
        per-warp loop oracle in ``tests/trace_references.py`` (see
        ``repro.gpusim.batchtrace``).  Warp task = occupied row ``i``;
        program order: the ``nseg`` X segment loads (steps
        ``0..nseg-1``); per 32-nonzero tile ``t`` (step base
        ``nseg + t (2 + 32 nseg)``) colind + values loads; per tile
        element ``e`` the ``nseg`` Y segment loads at steps
        ``base + 2 + e*nseg + s``; one E store per tile.
        """
        x = np.ascontiguousarray(x, dtype=VALUE_DTYPE)
        y = np.ascontiguousarray(y, dtype=VALUE_DTYPE)
        if x.shape[0] != mask.nrows or y.shape[0] != mask.ncols or x.shape[1] != y.shape[1]:
            raise ValueError(
                f"SDDMM shapes inconsistent: mask {mask.shape}, X {x.shape}, Y {y.shape}"
            )
        n = x.shape[1]
        mem = BatchTraceMemory(l1_caches_global=gpu.l1_caches_global)
        mem.register("colind", mask.colind)
        mem.register("values", mask.values)
        mem.register("X", x.ravel())
        mem.register("Y", y.ravel())
        mem.register("E", np.zeros(mask.nnz, dtype=VALUE_DTYPE))
        segs = cnt.dense_segments(n)
        nseg = len(segs)
        seg_start = np.array([s for s, _ in segs], dtype=np.int64)
        seg_len = np.array([length for _, length in segs], dtype=np.int64)

        rowptr = mask.rowptr64()
        lengths = rowptr[1:] - rowptr[:-1]
        m = mask.nrows

        occupied = np.nonzero(lengths > 0)[0]
        x_task = np.repeat(occupied, nseg)
        x_seg = np.tile(np.arange(nseg, dtype=np.int64), occupied.size)
        mem.load_contiguous(
            "X", x_task * n + seg_start[x_seg], seg_len[x_seg], task=x_task, step=x_seg
        )

        ntiles_row = (lengths + 31) // 32
        tile_row = np.repeat(np.arange(m, dtype=np.int64), ntiles_row)
        tt = ragged_arange(ntiles_row)
        tile_ptr = rowptr[tile_row] + 32 * tt
        tile_len = np.minimum(32, lengths[tile_row] - 32 * tt)
        tile_base = nseg + tt * (2 + 32 * nseg)
        mem.load_contiguous("colind", tile_ptr, tile_len, task=tile_row, step=tile_base)
        mem.load_contiguous("values", tile_ptr, tile_len, task=tile_row, step=tile_base + 1)

        nz_row = np.repeat(np.arange(m, dtype=np.int64), lengths)
        t = ragged_arange(lengths)
        k = mask.colind64()
        y_task = np.repeat(nz_row, nseg)
        y_seg = np.tile(np.arange(nseg, dtype=np.int64), int(mask.nnz))
        y_k = np.repeat(k, nseg)
        y_base = nseg + np.repeat(t // 32, nseg) * (2 + 32 * nseg)
        mem.load_contiguous(
            "Y",
            y_k * n + seg_start[y_seg],
            seg_len[y_seg],
            task=y_task,
            step=y_base + 2 + np.repeat(t % 32, nseg) * nseg + y_seg,
        )
        mem.store_contiguous("E", tile_ptr, tile_len, task=tile_row)

        # Numerics: per-segment float64 dot products accumulated in
        # segment order — the exact operation sequence of the loop replay
        # (np.dot promotes its float32 operand to float64 first).
        x64 = x.astype(np.float64)
        y64 = y.astype(np.float64)
        dots = np.zeros(mask.nnz)
        for idx in range(int(mask.nnz)):
            i = int(nz_row[idx])
            kk = int(k[idx])
            acc = 0.0
            for start, length in segs:
                acc += float(
                    np.dot(x64[i, start:start + length], y64[kk, start:start + length])
                )
            dots[idx] = acc
        evals = np.zeros(mask.nnz, dtype=VALUE_DTYPE)
        evals[:] = mask.values.astype(np.float64) * dots
        stats = mem.finalize()
        return mask.with_values(evals), stats

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        """Access model for feature width ``n`` (columns of X and Y)."""
        stats = KernelStats()
        m, nnz = a.nrows, a.nnz
        segs = cnt.dense_segments(n)
        sec_per_row = sum((length + 7) // 8 for _, length in segs)

        # X rows: loaded once per occupied row (reused across the row's run).
        occupied = cnt.occupied_rows(a)
        stats.global_load.instructions += occupied * len(segs)
        stats.global_load.transactions += occupied * sec_per_row
        stats.global_load.requested_bytes += occupied * n * 4
        stats.global_load.l1_filtered_transactions += occupied * sec_per_row

        # Y rows: one coalesced stream per nonzero.
        stats.global_load.instructions += nnz * len(segs)
        stats.global_load.transactions += nnz * sec_per_row
        stats.global_load.requested_bytes += nnz * n * 4
        stats.global_load.l1_filtered_transactions += nnz * sec_per_row

        # Mask structure: coalesced tiles of colind (+values for scaling).
        tiles = cnt.count_tile_loads(a, 32)
        stats.global_load.instructions += 2 * tiles.instructions
        stats.global_load.transactions += 2 * tiles.sectors
        stats.global_load.requested_bytes += 2 * tiles.requested_bytes
        stats.global_load.l1_filtered_transactions += 2 * tiles.sectors

        # Output: one value per nonzero, coalesced along the run.
        out = cnt.count_tile_loads(a, 32)
        stats.global_store.instructions += out.instructions
        stats.global_store.transactions += out.sectors
        stats.global_store.requested_bytes += 4 * nnz

        tx = stats.traffic("X")
        tx.sectors = occupied * sec_per_row
        tx.unique_bytes = m * n * 4
        tx.reuse_is_local = True
        ty = stats.traffic("Y")
        ty.sectors = nnz * sec_per_row
        ty.unique_bytes = cnt.unique_b_columns(a) * n * 4
        ty.reuse_is_local = False

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
