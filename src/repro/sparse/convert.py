"""Format-conversion cost models.

The paper's compatibility argument prices *data format conversion
overheads in GNN frameworks* (abstract, Section I): any kernel that wants
a non-CSR input forces a conversion somewhere in the pipeline.  This
module provides the conversions together with simulated-GPU cost
estimates, so framework-level accounting can charge them explicitly:

* ``csr_to_csc`` — what a framework runs to get the transposed adjacency
  for backward passes if it doesn't cache it;
* ``csr_to_ellpack_time`` / ``csr_to_aspt_time`` — what adopting
  Fastspmm / ASpT would cost per matrix (ASpT's is also available on the
  kernel as ``preprocess_time``; kept here for symmetric accounting);
* ``dense_transpose_time`` — the cuBLAS ``geam`` cost of fixing
  column-major kernel outputs (also exported by the cuSPARSE baseline).

Conversion costs follow the same bandwidth-pass accounting as the rest
of the model: k passes over the data at a stated efficiency, plus kernel
launches.
"""

from __future__ import annotations

from repro.gpusim.config import GPUSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.formats import ellpack_width, to_aspt

__all__ = [
    "csr_to_csc",
    "csr_to_csc_time",
    "csr_to_ellpack_time",
    "csr_to_aspt_time",
    "dense_transpose_time",
]


def csr_to_csc(a: CSRMatrix) -> CSRMatrix:
    """CSC of ``a``, represented as the CSR of ``A^T`` (equivalent
    layouts; this is exactly what cusparseCsr2csc produces)."""
    return a.transpose()


def csr_to_csc_time(a: CSRMatrix, gpu: GPUSpec) -> float:
    """Simulated cusparseCsr2csc cost: a histogram pass plus a scattered
    permutation of (colind, values) — two reads and one scattered write
    per nonzero at ~50% effective bandwidth, over two kernels."""
    bytes_moved = a.nnz * 8 * 3 + a.nrows * 4
    return bytes_moved / (0.5 * gpu.dram_bandwidth) + 2 * gpu.launch_overhead_s


def csr_to_ellpack_time(a: CSRMatrix, gpu: GPUSpec) -> float:
    """Simulated CSR -> ELLPACK-R conversion: the padded slab must be
    zero-filled and every nonzero scattered into it."""
    slab_bytes = a.nrows * ellpack_width(a) * 8
    bytes_moved = a.nnz * 8 + slab_bytes
    return bytes_moved / (0.6 * gpu.dram_bandwidth) + 2 * gpu.launch_overhead_s


def csr_to_aspt_time(a: CSRMatrix, gpu: GPUSpec) -> float:
    """Simulated CSR -> ASpT preprocessing (matches
    :meth:`repro.baselines.aspt.ASpTSpMM.preprocess_time`)."""
    fmt = to_aspt(a)
    bytes_moved = fmt.preprocess_elements * 8 * 2
    return bytes_moved / (0.12 * gpu.dram_bandwidth) + 3 * gpu.launch_overhead_s


def dense_transpose_time(m: int, n: int, gpu: GPUSpec) -> float:
    """cuBLAS geam out-of-place transpose of an ``m x n`` float32 array."""
    nbytes = 2 * m * n * 4
    return nbytes / (0.5 * gpu.l2_bandwidth) + gpu.launch_overhead_s
