"""Fastspmm (ELLPACK-R) baseline — the other preprocess-based design.

Fastspmm (Ortega, Vazquez, Garcia, Garzon; cited as the paper's [21])
computes SpMM from the ELLPACK-R format: a dense ``M x max_row`` slab of
column indices/values plus a row-length array.  The layout makes every
access perfectly regular — threads of a warp read consecutive slab
columns — at two costs the paper's compatibility argument leans on:

* **conversion**: CSR must be transposed into the padded slab
  (:func:`repro.sparse.convert.csr_to_ellpack_time`);
* **padding**: skewed graphs inflate the slab by the padding ratio; the
  kernel streams (and the device stores) the padded zeros.

On near-regular matrices it is competitive; on power-law graphs the
padded traffic sinks it — which is why adaptive designs (ASpT) replaced
it and why the paper dismisses fixed-format approaches for GNNs.
"""

from __future__ import annotations

import numpy as np

from repro.core.access_profile import access_profile, warps_per_row
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.semiring import PLUS_TIMES, Semiring
from repro.sparse.csr import CSRMatrix
from repro.sparse.convert import csr_to_ellpack_time
from repro.sparse.formats import EllpackR, ellpack_width, to_ellpack_r
from repro.sparse.ops import reference_spmm_like

__all__ = ["FastSpMM"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 128


class FastSpMM(SpMMKernel):
    """ELLPACK-R SpMM with explicit conversion accounting."""

    name = "Fastspmm (ELLPACK-R)"
    supports_general_semiring = False
    requires_preprocess = True

    regs_per_thread = 30
    #: fully regular slab walk: deep unrolling, independent streams.
    mlp = 3.0

    def preprocess(self, a: CSRMatrix) -> EllpackR:
        # Cached on the matrix, so the format dies with it (an ``id(a)``
        # key would hand a freed matrix's format to a new one).
        return a._cached("ellpack_r", lambda: to_ellpack_r(a))

    def preprocess_time(self, a: CSRMatrix, gpu: GPUSpec) -> float:
        return csr_to_ellpack_time(a, gpu)

    def run(self, a: CSRMatrix, b: np.ndarray, semiring: Semiring = PLUS_TIMES) -> np.ndarray:
        self.check_semiring(semiring)
        # Compute through the actual ELLPACK layout for small inputs, the
        # CSR oracle otherwise (identical semantics, bounded memory).
        if a.nrows * ellpack_width(a) <= 1_000_000:
            return self.preprocess(a).to_dense_product(
                np.ascontiguousarray(b, dtype=np.float32)
            )
        return reference_spmm_like(a, b, semiring)

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats = KernelStats()
        prof = access_profile(a)
        m, nnz = a.nrows, a.nnz
        width = ellpack_width(a)
        slots = m * width  # padded element count — the format's tax
        wpr = warps_per_row(n)
        gl = stats.global_load

        # Slab loads: column-major ELLPACK-R walk is perfectly coalesced;
        # every padded slot is touched (colind + value).
        slab_loads = 2 * ((slots + 31) // 32) * wpr
        gl.charge(slab_loads, slab_loads * 4, slab_loads * 128, slab_loads * 4)

        # Dense loads: per *real* nonzero (padding short-circuits on the
        # row-length check before touching B).
        b = prof.b_loads(n)
        gl.charge(b.instructions, b.sectors, b.requested_bytes, b.sectors)

        rl_insts = ((m + 31) // 32) * wpr  # row-length array, coalesced
        gl.charge(rl_insts, rl_insts * 4, rl_insts * 128, 0)

        c = prof.c_stores(n)
        stats.global_store.charge(c.instructions, c.sectors, c.requested_bytes, 0)

        stats.traffic("ell_slab", slab_loads * 4, slots * 8, True)
        stats.traffic("B", b.sectors, prof.unique_b_columns * n * 4, False)

        stats.flops = 2 * nnz * n
        stats.alu_instructions = 4 * ((slots + 31) // 32) * wpr + 8 * m * wpr

        tasks = m * wpr
        launch = LaunchConfig(
            blocks=(tasks + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK if tasks else 0,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=0,
        )
        return stats, launch, ExecHints(mlp=self.mlp)
