"""GunRock ``advance``-based SpMM model (the graph-engine baseline).

GunRock is a frontier-centric graph processing engine; the paper builds
SpMM on its ``advance`` primitive (Section V-D).  GunRock offers *no
feature-dimension parallelism* — a vertex's value is an indivisible
scalar in the traditional graph algorithms it targets — so the SpMM
program assigns edges to threads and every thread walks the whole
feature vector serially:

* dense loads are fully uncoalesced: lanes of a warp process different
  edges, so each ``B[k, j]`` load touches 32 distinct sectors per warp
  (4 useful bytes per 32-byte transaction);
* output updates need atomics, since many edges share a destination row;
* per-edge frontier bookkeeping adds instruction overhead.

The paper reports GE-SpMM 18.27x faster on average — the argument that
GNN workloads need new primitives, not SpMV-era ones.
"""

from __future__ import annotations

from repro.core import _counting as cnt
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix

__all__ = ["GunrockAdvanceSpMM"]

_THREADS_PER_BLOCK = 256


class GunrockAdvanceSpMM(SpMMKernel):
    """Edge-parallel SpMM written with GunRock's advance primitive."""

    name = "GunRock advance"
    # Atomic reduction restricts the operator to atomically-implementable
    # monoids; we model the standard sum used in the paper's comparison.
    supports_general_semiring = False

    regs_per_thread = 40
    #: the serial feature loop keeps ~1-2 scattered requests in flight.
    mlp = 1.5
    efficiency = 0.8

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats = KernelStats()
        m, nnz = a.nrows, a.nnz
        warp_steps = ((nnz + 31) // 32) * n  # warp-level feature iterations

        # Edge metadata (src, dst, weight): coalesced, once per edge.
        meta = cnt.count_tile_loads(a, 32)
        stats.global_load.instructions += 3 * meta.instructions
        stats.global_load.transactions += 3 * meta.sectors
        stats.global_load.requested_bytes += 3 * meta.requested_bytes
        stats.global_load.l1_filtered_transactions += 3 * meta.sectors

        # Dense loads: one scattered warp load per feature step — 32
        # distinct sectors, 128 useful bytes.
        stats.global_load.instructions += warp_steps
        stats.global_load.transactions += 32 * warp_steps
        stats.global_load.requested_bytes += 128 * warp_steps
        stats.global_load.l1_filtered_transactions += 32 * warp_steps

        # Atomic output updates: scattered read-modify-write per step.
        stats.global_store.instructions += warp_steps
        stats.global_store.transactions += 32 * warp_steps
        stats.global_store.requested_bytes += 128 * warp_steps
        stats.atomic_ops = warp_steps

        tb = stats.traffic("B")
        tb.sectors = 32 * warp_steps
        tb.unique_bytes = cnt.unique_b_columns(a) * n * 4
        tb.reuse_is_local = False
        tm = stats.traffic("edges")
        tm.sectors = 3 * meta.sectors
        tm.unique_bytes = 12 * nnz
        tm.reuse_is_local = True

        stats.flops = 2 * nnz * n
        # Frontier bookkeeping and loop control per edge per feature.
        stats.alu_instructions = 8 * warp_steps + 12 * ((nnz + 31) // 32)

        threads = nnz  # thread per edge
        launch = LaunchConfig(
            blocks=(threads + _THREADS_PER_BLOCK - 1) // _THREADS_PER_BLOCK if threads else 0,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=0,
        )
        return stats, launch, ExecHints(mlp=self.mlp, efficiency=self.efficiency)
