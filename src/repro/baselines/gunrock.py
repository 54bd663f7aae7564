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

from repro.core.access_profile import access_profile
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
        prof = access_profile(a)
        nnz = a.nnz
        warp_steps = ((nnz + 31) // 32) * n  # warp-level feature iterations

        # Edge metadata (src, dst, weight): coalesced, once per edge.
        meta = prof.tile_loads(32)
        stats.global_load.charge(
            3 * meta.instructions, 3 * meta.sectors, 3 * meta.requested_bytes, 3 * meta.sectors
        )
        # Dense loads: one scattered warp load per feature step — 32
        # distinct sectors, 128 useful bytes.
        stats.global_load.charge(warp_steps, 32 * warp_steps, 128 * warp_steps, 32 * warp_steps)
        # Atomic output updates: scattered read-modify-write per step.
        stats.global_store.charge(warp_steps, 32 * warp_steps, 128 * warp_steps, 0)
        stats.atomic_ops = warp_steps

        stats.traffic("B", 32 * warp_steps, prof.unique_b_columns * n * 4, False)
        stats.traffic("edges", 3 * meta.sectors, 12 * nnz, True)

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
