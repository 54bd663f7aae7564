"""Epilogue fusion: SpMM fused with bias/activation.

The paper's PyG comparison rests on fusion ("message-passing first
generates message on all edges explicitly and then reduces them, while
SpMM can fuse these two stages into one kernel", Section II-C).  The
same logic extends one level further: GNN layers follow aggregation with
a bias add and an activation — two extra bandwidth-bound kernels that
re-stream the whole output.  :class:`FusedGESpMM` applies those epilogues
inside the SpMM's store phase: identical global traffic for the SpMM
itself, a few extra FLOPs, and the elementwise kernels (and their
launches) disappear.

The ablation benchmark ``bench_ext_fusion.py`` prices the saving; the
DGL backend can opt in via its layers calling the fused op directly.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.gespmm import GESpMM
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.semiring import PLUS_TIMES, Semiring
from repro.sparse.csr import CSRMatrix

__all__ = ["Epilogue", "FusedGESpMM", "RELU_EPILOGUE"]


class Epilogue:
    """A per-element output transform applied in the SpMM store phase.

    ``fn(C, bias) -> C'`` must be elementwise over rows (vectorized);
    ``flops_per_element`` prices its arithmetic.
    """

    def __init__(self, name: str, fn: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray],
                 flops_per_element: int = 1, uses_bias: bool = False):
        self.name = name
        self.fn = fn
        self.flops_per_element = int(flops_per_element)
        self.uses_bias = bool(uses_bias)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Epilogue({self.name})"


RELU_EPILOGUE = Epilogue("relu", lambda c, b: np.maximum(c, 0.0), flops_per_element=1)


def bias_relu_epilogue() -> Epilogue:
    return Epilogue(
        "bias+relu",
        lambda c, b: np.maximum(c + b[None, :], 0.0),
        flops_per_element=2,
        uses_bias=True,
    )


class FusedGESpMM(SpMMKernel):
    """GE-SpMM with a fused output epilogue.

    Memory behaviour equals the wrapped adaptive kernel (the epilogue
    reads the accumulator registers, not memory); the epilogue's FLOPs
    are added; and the *saved* work is everything the separate
    elementwise kernel(s) would have cost — exposed via
    :meth:`unfused_epilogue_time` so benchmarks can report the delta.
    """

    supports_general_semiring = True

    def __init__(self, epilogue: Epilogue = RELU_EPILOGUE):
        super().__init__()
        self.epilogue = epilogue
        self._inner = GESpMM()
        self.name = f"GE-SpMM+{epilogue.name}"

    def run(self, a: CSRMatrix, b: np.ndarray, semiring: Semiring = PLUS_TIMES,
            bias: Optional[np.ndarray] = None) -> np.ndarray:
        c = self._inner.run(a, b, semiring)
        if self.epilogue.uses_bias:
            if bias is None:
                raise ValueError(f"epilogue {self.epilogue.name!r} requires a bias vector")
            if bias.shape != (c.shape[1],):
                raise ValueError("bias length must equal the output width")
        return self.epilogue.fn(c, bias).astype(np.float32)

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats, launch, hints = self._inner.count(a, n, gpu)
        stats.flops += self.epilogue.flops_per_element * a.nrows * n
        if self.epilogue.uses_bias:
            # One extra broadcast-friendly load of the bias row per block.
            extra = max((n * 4 + 31) // 32, 1) * launch.blocks
            stats.global_load.charge(
                launch.blocks, extra, 4 * n * launch.blocks, max(extra // 8, 1)
            )
        return stats, launch, hints

    def unfused_epilogue_time(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> float:
        """What the equivalent standalone elementwise kernel(s) cost: a
        full read + write of C per epilogue stage, plus launches."""
        stages = 2 if self.epilogue.uses_bias else 1
        nbytes = 2 * a.nrows * n * 4
        per_stage = nbytes / (0.8 * gpu.dram_bandwidth) + gpu.launch_overhead_s
        return stages * per_stage

    def fusion_saving(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> float:
        """End-to-end relative saving of fusing the epilogue."""
        fused = self.estimate(a, n, gpu).time_s
        unfused = self._inner.estimate(a, n, gpu).time_s + self.unfused_epilogue_time(a, n, gpu)
        return unfused / fused
