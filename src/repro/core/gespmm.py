"""GE-SpMM: the adaptive, general-purpose SpMM front-end.

This is the paper's deliverable (Section IV): a runtime kernel that

* takes plain CSR — zero preprocessing, so it drops into GNN frameworks;
* supports *SpMM-like* operations through user-defined init/reduce
  (:mod:`repro.semiring`), which cuSPARSE does not;
* adapts to the feature width ``N``: for ``N <= 32`` warp merging cannot
  help (a single warp already spans the row) so plain CRC runs; for
  ``N > 32`` it runs CRC + CWM with the empirically-chosen CF=2 — the
  paper avoids per-matrix tuning because CF=2 is within 15% of optimal on
  63/64 and 60/64 of the SNAP matrices on its two GPUs (Fig. 9).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.core.crc import CRCSpMM
from repro.core.cwm import CWMSpMM
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.semiring import PLUS_TIMES, Semiring
from repro.sparse.csr import CSRMatrix

__all__ = ["GESpMM", "gespmm", "gespmm_like"]

#: feature widths at or below this run CRC without warp merging
ADAPTIVE_THRESHOLD = 32
#: the paper's fixed runtime coarsening factor
DEFAULT_CF = 2


class GESpMM(SpMMKernel):
    """Adaptive GE-SpMM kernel (CRC for small N, CRC+CWM otherwise)."""

    name = "GE-SpMM"
    supports_general_semiring = True

    def __init__(self, cf: int = DEFAULT_CF, threshold: int = ADAPTIVE_THRESHOLD):
        super().__init__()
        self.cf = int(cf)
        self.threshold = int(threshold)
        self._crc = CRCSpMM()
        self._cwm = CWMSpMM(cf=self.cf)

    def select(self, n: int) -> SpMMKernel:
        """The concrete kernel the adaptive dispatch picks for width ``n``."""
        if n <= self.threshold:
            path, reason = "crc", "n<=threshold: one warp already spans the row"
            picked: SpMMKernel = self._crc
        else:
            path, reason = "cwm", f"n>threshold: warp merging with CF={self.cf} pays"
            picked = self._cwm
        obs.get_registry().counter(
            "gespmm.dispatch", path=path, reason=reason, threshold=self.threshold
        ).inc()
        return picked

    def run(self, a: CSRMatrix, b: np.ndarray, semiring: Semiring = PLUS_TIMES) -> np.ndarray:
        return self.select(b.shape[1]).run(a, b, semiring)

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        return self.select(n).count(a, n, gpu)


def gespmm(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Convenience one-shot standard SpMM, ``C = A @ B``."""
    return GESpMM().run(a, np.asarray(b, dtype=np.float32))


def gespmm_like(
    a: CSRMatrix, b: np.ndarray, semiring: Semiring, kernel: Optional[GESpMM] = None
) -> np.ndarray:
    """Convenience one-shot SpMM-like operation under ``semiring``."""
    return (kernel or GESpMM()).run(a, np.asarray(b, dtype=np.float32), semiring)
