"""SpMM-like operator definitions (re-export of :mod:`repro.semiring`).

The implementation lives in the dependency-free top-level module so the
sparse substrate's host executor can use it without importing the
kernel package; the public API keeps it under ``repro.core`` where the
paper's contribution lives.
"""

from repro.semiring import (
    MAX_TIMES,
    MEAN_TIMES,
    MIN_TIMES,
    PLUS_TIMES,
    Semiring,
    builtin_semirings,
)

__all__ = [
    "Semiring",
    "PLUS_TIMES",
    "MAX_TIMES",
    "MIN_TIMES",
    "MEAN_TIMES",
    "builtin_semirings",
]
