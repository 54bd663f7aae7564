"""SpMM-like operator definitions.

The paper generalizes SpMM to "SpMM-like" operations (Section III/IV):
the per-output computation is

    C[i, j] = reduce over nonzeros (i, k) of  combine(A[i,k], B[k,j])

with a user-supplied initialization and reduce function, both inlined at
compile time in the CUDA version.  The reduce must be associative and
commutative so warps may consume nonzeros in any order.  Standard SpMM is
the ``(init=0, combine=mul, reduce=add)`` instance; GraphSAGE-pool uses
``(init=-inf, combine=mul, reduce=max)``.

We mirror that contract with :class:`Semiring`: vectorized NumPy
``combine``/``reduce`` callables plus the algebraic identity element.  The
kernel implementations consume nonzero *tiles*, so reduction is expressed
over an extra axis — exactly the shape a warp's inner loop produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Semiring", "PLUS_TIMES", "MAX_TIMES", "MIN_TIMES", "MEAN_TIMES", "builtin_semirings"]


@dataclass(frozen=True)
class Semiring:
    """A general SpMM-like operator.

    Attributes
    ----------
    name:
        Identifier used in kernel dispatch and benchmark tables.
    init:
        Identity element of ``reduce`` (the accumulator's initial value).
    combine:
        Elementwise ``combine(a_vals, b_rows) -> contributions``; ``a_vals``
        broadcasts against ``b_rows`` (values of A against gathered rows of
        B).
    reduce:
        ``reduce(stacked, axis) -> reduced``; must be associative and
        commutative (np.add.reduce, np.maximum.reduce, ...).
    reduce_pair:
        Binary form ``reduce_pair(acc, update) -> acc`` used by streaming
        kernel execution.
    mean:
        If true, the reduction result is divided by the row length
        afterwards (mean aggregation); rows with no nonzeros yield
        ``init``.
    """

    name: str
    init: float
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reduce: Callable[..., np.ndarray]
    reduce_pair: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mean: bool = False

    @property
    def is_standard(self) -> bool:
        """True for plain plus-times SpMM — the only case vendor libraries
        (cuSPARSE csrmm2) support."""
        return self.name == "plus_times"

    @property
    def multiplies(self) -> bool:
        """True when ``combine`` is the shared multiply every built-in
        semiring uses (user-defined combines are opaque callables)."""
        return self.combine is _mul

    def combine_into(
        self, a_vals: np.ndarray, b_rows: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``combine`` writing into ``out``.

        The tiled host executor (:mod:`repro.sparse.segment`) combines
        gathered rows inside a reused workspace; for the shared multiply
        every built-in semiring uses, this is a true in-place
        ``np.multiply`` with no temporary.  User-defined combines fall
        back to an allocate-then-copy, which stays O(workspace).
        """
        if self.multiplies:
            return np.multiply(a_vals, b_rows, out=out)
        res = self.combine(a_vals, b_rows)
        if res is not out:
            out[...] = res
        return out

    def finalize(self, acc: np.ndarray, row_lengths: np.ndarray) -> np.ndarray:
        """Apply the mean post-scaling (no-op for non-mean semirings)."""
        if not self.mean:
            return acc
        return acc * self._finalize_scale(acc, row_lengths)[:, None]

    def finalize_into(self, acc: np.ndarray, row_lengths: np.ndarray) -> np.ndarray:
        """In-place :meth:`finalize` — the same elementwise multiply, so
        bit-identical, but writing into ``acc`` (caller-owned output
        buffers in the tiled executor)."""
        if not self.mean:
            return acc
        acc *= self._finalize_scale(acc, row_lengths)[:, None]
        return acc

    def _finalize_scale(self, acc: np.ndarray, row_lengths: np.ndarray) -> np.ndarray:
        lengths = np.asarray(row_lengths, dtype=acc.dtype)
        return np.divide(
            1.0, lengths, out=np.zeros_like(lengths, dtype=acc.dtype), where=lengths > 0
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name})"


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


PLUS_TIMES = Semiring(
    name="plus_times",
    init=0.0,
    combine=_mul,
    reduce=np.add.reduce,
    reduce_pair=np.add,
)

MAX_TIMES = Semiring(
    name="max_times",
    init=-np.inf,
    combine=_mul,
    reduce=np.maximum.reduce,
    reduce_pair=np.maximum,
)

MIN_TIMES = Semiring(
    name="min_times",
    init=np.inf,
    combine=_mul,
    reduce=np.minimum.reduce,
    reduce_pair=np.minimum,
)

# Mean aggregation: accumulate with +, divide by row degree at the end.
MEAN_TIMES = Semiring(
    name="mean_times",
    init=0.0,
    combine=_mul,
    reduce=np.add.reduce,
    reduce_pair=np.add,
    mean=True,
)


def builtin_semirings() -> dict:
    """Name -> semiring map of the built-in SpMM-like operators."""
    return {
        s.name: s for s in (PLUS_TIMES, MAX_TIMES, MIN_TIMES, MEAN_TIMES)
    }
