"""Incremental dynamic-graph updates: batched edge deltas on CSR.

GE-SpMM's pitch is zero-preprocessing SpMM on plain CSR (Huang et al.,
SC 2020) — but a reproduction that treats every graph as immutable turns
a single edge insert into a full O(nnz) rebuild: re-sorting the COO
triplets, re-deriving ``row_lengths``/``rowptr64``/``coo_rows``/
``colind64``, re-hashing the BLAKE2b fingerprint, and re-running both
:class:`~repro.core.access_profile.AccessProfile` histogram passes.
This module is the streaming-graph path: :class:`EdgeDelta` batches
inserts, deletes, and value updates, and :func:`apply_delta` produces
the new (still immutable) :class:`~repro.sparse.csr.CSRMatrix` *with
its derived state already attached* by patching instead of rebuilding.

Cost model
----------
``apply_delta`` edits the parent's flat arrays in place of rebuilding
them.  Each delete, update and insert is located by a vectorised
bisection inside its row (O(Δ log max_row), no gather of the touched
rows); the new ``colind``/``values`` are then filled in one splice pass
— a keep mask over the old elements and the insert slots of the new
ones — and the row lengths move by two ``bincount`` calls.  Besides the
O(Δ) index work, what remains is linear and branch-free: the masked
copies, one ``int32`` compare for canonical order, the ``rowptr``
prefix sum and the ``(start mod 8, length)`` pair histogram over the M
rows.  What it *avoids* is every O(nnz log nnz) content pass of a
from-scratch build: the COO lexsort, the ``np.unique`` over columns, and
(until first memo use) the fingerprint hash.

The :class:`AccessProfile` update recomputes the pair histogram from
the child's ``rowptr``/row lengths (one O(M) pass; a scattered insert
shifts the start phase of nearly every later row anyway) and moves the
``colind mod 8`` residue histogram and the column multiplicities by
exactly the deleted/inserted columns (O(Δ)).

Fingerprint / memo-key semantics
--------------------------------
The fingerprint stays **content-addressed via lazy full rehash** rather
than a delta chain ``H(parent_fp, delta_digest)``.  A delta chain would
be O(Δ) but forks the key namespace: two different edit paths to the
same graph — or a delta-built graph and a from-scratch build of the same
edge set — would carry different prints and could never share
memo/DiskCache entries (lost sharing), while an unnoticed hash-domain
collision between chain values and content hashes could alias different
matrices (false sharing).  With lazy rehash the print *is* the content
hash, so a delta-applied matrix has byte-identical effective memo keys
to a from-scratch build (the parity suite asserts this) and false cache
sharing is impossible by construction.  The price — one O(nnz) hash on
the first estimate/sweep touching the new matrix — is paid at most once
per version and is far smaller than the rebuild it replaces.

Targeted invalidation
---------------------
Because every cache key is content-addressed, the *new* matrix can never
read the old matrix's entries — no invalidation is needed for
correctness.  What a streaming workload does need is garbage collection:
once a graph version is superseded, its entries in the process-wide
estimate memo and the on-disk cache are dead weight.  :func:`invalidate_matrix_caches` drops exactly those entries —
keyed on one fingerprint — and nothing else, so other matrices' cells
keep replaying at 100% hit rate (CI asserts this).

See docs/PERFORMANCE.md "Dynamic graphs" for the full contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sparse.csr import CSRMatrix, VALUE_DTYPE, _index_array

__all__ = ["EdgeDelta", "apply_delta", "invalidate_matrix_caches"]

_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_VAL = np.empty(0, dtype=VALUE_DTYPE)

EdgeArray = Union[Sequence[int], np.ndarray]


def _as_edges(
    rows: EdgeArray, cols: EdgeArray, what: str
) -> Tuple[np.ndarray, np.ndarray]:
    rows = _index_array(rows, f"{what} row")
    cols = _index_array(cols, f"{what} column")
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise ValueError(f"{what} rows/cols must be equal-length 1-D arrays")
    if rows.size and (rows.min() < 0 or cols.min() < 0):
        raise ValueError(f"{what} indices must be non-negative")
    return rows, cols


@dataclass(frozen=True)
class EdgeDelta:
    """One batch of edge mutations, canonicalized at construction.

    Each class of mutation is kept sorted by ``(row, col)``; an edge may
    appear at most once across the whole batch (inserting and deleting
    the same edge in one delta is rejected — split it into two batches
    if that is really the intent).  Column/row *range* validation
    happens in :func:`apply_delta`, where the target shape is known.
    """

    insert_rows: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    insert_cols: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    insert_values: np.ndarray = field(default_factory=lambda: _EMPTY_VAL)
    delete_rows: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    delete_cols: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    update_rows: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    update_cols: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    update_values: np.ndarray = field(default_factory=lambda: _EMPTY_VAL)

    @classmethod
    def new(
        cls,
        *,
        inserts: Optional[Tuple[EdgeArray, EdgeArray, EdgeArray]] = None,
        deletes: Optional[Tuple[EdgeArray, EdgeArray]] = None,
        updates: Optional[Tuple[EdgeArray, EdgeArray, EdgeArray]] = None,
    ) -> "EdgeDelta":
        """Build a delta from ``(rows, cols[, values])`` triples."""
        kw: Dict[str, np.ndarray] = {}
        if inserts is not None:
            kw["insert_rows"], kw["insert_cols"] = inserts[0], inserts[1]
            kw["insert_values"] = inserts[2]
        if deletes is not None:
            kw["delete_rows"], kw["delete_cols"] = deletes
        if updates is not None:
            kw["update_rows"], kw["update_cols"] = updates[0], updates[1]
            kw["update_values"] = updates[2]
        return cls(**kw)

    def __post_init__(self) -> None:
        for kind in ("insert", "delete", "update"):
            rows, cols = _as_edges(
                getattr(self, f"{kind}_rows"), getattr(self, f"{kind}_cols"), kind
            )
            order = np.lexsort((cols, rows))
            object.__setattr__(self, f"{kind}_rows", rows[order])
            object.__setattr__(self, f"{kind}_cols", cols[order])
            if kind != "delete":
                vals = np.asarray(
                    getattr(self, f"{kind}_values"), dtype=VALUE_DTYPE
                )
                if vals.shape != rows.shape:
                    raise ValueError(f"{kind} values must match rows/cols length")
                object.__setattr__(self, f"{kind}_values", vals[order])
        # Reject duplicate edges within and across mutation classes: the
        # semantics of "insert then delete X in one batch" are ambiguous,
        # and per-class duplicates would make the merge ill-defined.
        all_rows = np.concatenate([self.insert_rows, self.delete_rows, self.update_rows])
        all_cols = np.concatenate([self.insert_cols, self.delete_cols, self.update_cols])
        if all_rows.size:
            mult = np.int64(max(int(all_cols.max()) + 1, 1))
            keys = all_rows * mult + all_cols
            if np.unique(keys).size != keys.size:
                raise ValueError(
                    "an edge appears more than once in the delta batch "
                    "(within or across insert/delete/update)"
                )

    # -- inspection ----------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of edge mutations in the batch."""
        return int(
            self.insert_rows.size + self.delete_rows.size + self.update_rows.size
        )

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def touched_rows(self) -> np.ndarray:
        """Sorted unique rows any mutation lands in (``int64``)."""
        return np.unique(
            np.concatenate([self.insert_rows, self.delete_rows, self.update_rows])
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeDelta(+{self.insert_rows.size} -{self.delete_rows.size} "
            f"~{self.update_rows.size})"
        )


def _flat_positions(
    rowptr64: np.ndarray, colind: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat insertion point of each edge ``(rows[i], cols[i])``:
    ``rowptr[r] + #(colind[rowptr[r]:rowptr[r+1]] < c)``, by a vectorised
    lower-bound bisection inside each row (O(Δ log max_row); the rows must
    be column-sorted).  Also returns whether the edge is stored there."""
    base = rowptr64[rows]
    end = rowptr64[rows + 1]
    n = end - base
    # Each step at least halves every remaining range.
    for _ in range(int(n.max(initial=0)).bit_length()):
        half = n >> 1
        mid = base + half
        right = (n > 0) & (colind.take(mid, mode="clip") < cols)
        base = np.where(right, mid + 1, base)
        n = np.where(right, n - half - 1, half)
    stored = base < end
    stored[stored] = colind[base[stored]] == cols[stored]
    return base, stored


def apply_delta(a: CSRMatrix, delta: EdgeDelta) -> CSRMatrix:
    """Apply an :class:`EdgeDelta` to ``a``, returning the new matrix.

    ``a`` is untouched (matrices stay immutable; a "mutation" is a new
    version).  The new matrix arrives with its derived arrays seeded and
    — when ``a`` carries a cached :class:`AccessProfile` — an
    incrementally evolved profile attached, so no O(nnz) derived-state
    pass re-runs.  The fingerprint is deliberately left lazy (full
    rehash on first use; see the module docstring for why).

    Requirements and failure modes:

    * touched rows of ``a`` must be canonical (column-sorted,
      duplicate-free) — ``ValueError`` otherwise;
    * deletes and updates must name stored edges — ``ValueError``;
    * inserts must not collide with stored edges — ``ValueError``
      (duplicate-edge rejection);
    * indices must lie inside ``a.shape`` — ``ValueError``.
    """
    from repro import obs  # late: sparse is the substrate everything imports

    m, k = a.shape
    for kind in ("insert", "delete", "update"):
        rows = getattr(delta, f"{kind}_rows")
        cols = getattr(delta, f"{kind}_cols")
        if rows.size and (rows.max() >= m or cols.max() >= k):
            raise ValueError(f"{kind} index out of range for shape {(m, k)}")

    if delta.is_empty:
        return a

    registry = obs.get_registry()
    with obs.span(
        "sparse.delta.apply",
        inserts=int(delta.insert_rows.size),
        deletes=int(delta.delete_rows.size),
        updates=int(delta.update_rows.size),
    ):
        old_rowptr64 = a.rowptr64()
        colind = a.colind
        touched = delta.touched_rows()

        # Canonical order: one compare over the whole array, row
        # boundaries masked out; only a violation inside a touched row
        # matters (the bisection below relies on those rows' order).
        if colind.size > 1:
            unsorted = colind[1:] <= colind[:-1]
            bounds = old_rowptr64[1:-1]
            unsorted[bounds[(bounds > 0) & (bounds < colind.size)] - 1] = False
            bad = np.flatnonzero(unsorted)
            if bad.size and np.isin(
                np.searchsorted(old_rowptr64, bad, side="right") - 1, touched
            ).any():
                raise ValueError(
                    "touched rows are not canonical (column-sorted, "
                    "duplicate-free); sort with sorted_rows() before applying deltas"
                )

        # Deletes and updates must hit stored edges; inserts must not.
        edits = [
            (kind, getattr(delta, f"{kind}_rows"), getattr(delta, f"{kind}_cols"))
            for kind in ("delete", "update", "insert")
        ]
        pos, stored = _flat_positions(
            old_rowptr64, colind,
            np.concatenate([rows for _, rows, _ in edits]),
            np.concatenate([cols for _, _, cols in edits]),
        )
        located = {}
        lo = 0
        for kind, rows, cols in edits:
            hi = lo + rows.size
            miss = stored[lo:hi] if kind == "insert" else ~stored[lo:hi]
            if miss.any():
                i = int(np.flatnonzero(miss)[0])
                edge = f"({int(rows[i])}, {int(cols[i])})"
                raise ValueError(
                    f"cannot insert duplicate edge {edge}" if kind == "insert"
                    else f"cannot {kind} edge {edge}: not stored"
                )
            located[kind] = pos[lo:hi]
            lo = hi
        del_pos, ins_pos = located["delete"], located["insert"]

        # One splice pass: a keep mask over the old elements, the insert
        # slots of the new ones.  Positions are sorted (the delta is
        # (row, col)-sorted and touched rows are canonical); an insert
        # lands after every deleted element strictly before its point.
        new_nnz = a.nnz - del_pos.size + ins_pos.size
        keep = np.ones(a.nnz, dtype=bool)
        keep[del_pos] = False
        ins_dest = ins_pos - np.searchsorted(del_pos, ins_pos) + np.arange(
            ins_pos.size, dtype=np.int64
        )
        kept = np.ones(new_nnz, dtype=bool)
        kept[ins_dest] = False

        def splice(old: np.ndarray, inserted: np.ndarray) -> np.ndarray:
            out = np.empty(new_nnz, dtype=old.dtype)
            out[kept] = old[keep]
            out[ins_dest] = inserted
            return out

        values = a.values
        if delta.update_rows.size:
            values = values.copy()
            values[located["update"]] = delta.update_values
        new_colind = splice(colind, delta.insert_cols)
        new_values = splice(values, delta.insert_values)

        new_lengths = (
            a.row_lengths()
            + np.bincount(delta.insert_rows, minlength=m)
            - np.bincount(delta.delete_rows, minlength=m)
        )
        new_rowptr64 = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(new_lengths, out=new_rowptr64[1:])

        out = CSRMatrix((m, k), new_rowptr64, new_colind, new_values)
        out._seed_derived("rowptr64", new_rowptr64)
        out._seed_derived("row_lengths", new_lengths)
        # Seed what the parent had cached.  Widening the new colind is
        # cheaper than splicing the parent's int64 copy.
        if "colind64" in a._derived:
            out._seed_derived("colind64", new_colind.astype(np.int64))
        parent_coo_rows = a._derived.get("coo_rows")
        if parent_coo_rows is not None:
            out._seed_derived("coo_rows", splice(parent_coo_rows, delta.insert_rows))

        prof = a._derived.get("access_profile")
        if prof is not None:
            from repro.core.access_profile import seed_access_profile

            seed_access_profile(out, prof.updated(
                rowptr64=new_rowptr64,
                lengths=new_lengths,
                removed_cols=delta.delete_cols,
                added_cols=delta.insert_cols,
                parent_colind=colind,
            ))
            registry.counter("delta.profile.updated").inc()
        else:
            registry.counter("delta.profile.skipped").inc()

        registry.counter("delta.applied").inc()
        registry.counter("delta.edges", kind="insert").inc(int(delta.insert_rows.size))
        registry.counter("delta.edges", kind="delete").inc(int(delta.delete_rows.size))
        registry.counter("delta.edges", kind="update").inc(int(delta.update_rows.size))
        registry.counter("delta.rows_touched").inc(int(touched.size))
    return out


def invalidate_matrix_caches(
    matrix_or_fingerprint: Union[CSRMatrix, str],
) -> Dict[str, int]:
    """Drop every memo/DiskCache entry keyed on one matrix fingerprint.

    Targeted garbage collection for streaming updates: when a graph
    version is superseded by :func:`apply_delta`, call this with the
    *old* matrix (or its fingerprint) to reclaim its entries from the
    process-wide kernel-estimate memo and — when a disk cache is active —
    the on-disk store.  Entries for every other matrix are untouched, so
    their cells keep replaying at 100% hit rate (the CI streaming-update
    check asserts exactly this).  Returns the per-store drop counts
    (``{"estimate_memo", "disk"}``); each is also counted under
    ``delta.invalidated`` with a ``store`` label.
    """
    from repro import obs
    from repro.bench.diskcache import get_disk_cache
    from repro.gpusim.kernel import invalidate_estimates_for

    fp = (
        matrix_or_fingerprint
        if isinstance(matrix_or_fingerprint, str)
        else matrix_or_fingerprint.fingerprint()
    )
    disk = get_disk_cache()
    dropped = {
        "estimate_memo": invalidate_estimates_for(fp),
        "disk": disk.invalidate_matrix(fp) if disk is not None else 0,
    }
    registry = obs.get_registry()
    for store, n in dropped.items():
        if n:
            registry.counter("delta.invalidated", store=store).inc(n)
    return dropped
