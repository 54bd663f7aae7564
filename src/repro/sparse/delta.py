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
``apply_delta`` does index work proportional to ``Δ + (nnz of touched
rows) + M`` — the per-row merges, the rowptr prefix re-sum, and the
phase bookkeeping below — plus raw ``memcpy`` of the untouched
``colind``/``values`` spans into the new arrays.  What it *avoids* is
every O(nnz) or O(nnz log nnz) content pass of a from-scratch build:
the COO lexsort, the histogram scans, the ``np.unique`` over columns,
and (until first memo use) the fingerprint hash.

The :class:`AccessProfile` update exploits that both histograms are
additive: the ``colind mod 8`` residue histogram moves by exactly the
deleted/inserted columns (O(Δ)), and the ``(start mod 8, length)`` pair
histogram moves by the rows whose pair changed.  A subtlety the naive
"touched rows only" story misses: an insert in row *i* shifts
``rowptr`` — and therefore the start *phase* — of every later row by
the cumulative nnz delta, so rows in regions where that shift is
nonzero mod 8 rotate phase too.  The update handles both sets exactly;
when the net shift happens to be ≡ 0 (mod 8) past some row, those rows
drop out of the work entirely.

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

from repro.sparse.csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE

__all__ = ["EdgeDelta", "apply_delta", "invalidate_matrix_caches"]

_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_VAL = np.empty(0, dtype=VALUE_DTYPE)

EdgeArray = Union[Sequence[int], np.ndarray]


def _as_edges(
    rows: EdgeArray, cols: EdgeArray, what: str
) -> Tuple[np.ndarray, np.ndarray]:
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
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


def _segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat element positions of variable-length segments: for segment
    ``i``, the run ``starts[i] .. starts[i] + lengths[i]``, concatenated."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    excl_prefix = np.cumsum(lengths) - lengths
    return np.repeat(starts - excl_prefix, lengths) + np.arange(total, dtype=np.int64)


def _locate(
    old_keys: np.ndarray, query_keys: np.ndarray, what: str,
    rows: np.ndarray, cols: np.ndarray,
) -> np.ndarray:
    """Positions of ``query_keys`` inside sorted ``old_keys``; raises if
    any edge is missing (deletes/updates must name stored edges)."""
    pos = np.searchsorted(old_keys, query_keys)
    bad = (pos >= old_keys.size) | (old_keys[np.minimum(pos, old_keys.size - 1)] != query_keys) \
        if old_keys.size else np.ones(query_keys.size, dtype=bool)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"cannot {what} edge ({int(rows[i])}, {int(cols[i])}): not stored"
        )
    return pos


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
        old_lengths = a.row_lengths()

        touched = delta.touched_rows()
        seg_starts = old_rowptr64[touched]
        seg_lengths = old_lengths[touched]
        gather = _segment_positions(seg_starts, seg_lengths)
        old_cols = a.colind[gather].astype(np.int64)
        old_vals = a.values[gather]
        old_ranks = np.repeat(
            np.arange(touched.size, dtype=np.int64), seg_lengths
        )

        mult = np.int64(max(k, 1))
        old_keys = old_ranks * mult + old_cols
        if old_keys.size > 1 and np.any(np.diff(old_keys) <= 0):
            raise ValueError(
                "touched rows are not canonical (column-sorted, "
                "duplicate-free); sort with sorted_rows() before applying deltas"
            )

        rank_of = lambda rows: np.searchsorted(touched, rows)

        # Deletes and updates must hit stored edges.
        del_pos = _locate(
            old_keys, rank_of(delta.delete_rows) * mult + delta.delete_cols,
            "delete", delta.delete_rows, delta.delete_cols,
        )
        upd_pos = _locate(
            old_keys, rank_of(delta.update_rows) * mult + delta.update_cols,
            "update", delta.update_rows, delta.update_cols,
        )
        old_vals[upd_pos] = delta.update_values

        # Inserts must not collide with stored edges.
        ins_ranks = rank_of(delta.insert_rows)
        ins_keys = ins_ranks * mult + delta.insert_cols
        if old_keys.size:
            pos = np.searchsorted(old_keys, ins_keys)
            hit = (pos < old_keys.size) & (
                old_keys[np.minimum(pos, old_keys.size - 1)] == ins_keys
            )
            if np.any(hit):
                i = int(np.flatnonzero(hit)[0])
                raise ValueError(
                    f"cannot insert duplicate edge "
                    f"({int(delta.insert_rows[i])}, {int(delta.insert_cols[i])})"
                )

        keep = np.ones(old_keys.size, dtype=bool)
        keep[del_pos] = False

        # Merge the kept and inserted runs — both already key-sorted, so
        # a searchsorted placement replaces the O(k log k) argsort.
        kept_keys = old_keys[keep]
        total = kept_keys.size + ins_keys.size
        ins_dest = np.searchsorted(kept_keys, ins_keys) + np.arange(
            ins_keys.size, dtype=np.int64
        )
        kept_mask = np.ones(total, dtype=bool)
        kept_mask[ins_dest] = False
        merged_cols = np.empty(total, dtype=np.int64)
        merged_vals = np.empty(total, dtype=VALUE_DTYPE)
        merged_cols[kept_mask] = old_cols[keep]
        merged_cols[ins_dest] = delta.insert_cols
        merged_vals[kept_mask] = old_vals[keep]
        merged_vals[ins_dest] = delta.insert_values

        touched_new_lengths = np.bincount(
            np.concatenate([old_ranks[keep], ins_ranks]), minlength=touched.size
        ).astype(np.int64)

        # New row extents: only touched rows change length; the prefix
        # re-sum is the one unavoidable O(M) pass.
        new_lengths = old_lengths.copy()
        new_lengths[touched] = touched_new_lengths
        new_rowptr64 = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(new_lengths, out=new_rowptr64[1:])
        new_nnz = int(new_rowptr64[-1])

        new_colind = np.empty(new_nnz, dtype=INDEX_DTYPE)
        new_values = np.empty(new_nnz, dtype=VALUE_DTYPE)
        parent_colind64 = a._derived.get("colind64")
        parent_coo_rows = a._derived.get("coo_rows")

        # Untouched spans lie between runs of consecutive touched rows.
        breaks = np.flatnonzero(np.diff(touched) > 1) + 1
        run_first = touched[np.concatenate([[0], breaks])]
        run_last = touched[np.concatenate([breaks - 1, [touched.size - 1]])]
        span_rows = np.concatenate([[0], run_last + 1])  # span start rows
        span_ends = np.concatenate([run_first, [m]])  # span end rows (excl)
        # Few runs (a tiny delta on a big graph): raw slice copies of the
        # untouched spans, each shifted by its run's constant rowptr
        # offset — no index arrays over the untouched nnz.  Many runs:
        # per-span Python overhead would dominate, so build one gather/
        # scatter over the untouched elements instead; colind64/coo_rows
        # are then cheaper to regenerate with one flat cast/repeat than
        # to splice.
        bulk = span_rows.size > 64
        new_colind64 = (
            np.empty(new_nnz, dtype=np.int64)
            if parent_colind64 is not None and not bulk
            else None
        )
        new_coo_rows = (
            np.empty(new_nnz, dtype=np.int64)
            if parent_coo_rows is not None and not bulk
            else None
        )
        if not bulk:
            for lo, hi in zip(span_rows, span_ends):
                if lo >= hi:
                    continue
                os_, oe = int(old_rowptr64[lo]), int(old_rowptr64[hi])
                ns = int(new_rowptr64[lo])
                ne = ns + (oe - os_)
                new_colind[ns:ne] = a.colind[os_:oe]
                new_values[ns:ne] = a.values[os_:oe]
                if new_colind64 is not None:
                    new_colind64[ns:ne] = parent_colind64[os_:oe]
                if new_coo_rows is not None:
                    new_coo_rows[ns:ne] = parent_coo_rows[os_:oe]
        else:
            live = span_rows < span_ends
            s_rows, s_ends = span_rows[live], span_ends[live]
            s_lens = old_rowptr64[s_ends] - old_rowptr64[s_rows]
            dst = _segment_positions(new_rowptr64[s_rows], s_lens)
            src = dst + np.repeat(
                old_rowptr64[s_rows] - new_rowptr64[s_rows], s_lens
            )
            new_colind[dst] = a.colind[src]
            new_values[dst] = a.values[src]

        # Scatter the merged touched-row data into place.
        dest = _segment_positions(new_rowptr64[touched], touched_new_lengths)
        new_colind[dest] = merged_cols
        new_values[dest] = merged_vals
        if new_colind64 is not None:
            new_colind64[dest] = merged_cols
        if new_coo_rows is not None:
            new_coo_rows[dest] = np.repeat(touched, touched_new_lengths)
        if bulk:
            if parent_colind64 is not None:
                new_colind64 = new_colind.astype(np.int64)
            if parent_coo_rows is not None:
                new_coo_rows = np.repeat(
                    np.arange(m, dtype=np.int64), new_lengths
                )

        out = CSRMatrix((m, k), new_rowptr64, new_colind, new_values)
        out._seed_derived("rowptr64", new_rowptr64)
        out._seed_derived("row_lengths", new_lengths)
        if new_colind64 is not None:
            out._seed_derived("colind64", new_colind64)
        if new_coo_rows is not None:
            out._seed_derived("coo_rows", new_coo_rows)

        prof = a._derived.get("access_profile")
        if prof is not None:
            _seed_updated_profile(
                a, out, prof, touched, old_rowptr64, old_lengths,
                new_rowptr64, new_lengths, delta, new_nnz,
            )
            registry.counter("delta.profile.updated").inc()
        else:
            registry.counter("delta.profile.skipped").inc()

        registry.counter("delta.applied").inc()
        registry.counter("delta.edges", kind="insert").inc(int(delta.insert_rows.size))
        registry.counter("delta.edges", kind="delete").inc(int(delta.delete_rows.size))
        registry.counter("delta.edges", kind="update").inc(int(delta.update_rows.size))
        registry.counter("delta.rows_touched").inc(int(touched.size))
    return out


def _seed_updated_profile(
    a: CSRMatrix,
    out: CSRMatrix,
    prof,
    touched: np.ndarray,
    old_rowptr64: np.ndarray,
    old_lengths: np.ndarray,
    new_rowptr64: np.ndarray,
    new_lengths: np.ndarray,
    delta: EdgeDelta,
    new_nnz: int,
) -> None:
    """Evolve the parent's cached :class:`AccessProfile` onto ``out``.

    The changed-row set is the touched rows plus every row whose start
    phase rotated: row ``i``'s phase is ``rowptr[i] mod 8``, and inserts
    /deletes shift the rowptr of all later rows by the cumulative nnz
    delta — only where that shift is nonzero mod 8 does the pair change.
    """
    from repro.core.access_profile import ELEMS_PER_SECTOR, seed_access_profile

    m = a.nrows
    touched_mask = np.zeros(m, dtype=bool)
    touched_mask[touched] = True
    phase_shifted = (
        (new_rowptr64[:-1] - old_rowptr64[:-1]) % ELEMS_PER_SECTOR
    ) != 0
    changed = np.flatnonzero(touched_mask | phase_shifted)

    occupied = (
        prof.occupied_rows
        - int((old_lengths[touched] > 0).sum())
        + int((new_lengths[touched] > 0).sum())
    )
    evolved = prof.updated(
        nnz=new_nnz,
        removed_pairs=(
            old_rowptr64[changed] % ELEMS_PER_SECTOR, old_lengths[changed]
        ),
        added_pairs=(
            new_rowptr64[changed] % ELEMS_PER_SECTOR, new_lengths[changed]
        ),
        removed_cols=delta.delete_cols,
        added_cols=delta.insert_cols,
        occupied_rows=occupied,
        parent_colind=a.colind,
    )
    seed_access_profile(out, evolved)


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
