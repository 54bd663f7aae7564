#!/usr/bin/env python
"""Dynamic graphs: streaming edge deltas with O(delta) state maintenance.

GNN serving rarely sees a static graph: edges arrive and expire between
inference calls.  Rebuilding the CSR matrix, its derived arrays, and the
access profile from scratch per batch costs O(nnz log nnz); the delta
path (``repro.sparse.delta``) splices the batch into the parent's arrays
and patches the rest, with no sort and no per-edge Python work.
This example simulates an inference service over an evolving graph:

1. tune an autotuned SpMM once on the initial graph;
2. stream small mixed edge batches through ``apply_delta`` — structural
   drift stays below the re-tune thresholds, so every batch *carries
   over* the tuned kernel choice (zero tuner invocations) while results
   stay bit-identical to a from-scratch rebuild;
3. drop each superseded version's memo/disk entries with
   ``invalidate_matrix_caches`` — entries for other matrices survive;
4. inject a hub (one row suddenly gains hundreds of edges) — drift
   crosses the thresholds, ``rekey_after_delta`` drops the stale choice,
   and the next call re-tunes for the new skew.

Run:  python examples/streaming_updates.py
"""

import numpy as np

from repro import obs
from repro.core.tuning import RetuneThresholds, TunedSpMM
from repro.gpusim import GTX_1080TI
from repro.sparse import (
    EdgeDelta,
    apply_delta,
    csr_from_coo,
    invalidate_matrix_caches,
    power_law,
    reference_spmm,
    structural_drift,
)


def random_delta(a, batch, rng):
    """A mixed batch: a third each inserts, deletes, value updates."""
    third = batch // 3
    rows, cols = a.coo_rows(), a.colind64()
    di = rng.choice(a.nnz, size=third, replace=False)
    ui = rng.choice(np.setdiff1d(np.arange(a.nnz), di), size=third, replace=False)
    keys = rows * a.ncols + cols
    cand = np.unique(
        rng.integers(0, a.nrows, size=8 * third) * a.ncols
        + rng.integers(0, a.ncols, size=8 * third)
    )
    pos = np.searchsorted(keys, cand)
    absent = cand[(pos >= keys.size) | (keys[np.minimum(pos, keys.size - 1)] != cand)]
    ins = rng.permutation(absent)[:third]
    return EdgeDelta.new(
        inserts=(ins // a.ncols, ins % a.ncols,
                 rng.standard_normal(ins.size).astype(np.float32)),
        deletes=(rows[di], cols[di]),
        updates=(rows[ui], cols[ui],
                 rng.standard_normal(third).astype(np.float32)),
    )


def hub_delta(a, degree, rng):
    """The skew event: one row suddenly gains ``degree`` edges."""
    stored = np.sort(a.colind64()[a.rowptr64()[0]:a.rowptr64()[1]])
    absent = np.setdiff1d(np.arange(a.ncols), stored)
    cols = rng.permutation(absent)[:degree]
    return EdgeDelta.new(
        inserts=(np.zeros(cols.size, dtype=np.int64), cols,
                 rng.standard_normal(cols.size).astype(np.float32)),
    )


def tuner_invocations():
    reg = obs.get_registry()
    return int(sum(
        c["value"]
        for c in reg.snapshot()
        if c["name"] == "tuning.tuned_spmm.lookups"
        and c["labels"].get("cached") is False
    ))


def main() -> None:
    rng = np.random.default_rng(11)
    gpu = GTX_1080TI
    live = power_law(3000, 30_000, seed=5, weighted=True)
    b = rng.standard_normal((live.ncols, 64)).astype(np.float32)

    kernel = TunedSpMM()
    thresholds = RetuneThresholds()  # gini +-0.05, max/mean x1.5, regime flip

    c = kernel.run(live, b, gpu=gpu)
    print(f"initial graph: {live.nnz} edges, tuner invocations: "
          f"{tuner_invocations()}")

    # -- 2. a stream of small batches: tuned choice carried over --------
    print("\nstreaming 8 mixed batches (~0.5% of edges each):")
    for step in range(8):
        delta = random_delta(live, batch=150, rng=rng)
        new = apply_delta(live, delta)
        drift = structural_drift(live, new)
        retuned = kernel.rekey_after_delta(live, new, thresholds)
        invalidate_matrix_caches(live)  # superseded version's entries only
        live = new
        c = kernel.run(live, b, gpu=gpu)
        assert np.allclose(c, reference_spmm(live, b), atol=1e-4)
        print(f"  step {step}: gini moved {drift.gini_delta:+.4f}, "
              f"max/mean x{drift.max_over_mean_ratio:.3f} -> "
              f"{'RE-TUNED' if retuned else 'carried over'}")
    print(f"tuner invocations after 8 batches: {tuner_invocations()} "
          f"(still the initial one)")

    # Bit-exact parity with a from-scratch build of the same edges.
    rebuilt = csr_from_coo(live.coo_rows(), live.colind64(), live.values,
                           shape=live.shape)
    assert rebuilt.fingerprint() == live.fingerprint()
    print("fingerprint parity with a from-scratch rebuild: OK")

    # -- 4. the skew event: a hub forms, thresholds fire ----------------
    delta = hub_delta(live, degree=600, rng=rng)
    new = apply_delta(live, delta)
    drift = structural_drift(live, new)
    retuned = kernel.rekey_after_delta(live, new, thresholds)
    invalidate_matrix_caches(live)
    live = new
    print(f"\nhub event (+600 edges on one row): gini moved "
          f"{drift.gini_delta:+.4f}, max/mean x{drift.max_over_mean_ratio:.3f} "
          f"-> {'RE-TUNED' if retuned else 'carried over'}")
    assert retuned, "hub should cross the re-tune thresholds"

    c = kernel.run(live, b, gpu=gpu)  # lazy re-selection happens here
    assert np.allclose(c, reference_spmm(live, b), atol=1e-4)
    print(f"tuner invocations after hub: {tuner_invocations()}")


if __name__ == "__main__":
    main()
