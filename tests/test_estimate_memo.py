"""Kernel-estimate memoization and TunedSpMM cache keying.

``SpMMKernel.estimate`` results are memoized process-wide, keyed on
``(kernel.cache_key(), CSRMatrix.fingerprint(), N, gpu, semiring,
params)`` — content-addressed, so equally configured kernel instances
and equal-content matrices share entries while any config difference
gets its own.  ``TunedSpMM`` keys its per-matrix kernel choice the same
way (the old ``id(a)`` keys could alias after GC id reuse).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import CRCSpMM, GESpMM, SimpleSpMM, TunedSpMM
from repro.gnn import DGLBackend, GCN, SimDevice, train
from repro.gpusim import GTX_1080TI, RTX_2080, clear_estimate_memo
from repro.obs.metrics import MetricsRegistry
from repro.semiring import MAX_TIMES, PLUS_TIMES
from repro.sparse import uniform_random


@pytest.fixture(autouse=True)
def fresh_state():
    """Isolate both the metrics registry and the estimate memo."""
    prev = obs.set_registry(MetricsRegistry())
    clear_estimate_memo()
    yield
    clear_estimate_memo()
    obs.set_registry(prev)


def _hits(gpu=GTX_1080TI, kernel="GE-SpMM"):
    return obs.get_registry().counter(
        "kernel.estimate_memo.hits", kernel=kernel, gpu=gpu.name
    ).value


def _misses(gpu=GTX_1080TI, kernel="GE-SpMM"):
    return obs.get_registry().counter(
        "kernel.estimate_memo.misses", kernel=kernel, gpu=gpu.name
    ).value


def test_memo_hit_returns_identical_timing():
    a = uniform_random(200, 1500, seed=0, weighted=True)
    k = GESpMM()
    t1 = k.estimate(a, 32, GTX_1080TI)
    t2 = k.estimate(a, 32, GTX_1080TI)
    assert t2 is t1  # the cached KernelTiming object itself
    assert _misses(kernel=k.name) == 1
    assert _hits(kernel=k.name) == 1


def test_memo_is_content_addressed_not_identity_addressed():
    a = uniform_random(200, 1500, seed=0, weighted=True)
    b = uniform_random(200, 1500, seed=0, weighted=True)  # equal content
    assert a is not b and a.fingerprint() == b.fingerprint()
    k = GESpMM()
    t1 = k.estimate(a, 32, GTX_1080TI)
    t2 = k.estimate(b, 32, GTX_1080TI)
    assert t2 is t1
    assert _hits(kernel=k.name) == 1

    # Equally configured *instances* share entries too.
    t3 = GESpMM().estimate(a, 32, GTX_1080TI)
    assert t3 is t1
    assert _hits(kernel=k.name) == 2


def test_memo_key_separates_n_gpu_semiring_and_params():
    a = uniform_random(200, 1500, seed=0, weighted=True)
    k = GESpMM()
    k.estimate(a, 32, GTX_1080TI)
    k.estimate(a, 64, GTX_1080TI)  # different N
    k.estimate(a, 32, RTX_2080)  # different GPU
    k.estimate(a, 32, GTX_1080TI, semiring=MAX_TIMES)  # different semiring
    assert _misses(kernel=k.name) == 3
    assert _misses(gpu=RTX_2080, kernel=k.name) == 1
    assert _hits(kernel=k.name) == 0

    # Different kernel config (coarsening factor) -> different cache_key.
    assert GESpMM(cf=2).cache_key() != GESpMM(cf=4).cache_key()
    t2 = GESpMM(cf=2).estimate(a, 32, GTX_1080TI)
    t4 = GESpMM(cf=4).estimate(a, 32, GTX_1080TI)
    assert t2 is not t4


def test_clear_estimate_memo_forces_recompute():
    a = uniform_random(150, 900, seed=1, weighted=True)
    k = SimpleSpMM()
    k.estimate(a, 16, GTX_1080TI)
    clear_estimate_memo()
    k.estimate(a, 16, GTX_1080TI)
    assert _misses(kernel=k.name) == 2
    assert _hits(kernel=k.name) == 0


def test_training_reuses_estimates_across_epochs():
    """The acceptance criterion: a multi-epoch full-batch train() hits the
    estimate memo (the cost model re-prices the same kernel/matrix pair
    every epoch)."""
    from repro.datasets.citation import CitationDataset
    from repro.sparse import power_law

    m, rng = 300, np.random.default_rng(0)
    train_mask = np.zeros(m, dtype=bool)
    train_mask[: m // 10] = True
    ds = CitationDataset(
        name="synthetic",
        graph=power_law(m, 2400, seed=0, weighted=True),
        features=rng.standard_normal((m, 8)).astype(np.float32),
        labels=rng.integers(0, 7, size=m).astype(np.int64),
        train_mask=train_mask,
        val_mask=~train_mask,
        test_mask=~train_mask,
        n_classes=7,
    )
    model = GCN(ds.feature_dim, 8, ds.n_classes, rng=np.random.default_rng(0))
    backend = DGLBackend(SimDevice(GTX_1080TI), use_gespmm=True)
    train(model, backend, ds, epochs=3, warmup=0)

    hits = sum(
        row["value"]
        for row in obs.get_registry().snapshot()
        if row["name"] == "kernel.estimate_memo.hits"
    )
    assert hits > 0


# ----------------------------------------------------------------------
# TunedSpMM
# ----------------------------------------------------------------------


def test_tuned_spmm_run_defaults_and_gpu_param():
    a = uniform_random(120, 800, seed=2, weighted=True)
    b = np.random.default_rng(3).standard_normal((a.ncols, 8)).astype(np.float32)
    k = TunedSpMM()
    out_default = k.run(a, b)  # defaults: plus-times on GTX 1080 Ti
    out_gpu = k.run(a, b, semiring=PLUS_TIMES, gpu=RTX_2080)
    np.testing.assert_allclose(out_default, CRCSpMM().run(a, b), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(out_gpu, out_default, rtol=1e-5, atol=1e-5)


def test_tuned_spmm_selection_is_fingerprint_keyed():
    a = uniform_random(120, 800, seed=2, weighted=True)
    b = uniform_random(120, 800, seed=2, weighted=True)  # equal content
    k = TunedSpMM()
    k.count(a, 16, GTX_1080TI)  # first lookup tunes
    k.count(b, 16, GTX_1080TI)  # equal content: reuses the choice
    reg = obs.get_registry()
    assert reg.counter(
        "tuning.tuned_spmm.lookups", cached=False, gpu=GTX_1080TI.name
    ).value == 1
    assert reg.counter(
        "tuning.tuned_spmm.lookups", cached=True, gpu=GTX_1080TI.name
    ).value == 1


def test_tuned_spmm_cache_key_covers_candidates():
    a = uniform_random(120, 800, seed=2, weighted=True)
    k12 = TunedSpMM(candidates=(1, 2))
    k14 = TunedSpMM(candidates=(1, 4))
    assert k12.cache_key() != k14.cache_key()
    # Different candidate sets must never share estimate memo entries even
    # when they happen to dispatch to the same underlying kernel.
    t12 = k12.estimate(a, 16, GTX_1080TI)
    t14 = k14.estimate(a, 16, GTX_1080TI)
    assert t12 is not t14
    assert TunedSpMM(candidates=(1, 2)).cache_key() == k12.cache_key()
