"""Tests for repro.bench.corpus: lazy specs, DLMC generators, sharded
streaming sweeps, resumable checkpoints, roll-ups, and corpus priors."""

import json
import os

import numpy as np
import pytest

from repro.bench.corpus import (
    CORPUS_PRESETS,
    MatrixSpec,
    ROLLUP_SCHEMA,
    corpus_from_dir,
    corpus_preset,
    dlmc_corpus,
    format_rollup,
    graph_corpus,
    partition_shards,
    run_corpus_sweep,
)
from repro.bench.diskcache import CACHE_DIR_ENV, DiskCache, set_disk_cache
from repro.bench.telemetry import validate_corpus_rollup, write_corpus_rollup
from repro.core import GESpMM, MergePathSpMM
from repro.core.tuning import CorpusPriors, tune_cf
from repro.gpusim.config import GTX_1080TI
from repro.gpusim.kernel import clear_estimate_memo
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.report import render_corpus_markdown
from repro.sparse import (
    pruned_magnitude,
    pruned_random,
    pruned_structured,
    save_npz,
    uniform_random,
)

KERNELS = [GESpMM(), MergePathSpMM()]
WIDTHS = [16]
GPUS = [GTX_1080TI]


@pytest.fixture(autouse=True)
def _isolated_caches():
    prev = set_disk_cache(None)
    env = os.environ.pop(CACHE_DIR_ENV, None)
    clear_estimate_memo()
    try:
        yield
    finally:
        set_disk_cache(prev)
        if env is not None:
            os.environ[CACHE_DIR_ENV] = env
        clear_estimate_memo()


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    prev = set_registry(fresh)
    yield fresh
    set_registry(prev)


def _small_corpus(n=6):
    return corpus_preset("mixed", limit=n)


def _sweep(specs, **kw):
    kw.setdefault("shard_size", 2)
    return run_corpus_sweep(specs, KERNELS, WIDTHS, GPUS, **kw)


# ----------------------------------------------------------------------
# Pruned-DNN generators (the DLMC patterns)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("gen", [pruned_magnitude, pruned_random])
@pytest.mark.parametrize("s", [0.5, 0.9, 0.98])
def test_pruned_generators_hit_sparsity(gen, s):
    a = gen(64, 96, s, seed=3)
    assert a.shape == (64, 96)
    want = round(64 * 96 * (1.0 - s))
    assert a.nnz == want
    # deterministic in the seed
    b = gen(64, 96, s, seed=3)
    assert np.array_equal(a.rowptr, b.rowptr)
    assert np.array_equal(a.colind, b.colind)
    assert np.array_equal(a.values, b.values)
    c = gen(64, 96, s, seed=4)
    assert not (
        np.array_equal(a.colind, c.colind)
        and np.array_equal(a.values, c.values)
    )


def test_pruned_structured_is_blockwise():
    block = 4
    a = pruned_structured(64, 64, 0.75, block=block, seed=0)
    mask = np.zeros((64, 64), dtype=bool)
    for i in range(64):
        mask[i, a.colind[a.rowptr[i] : a.rowptr[i + 1]]] = True
    # every per-row run of `block` consecutive columns is kept or
    # dropped whole — the structured-pruning unit
    runs = mask.reshape(64, 64 // block, block)
    assert np.all(runs.all(axis=2) == runs.any(axis=2))
    assert 0.70 <= 1.0 - a.nnz / (64 * 64) <= 0.80


def test_pruned_generators_reject_bad_sparsity():
    with pytest.raises(ValueError):
        pruned_random(8, 8, 1.5)
    with pytest.raises(ValueError):
        pruned_magnitude(8, 8, -0.1)


# ----------------------------------------------------------------------
# Specs and corpora
# ----------------------------------------------------------------------


def test_spec_make_validates_kind_and_params():
    with pytest.raises(ValueError):
        MatrixSpec.make("x", "no-such-kind", m=8)
    with pytest.raises(TypeError):
        MatrixSpec.make("x", "uniform", m=8, nnz=[1, 2])  # non-primitive


def test_spec_build_is_deterministic_and_lazy():
    spec = MatrixSpec.make("u", "uniform", m=64, nnz=512, seed=5)
    a, b = spec.build(), spec.build()
    assert a.fingerprint() == b.fingerprint()
    # a spec is tiny and hashable; the matrix only exists when built
    assert hash(spec) == hash(MatrixSpec.make("u", "uniform", m=64, nnz=512, seed=5))
    assert spec.key() == ("u", "uniform", spec.params)


def test_spec_key_folds_in_file_state(tmp_path):
    f = tmp_path / "a.npz"
    save_npz(uniform_random(16, 64, seed=1), f)
    spec = next(corpus_from_dir(tmp_path))
    k1 = spec.key()
    assert k1[-2:] == (f.stat().st_size, f.stat().st_mtime_ns)
    save_npz(uniform_random(16, 80, seed=2), f)
    os.utime(f, ns=(f.stat().st_atime_ns, f.stat().st_mtime_ns + 1))
    assert spec.key() != k1  # edited file -> different checkpoint key
    missing = MatrixSpec.make("gone", "npz", path=str(tmp_path / "gone.npz"))
    assert missing.key()[-1] == "missing"


def test_dlmc_corpus_shape_and_names():
    specs = list(dlmc_corpus(shapes=((64, 64),), sparsities=(0.5, 0.9)))
    # 3 methods x 1 shape x 2 sparsities x 1 seed
    assert len(specs) == 6
    assert all(s.name.startswith("dlmc/") for s in specs)
    assert len({s.name for s in specs}) == 6
    structured = [s for s in specs if s.kind == "pruned_structured"]
    assert all(dict(s.params)["block"] == 4 for s in structured)


def test_corpus_preset_limit_widens_seed_range():
    specs = corpus_preset("dlmc", limit=1000)
    assert len(specs) == 1000
    assert len({s.name for s in specs}) == 1000  # all distinct
    with pytest.raises(ValueError):
        corpus_preset("nope")
    assert set(CORPUS_PRESETS) == {"dlmc", "graphs", "mixed"}


def test_graph_corpus_kinds():
    kinds = {s.kind for s in graph_corpus(ms=(128,))}
    assert kinds == {"uniform", "power_law", "rmat", "banded"}


def test_partition_shards_contract():
    specs = _small_corpus(7)
    with pytest.raises(ValueError):
        partition_shards(specs)  # neither
    with pytest.raises(ValueError):
        partition_shards(specs, shards=2, shard_size=3)  # both
    shards = partition_shards(specs, shard_size=3)
    assert [len(s) for s in shards] == [3, 3, 1]
    assert [s for shard in shards for s in shard] == specs
    assert [len(s) for s in partition_shards(specs, shards=2)] == [4, 3]
    assert partition_shards([], shard_size=3) == []
    # duplicate names with different specs are an error...
    dup = [specs[0], MatrixSpec.make(specs[0].name, "uniform", m=8, nnz=16)]
    with pytest.raises(ValueError):
        partition_shards(dup, shard_size=2)
    # ...but a literal repeat of the same spec is tolerated
    partition_shards([specs[0], specs[0]], shard_size=2)


# ----------------------------------------------------------------------
# The streaming driver + roll-up
# ----------------------------------------------------------------------


def test_corpus_sweep_rollup_is_valid_and_counts_add_up():
    specs = _small_corpus(6)
    res = _sweep(specs, shard_size=2)
    assert validate_corpus_rollup(res.rollup) == []
    assert res.rollup["schema"] == ROLLUP_SCHEMA
    assert res.rollup["corpus"]["matrices"] == 6
    assert res.rollup["corpus"]["shards"] == 3
    assert res.rollup["corpus"]["contests"] == 6  # one width x one gpu
    overall = res.rollup["overall"]
    assert overall["contests"] == 6
    assert sum(overall["wins"].values()) == 6
    assert sum(overall["win_rate"].values()) == pytest.approx(1.0)
    assert sum(b["contests"] for b in res.rollup["regimes"].values()) == 6
    assert sum(b["contests"] for b in res.rollup["sparsity_bands"].values()) == 6
    h = res.host
    assert (h.shards_total, h.shards_computed, h.shards_restored) == (3, 3, 0)
    assert h.cells_computed == 12 and h.cells_restored == 0
    assert h.matrices == 6


def test_corpus_sweep_byte_identical_across_sharding():
    specs = _small_corpus(6)
    base = json.dumps(_sweep(specs, shard_size=2).rollup, sort_keys=True)
    clear_estimate_memo()
    # shard geometry doesn't change the roll-up (only "shards" does)
    fat = _sweep(specs, shard_size=6).rollup
    fat["corpus"]["shards"] = 3
    assert json.dumps(fat, sort_keys=True) == base


def test_corpus_sweep_rejects_jobs_other_than_one():
    with pytest.raises(ValueError, match="single-threaded"):
        _sweep(_small_corpus(2), jobs=2)


def test_corpus_sweep_resume_byte_identical(tmp_path, registry):
    specs = _small_corpus(6)
    set_disk_cache(DiskCache(tmp_path))
    # interrupted: only 2 of 3 shards complete
    partial = _sweep(specs, shard_size=2, max_shards=2)
    assert partial.host.shards_computed == 2
    assert len(list(tmp_path.rglob("*.json"))) >= 2  # checkpoints on disk
    # resumed: finished shards restore with zero recomputation
    resumed = _sweep(specs, shard_size=2)
    assert resumed.host.shards_restored == 2
    assert resumed.host.shards_computed == 1
    assert resumed.host.cells_restored == partial.host.cells_computed
    assert registry.counter("corpus.shards.restored").value == 2
    # uninterrupted (no cache): byte-identical roll-up
    set_disk_cache(None)
    clear_estimate_memo()
    uninterrupted = _sweep(specs, shard_size=2)
    assert json.dumps(resumed.rollup, sort_keys=True) == json.dumps(
        uninterrupted.rollup, sort_keys=True
    )
    # a third run restores everything
    set_disk_cache(DiskCache(tmp_path))
    warm = _sweep(specs, shard_size=2)
    assert warm.host.shards_computed == 0
    assert warm.host.shards_restored == 3


def test_corpus_sweep_no_resume_ignores_checkpoints(tmp_path):
    specs = _small_corpus(4)
    set_disk_cache(DiskCache(tmp_path))
    _sweep(specs, shard_size=2)
    again = _sweep(specs, shard_size=2, resume=False)
    assert again.host.shards_restored == 0
    assert again.host.shards_computed == 2


def test_corpus_sweep_calls_progress():
    seen = []
    _sweep(
        _small_corpus(4),
        shard_size=2,
        progress=lambda i, total, restored: seen.append((i, total, restored)),
    )
    assert seen == [(0, 2, False), (1, 2, False)]


def test_corpus_sweep_rejects_empty_config():
    with pytest.raises(ValueError):
        run_corpus_sweep(_small_corpus(2), [], WIDTHS, GPUS)
    with pytest.raises(ValueError):
        run_corpus_sweep(_small_corpus(2), KERNELS, [], GPUS)


def test_format_rollup_and_markdown_deterministic():
    res = _sweep(_small_corpus(4), shard_size=2)
    text = format_rollup(res.rollup)
    assert "win rates (overall)" in text and "by sparsity band" in text
    md = render_corpus_markdown(res.rollup)
    assert md == render_corpus_markdown(json.loads(json.dumps(res.rollup)))
    assert "| bucket |" in md
    for k in res.rollup["config"]["kernels"]:
        assert k in md


def test_write_corpus_rollup_validates_and_roundtrips(tmp_path):
    res = _sweep(_small_corpus(4), shard_size=2)
    out = tmp_path / "rollup.json"
    write_corpus_rollup(res.rollup, out)
    assert json.loads(out.read_text()) == json.loads(json.dumps(res.rollup))
    bad = dict(res.rollup, schema="wrong/schema")
    assert validate_corpus_rollup(bad)
    with pytest.raises(ValueError):
        write_corpus_rollup(bad, tmp_path / "bad.json")


def test_clear_derived_counter(registry):
    a = uniform_random(32, 128, seed=0)
    a.fingerprint()  # populate derived cache
    a.clear_derived()
    assert registry.counter("csr.derived_cache.cleared").value == 1
    b = uniform_random(32, 128, seed=0)
    assert a.fingerprint() == b.fingerprint()  # recomputed, same content


# ----------------------------------------------------------------------
# Corpus priors -> tune_cf
# ----------------------------------------------------------------------


def _rollup_with_regime_winner(regime, winner, matrices=5):
    block = {
        "matrices": matrices,
        "contests": 10,
        "wins": {winner: 10},
        "win_rate": {winner: 1.0},
        "mean_row_gini": 0.1,
        "mean_max_over_mean": 1.0,
        "mean_sparsity": 0.9,
    }
    return {"schema": ROLLUP_SCHEMA, "regimes": {regime: block}}


def test_corpus_priors_rank_and_shortlist():
    from repro.sparse.stats import graph_regime

    a = uniform_random(64, 512, seed=1)
    regime = graph_regime(a)
    priors = CorpusPriors.from_rollup(
        _rollup_with_regime_winner(regime, "mergepath"),
        candidates=(1, 2, 4, 8, "mergepath"),
    )
    short = priors.shortlist(regime, (1, 2, 4, 8, "mergepath"), top_k=1)
    assert short[0] == "mergepath"
    # unknown regime -> full candidate set
    assert priors.shortlist("no-such", (1, 2)) == (1, 2)
    # thin evidence (matrices < min_matrices) is ignored
    thin = CorpusPriors.from_rollup(
        _rollup_with_regime_winner(regime, "mergepath", matrices=1),
        candidates=(1, 2, 4, 8, "mergepath"),
    )
    assert regime not in thin.ranking


def test_tune_cf_priors_narrow_grid_default_unchanged(registry):
    from repro.sparse.stats import graph_regime

    a = uniform_random(64, 512, seed=1)
    baseline = tune_cf(a, 64, GTX_1080TI)
    assert len(baseline.times) == 4  # full DEFAULT_CF_CANDIDATES grid
    priors = CorpusPriors.from_rollup(
        _rollup_with_regime_winner(graph_regime(a), "crc")
    )
    # rank cf=1 (kernel "crc") first; grid narrows to top_k
    pruned = tune_cf(a, 64, GTX_1080TI, priors=priors, prior_top_k=1)
    assert len(pruned.times) == 1
    assert pruned.best_cf == 1
    assert registry.counter("tuning.prior.candidates_pruned").value == 3


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_corpus_roundtrip(tmp_path, capsys):
    from repro.cli import main

    rollup_path = tmp_path / "rollup.json"
    host_path = tmp_path / "host.json"
    args = [
        "corpus", "--preset", "graphs", "--limit", "8", "--shards", "2",
        "--n", "16", "--kernels", "gespmm", "mergepath",
        "--cache-dir", str(tmp_path / "cache"),
        "--rollup-json", str(rollup_path), "--host-json", str(host_path),
        "--quiet",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "win rates (overall)" in out
    doc = json.loads(rollup_path.read_text())
    assert validate_corpus_rollup(doc) == []
    host = json.loads(host_path.read_text())
    assert host["shards_computed"] == 2 and host["matrices"] == 8
    # second invocation resumes entirely from the checkpoint cache and
    # writes a byte-identical roll-up
    first_bytes = rollup_path.read_bytes()
    assert main(args) == 0
    assert rollup_path.read_bytes() == first_bytes
    assert json.loads(host_path.read_text())["shards_restored"] == 2
