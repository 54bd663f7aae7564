"""Tests for repro.bench.diskcache: the cross-process estimate/shard cache."""

import json
import os
from dataclasses import replace

import pytest

from repro.bench import run_sweep_with_stats
from repro.bench.diskcache import (
    CACHE_DIR_ENV,
    SCHEMA,
    DiskCache,
    get_disk_cache,
    set_disk_cache,
    timing_from_json,
    timing_to_json,
    use_disk_cache,
)
from repro.core import CRCSpMM, GESpMM, SimpleSpMM
from repro.gpusim.config import GTX_1080TI, RTX_2080
from repro.gpusim.kernel import clear_estimate_memo
from repro.sparse import power_law, uniform_random


@pytest.fixture(autouse=True)
def _isolated_caches():
    """No ambient disk cache, clean process memos, before and after."""
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


def _timing(kernel=None, a=None, n=64, gpu=GTX_1080TI):
    kernel = kernel or GESpMM()
    a = a if a is not None else power_law(50, 400, seed=7)
    return kernel.estimate(a, n, gpu), kernel, a


def _key(fp="fp", n=64):
    return ("k", fp, n, "gpu", "plus_times", None)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def test_timing_json_roundtrip_exact():
    t, _, _ = _timing()
    back = timing_from_json(json.loads(json.dumps(timing_to_json(t))))
    assert back == t  # dataclass equality: every field, bit for bit
    assert back.time_s == t.time_s
    assert back.stats.array_traffic == t.stats.array_traffic
    assert back.occupancy == t.occupancy
    assert back.breakdown == t.breakdown


def test_timing_cache_roundtrip(tmp_path):
    t, _, _ = _timing()
    cache = DiskCache(tmp_path)
    key = ("k", "fp", 64, "gpu", "plus_times", None)
    assert cache.get_timing(key) is None  # miss
    cache.put_timing(key, t)
    assert cache.get_timing(key) == t
    assert cache.counters() == {"hits": 1, "misses": 1, "invalidations": 0}


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------


def _sole_entry(root):
    files = [f for f in root.rglob("*.json")]
    assert len(files) == 1
    return files[0]


def test_corrupt_entry_invalidated(tmp_path):
    cache = DiskCache(tmp_path)
    key = _key()
    cache.put_timing(key, _timing()[0])
    path = _sole_entry(cache.root)
    path.write_text("{ not json")
    assert cache.get_timing(key) is None
    assert cache.counters()["invalidations"] == 1
    assert not path.exists()  # removed best-effort
    assert cache.get_timing(key) is None  # now a clean miss
    assert cache.counters()["misses"] == 1


def test_schema_mismatch_invalidated(tmp_path):
    cache = DiskCache(tmp_path)
    key = _key()
    cache.put_timing(key, _timing()[0])
    path = _sole_entry(cache.root)
    doc = json.loads(path.read_text())
    doc["schema"] = "repro/diskcache/v0"
    path.write_text(json.dumps(doc))
    assert cache.get_timing(key) is None
    assert cache.counters()["invalidations"] == 1


def test_key_mismatch_invalidated(tmp_path):
    cache = DiskCache(tmp_path)
    key = _key()
    cache.put_timing(key, _timing()[0])
    path = _sole_entry(cache.root)
    doc = json.loads(path.read_text())
    doc["key"] = repr((SCHEMA, "timing", ("other",) + key[1:]))
    path.write_text(json.dumps(doc))
    assert cache.get_timing(key) is None
    assert cache.counters()["invalidations"] == 1


def test_malformed_payload_invalidated(tmp_path):
    cache = DiskCache(tmp_path)
    key = _key()
    t, _, _ = _timing()
    cache.put_timing(key, t)
    path = _sole_entry(cache.root)
    doc = json.loads(path.read_text())
    del doc["payload"]["stats"]
    path.write_text(json.dumps(doc))
    assert cache.get_timing(key) is None
    assert cache.counters()["invalidations"] == 1


# ----------------------------------------------------------------------
# Estimate integration
# ----------------------------------------------------------------------


def test_estimate_served_from_disk_across_simulated_processes(tmp_path):
    a = power_law(60, 500, seed=11)
    kern = CRCSpMM()
    with use_disk_cache(DiskCache(tmp_path)) as cache:
        t1 = kern.estimate(a, 96, RTX_2080)
        assert cache.counters()["misses"] == 1  # cold lookup
        clear_estimate_memo()  # simulate a fresh process
        t2 = kern.estimate(a, 96, RTX_2080)
        assert t2 == t1
        assert cache.counters()["hits"] == 1
        # Third call hits the refilled in-memory memo, not the disk.
        kern.estimate(a, 96, RTX_2080)
        assert cache.counters()["hits"] == 1


def test_estimate_unaffected_without_cache():
    a = uniform_random(30, 200, 30, seed=3)
    t1 = SimpleSpMM().estimate(a, 32, GTX_1080TI)
    clear_estimate_memo()
    t2 = SimpleSpMM().estimate(a, 32, GTX_1080TI)
    assert t1 == t2


# ----------------------------------------------------------------------
# Sweep integration: byte-identical warm documents
# ----------------------------------------------------------------------


def test_sweep_byte_identical_across_simulated_processes(tmp_path):
    kernels = [SimpleSpMM(), GESpMM()]
    graphs = {"pl": power_law(80, 700, seed=2)}
    widths = [32, 250]
    gpus = [GTX_1080TI]
    with use_disk_cache(DiskCache(tmp_path)) as cache:
        cold, host_cold = run_sweep_with_stats(kernels, graphs, widths, gpus)
        clear_estimate_memo()  # simulate a fresh process
        warm, host_warm = run_sweep_with_stats(kernels, graphs, widths, gpus)
    assert warm == cold
    assert host_warm.memo_misses == 0  # zero recomputation
    assert host_warm.memo_hits == len(cold)
    c = cache.counters()
    assert c["hits"] == len(cold) and c["invalidations"] == 0
    # Serialized cells are byte-identical (floats round-trip via repr).
    dump = lambda rs: json.dumps([r.__dict__ for r in rs], sort_keys=True)
    assert dump(warm) == dump(cold)


# ----------------------------------------------------------------------
# Activation plumbing
# ----------------------------------------------------------------------


def test_env_var_activation(tmp_path, monkeypatch):
    assert get_disk_cache() is None
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    cache = get_disk_cache()
    assert cache is not None and str(cache.root) == str(tmp_path)
    assert get_disk_cache() is cache  # memoized per root
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert get_disk_cache() is None


def test_explicit_activation_wins_over_env(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
    mine = DiskCache(tmp_path / "mine")
    with use_disk_cache(mine):
        assert get_disk_cache() is mine
    assert str(get_disk_cache().root) == str(tmp_path / "env")


# ----------------------------------------------------------------------
# Maintenance: stats / clear
# ----------------------------------------------------------------------


def test_stats_and_clear(tmp_path):
    cache = DiskCache(tmp_path)
    t, _, _ = _timing()
    cache.put_timing(_key(n=64), t)
    cache.put_timing(_key(n=128), t)
    cache.put_shard(("corpus-shard", (), (), (64,), ("g",)),
                    {"cells": [], "stats": {}})
    s = cache.stats()
    assert s["entries"] == 3
    assert s["kinds"]["timing"]["entries"] == 2
    assert s["kinds"]["shard"]["entries"] == 1
    assert s["bytes"] > 0
    assert cache.clear() == 3
    assert cache.stats()["entries"] == 0
    assert cache.clear() == 0  # idempotent, empty root fine


def test_clear_missing_root(tmp_path):
    cache = DiskCache(tmp_path / "never-created")
    assert cache.clear() == 0
    assert cache.stats()["entries"] == 0


# ----------------------------------------------------------------------
# CLI: repro-bench cache / --cache-dir
# ----------------------------------------------------------------------


def test_cli_cache_stats_and_clear(tmp_path, capsys):
    from repro.cli import main

    cache = DiskCache(tmp_path)
    cache.put_timing(_key(), _timing()[0])
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "timing" in out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed" in capsys.readouterr().out
    assert cache.stats()["entries"] == 0


def test_cli_cache_requires_dir(monkeypatch):
    from repro.cli import main

    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert main(["cache", "stats"]) == 2


def test_cli_cache_env_dir(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    DiskCache(tmp_path).put_timing(_key(), _timing()[0])
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert main(["cache", "stats"]) == 0
    assert str(tmp_path) in capsys.readouterr().out


# ----------------------------------------------------------------------
# Concurrent writers (two processes racing the same key)
# ----------------------------------------------------------------------


def _race_writer(root: str, worker: int, n_keys: int) -> None:
    """Hammer the same keys from one process (module-level: picklable)."""
    cache = DiskCache(root)
    t = _timing()[0]
    for rep in range(20):
        for i in range(n_keys):
            # Both workers write identical payloads per key — the timing
            # is a pure function of its key, as in real sweeps.
            cache.put_timing(_key(f"fp{i}"), replace(t, time_s=float(i)))


def test_concurrent_writers_no_corruption(tmp_path):
    """Two processes racing the same keys through tmp+os.replace must
    never corrupt an entry, and a reader never observes a partial one."""
    import multiprocessing as mp

    n_keys = 8
    ctx = mp.get_context("fork")
    procs = [
        ctx.Process(target=_race_writer, args=(str(tmp_path), w, n_keys))
        for w in range(2)
    ]
    for p in procs:
        p.start()
    # Read concurrently while the writers race: every get is either a
    # miss (file not there yet) or the complete, valid payload.
    reader = DiskCache(tmp_path)
    bound_by = _timing()[0].bound_by
    seen = 0
    while any(p.is_alive() for p in procs):
        for i in range(n_keys):
            t = reader.get_timing(_key(f"fp{i}"))
            if t is not None:
                assert t.time_s == float(i) and t.bound_by == bound_by
                seen += 1
    for p in procs:
        p.join()
        assert p.exitcode == 0
    assert reader.counters()["invalidations"] == 0  # no partial reads, ever
    # After the dust settles every key is present and intact.
    final = DiskCache(tmp_path)
    for i in range(n_keys):
        assert final.get_timing(_key(f"fp{i}")) is not None
    assert final.counters()["invalidations"] == 0
    # And no temp files were left behind by the atomic-replace protocol.
    leftovers = [f for f in tmp_path.rglob("*") if ".tmp." in f.name]
    assert leftovers == []


# ----------------------------------------------------------------------
# Per-schema stats (repro-bench cache stats)
# ----------------------------------------------------------------------


def test_stats_groups_by_schema_version(tmp_path):
    cache = DiskCache(tmp_path)
    t = _timing()[0]
    cache.put_timing(_key(n=64), t)
    cache.put_timing(_key(n=128), t)
    # Hand-craft a leftover entry from a previous schema version and a
    # corrupt file; stats must label both without touching them.
    old = tmp_path / "timing" / "zz" / "deadbeef.json"
    old.parent.mkdir(parents=True)
    old.write_text(json.dumps({"schema": "repro/diskcache/v1", "kind": "timing",
                               "key": "old", "payload": {}}))
    bad = tmp_path / "timing" / "zz" / "torn.json"
    bad.write_text("{not json")
    s = cache.stats()
    assert s["entries"] == 4
    assert s["schemas"][SCHEMA]["entries"] == 2
    assert s["schemas"]["repro/diskcache/v1"]["entries"] == 1
    assert s["schemas"]["(unreadable)"]["entries"] == 1
    assert sum(v["entries"] for v in s["schemas"].values()) == s["entries"]
    assert sum(v["bytes"] for v in s["schemas"].values()) == s["bytes"]


def test_cli_cache_stats_shows_schemas(tmp_path, capsys):
    from repro.cli import main

    DiskCache(tmp_path).put_timing(_key(), _timing()[0])
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "by schema version:" in out
    assert SCHEMA in out


# ----------------------------------------------------------------------
# Shard entries (corpus checkpoints)
# ----------------------------------------------------------------------


def test_shard_roundtrip(tmp_path):
    cache = DiskCache(tmp_path)
    payload = {
        "cells": [["crc", "m0", 64, "g", 0.5, 2.0]],
        "stats": {"m0": {"regime": "short-rows/uniform", "sparsity": 0.9}},
    }
    key = ("corpus-shard", (("m0", "uniform", ()),), ("ck",), (64,), ("g",))
    assert cache.get_shard(key) is None
    cache.put_shard(key, payload)
    back = cache.get_shard(key)
    assert back == json.loads(json.dumps(payload))  # JSON-exact round-trip


def test_shard_malformed_payload_invalidated(tmp_path):
    cache = DiskCache(tmp_path)
    key = ("corpus-shard", (("m0", "uniform", ()),), ("ck",), (64,), ("g",))
    cache.put_shard(key, {"cells": [["too", "short"]], "stats": {}})
    assert cache.get_shard(key) is None  # structurally invalid -> recompute
    assert cache.counters()["invalidations"] == 1
    cache.put_shard(key, {"cells": "nope", "stats": {}})
    assert cache.get_shard(key) is None
