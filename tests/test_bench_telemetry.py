"""BENCH_spmm.json writer: schema validity, determinism, geomeans."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.baselines import CusparseCsrmm2
from repro.bench import run_sweep, write_bench_json
from repro.bench.telemetry import (
    SCHEMA_ID,
    bench_document,
    validate_bench_document,
)
from repro.core import GESpMM, SimpleSpMM
from repro.gpusim import GTX_1080TI, RTX_2080
from repro.sparse import uniform_random


@pytest.fixture(scope="module")
def sweep_results():
    graphs = {
        "rand-a": uniform_random(m=600, nnz=4800, seed=1),
        "rand-b": uniform_random(m=400, nnz=6400, seed=2),
    }
    kernels = [SimpleSpMM(), CusparseCsrmm2(), GESpMM()]
    return run_sweep(kernels, graphs, [64, 128], [GTX_1080TI, RTX_2080])


def test_document_shape_and_validity(sweep_results):
    doc = bench_document(sweep_results)
    assert validate_bench_document(doc) == []
    assert doc["schema"] == SCHEMA_ID
    # one cell per (kernel, graph, n, gpu)
    assert len(doc["cells"]) == 3 * 2 * 2 * 2
    assert doc["run"]["widths"] == [64, 128]
    assert set(doc["run"]["gpus"]) == {GTX_1080TI.name, RTX_2080.name}
    # GE-SpMM vs both baselines, per (gpu, n)
    assert len(doc["geomeans"]) == 2 * 2 * 2
    for g in doc["geomeans"]:
        assert g["target"] == "GE-SpMM"
        assert g["speedup"] > 0


def test_cells_sorted_and_deterministic(sweep_results):
    a = bench_document(sweep_results)
    b = bench_document(list(reversed(sweep_results)))
    assert a == b  # input order must not leak into the artifact


def test_write_round_trips_through_json(tmp_path, sweep_results):
    path = tmp_path / "BENCH_spmm.json"
    doc = write_bench_json(sweep_results, path, extra_run_meta={"command": "test"})
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(doc))
    assert validate_bench_document(loaded) == []
    assert loaded["run"]["command"] == "test"
    # rewriting produces byte-identical content (diffable across PRs)
    before = path.read_bytes()
    write_bench_json(sweep_results, path, extra_run_meta={"command": "test"})
    assert path.read_bytes() == before


def test_validator_catches_corruption(sweep_results):
    doc = bench_document(sweep_results)
    assert validate_bench_document({"schema": "nope"})  # wrong everything
    bad = json.loads(json.dumps(doc))
    bad["cells"][0].pop("gflops")
    assert any("gflops" in e for e in validate_bench_document(bad))
    bad = json.loads(json.dumps(doc))
    bad["cells"].append(dict(bad["cells"][0]))
    assert any("duplicate" in e for e in validate_bench_document(bad))
    bad = json.loads(json.dumps(doc))
    bad["cells"][0]["n"] = "128"
    assert any("cells[0].n" in e for e in validate_bench_document(bad))
    assert validate_bench_document([]) != []


def test_cells_carry_attribution_blocks(sweep_results):
    doc = bench_document(sweep_results)
    assert validate_bench_document(doc) == []
    for cell in doc["cells"]:
        attr = cell["attribution"]
        assert attr["bound_by"] in attr["breakdown_ms"]
        base = {
            "dram", "l2_link", "issue", "shared", "compute", "atomics",
            "sync", "launch",
        }
        # "tail" appears only for kernels that report a drain-tail hint
        # (row-split / merge-path schedules); the core set is always there.
        assert base <= set(attr["breakdown_ms"]) <= base | {"tail"}
        assert {"f_width", "f_ilp", "f_occ", "efficiency",
                "link_bytes", "dram_bytes"} <= set(attr["factors"])
        # breakdown is consistent with the reported cell time:
        # max(parallel ceilings) + sync + launch == time_ms
        b = attr["breakdown_ms"]
        parallel = {k: v for k, v in b.items() if k not in ("sync", "launch")}
        assert max(parallel.values()) + b["sync"] + b["launch"] == pytest.approx(
            cell["time_ms"]
        )


def test_attribution_absent_for_plain_results(sweep_results):
    """Results without attribution (older pipelines) serialize without the
    block and still validate."""
    from dataclasses import replace

    stripped = [replace(r, attribution=None) for r in sweep_results]
    doc = bench_document(stripped)
    assert validate_bench_document(doc) == []
    assert all("attribution" not in c for c in doc["cells"])


def test_missing_target_yields_empty_geomeans(sweep_results):
    only_baselines = [r for r in sweep_results if r.kernel != "GE-SpMM"]
    doc = bench_document(only_baselines)
    assert doc["geomeans"] == []
    assert validate_bench_document(doc) == []


# -- malformed-document property suite --------------------------------------

# Each corruption takes a fresh valid document and breaks it one way; the
# validator must return a diagnostic mentioning the right location — never
# raise (a KeyError from the validator would mask the real problem in CI).
_CORRUPTIONS = {
    "drop-schema": lambda d: d.pop("schema"),
    "wrong-schema": lambda d: d.update(schema="repro/bench-spmm/v999"),
    "schema-not-string": lambda d: d.update(schema=7),
    "drop-run": lambda d: d.pop("run"),
    "run-not-object": lambda d: d.update(run=[1, 2]),
    "run-missing-tool": lambda d: d["run"].pop("tool"),
    "run-empty-kernels": lambda d: d["run"].update(kernels=[]),
    "drop-cells": lambda d: d.pop("cells"),
    "cells-empty": lambda d: d.update(cells=[]),
    "cells-not-list": lambda d: d.update(cells={"kernel": "x"}),
    "cell-not-object": lambda d: d["cells"].__setitem__(0, "cell"),
    "cell-missing-kernel": lambda d: d["cells"][0].pop("kernel"),
    "cell-missing-time": lambda d: d["cells"][0].pop("time_ms"),
    "cell-wrong-key-type": lambda d: d["cells"][0].update(n="128"),
    "cell-bool-n": lambda d: d["cells"][0].update(n=True),
    "cell-nan-time": lambda d: d["cells"][0].update(time_ms=float("nan")),
    "cell-inf-time": lambda d: d["cells"][0].update(time_ms=float("inf")),
    "cell-negative-time": lambda d: d["cells"][0].update(time_ms=-1.0),
    "cell-nan-gflops": lambda d: d["cells"][0].update(gflops=float("nan")),
    "cell-duplicate": lambda d: d["cells"].append(dict(d["cells"][0])),
    "drop-geomeans": lambda d: d.pop("geomeans"),
    "geomeans-not-list": lambda d: d.update(geomeans="none"),
    "geomean-missing-speedup": lambda d: d["geomeans"][0].pop("speedup"),
    "geomean-inf-speedup": lambda d: d["geomeans"][0].update(speedup=float("inf")),
    "geomean-negative-speedup": lambda d: d["geomeans"][0].update(speedup=-2.0),
    # per-cell attribution block (optional, but must be well-formed when present)
    "attr-not-object": lambda d: d["cells"][0].update(attribution="dram"),
    "attr-missing-bound": lambda d: d["cells"][0]["attribution"].pop("bound_by"),
    "attr-bound-not-string": lambda d: d["cells"][0]["attribution"].update(bound_by=3),
    "attr-missing-breakdown": lambda d: d["cells"][0]["attribution"].pop("breakdown_ms"),
    "attr-breakdown-not-dict": lambda d: d["cells"][0]["attribution"].update(
        breakdown_ms=[1.0]),
    "attr-nan-component": lambda d: d["cells"][0]["attribution"]["breakdown_ms"].update(
        dram=float("nan")),
    "attr-negative-component": lambda d: d["cells"][0]["attribution"]["breakdown_ms"].update(
        dram=-1.0),
    "attr-bool-factor": lambda d: d["cells"][0]["attribution"]["factors"].update(
        f_occ=True),
    "attr-bound-not-in-breakdown": lambda d: d["cells"][0]["attribution"].update(
        bound_by="warp-divergence"),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_validator_rejects_each_corruption(sweep_results, corruption):
    import copy

    doc = copy.deepcopy(bench_document(sweep_results))
    _CORRUPTIONS[corruption](doc)
    errors = validate_bench_document(doc)  # must not raise
    assert errors, f"{corruption}: corruption not detected"
    assert all(isinstance(e, str) and e for e in errors)


def test_validator_random_corruption_storm(sweep_results):
    """Property-style sweep: stack 1-3 random corruptions per trial; the
    validator must flag every combination without raising."""
    import copy
    import numpy as np

    names = sorted(_CORRUPTIONS)
    rng = np.random.default_rng(20260807)
    for _ in range(60):
        doc = copy.deepcopy(bench_document(sweep_results))
        picks = rng.choice(len(names), size=int(rng.integers(1, 4)), replace=False)
        applied = []
        for p in picks:
            try:
                _CORRUPTIONS[names[p]](doc)
                applied.append(names[p])
            except (KeyError, IndexError, AttributeError, TypeError):
                # an earlier corruption already removed this target;
                # the document is corrupt either way
                pass
        errors = validate_bench_document(doc)
        assert errors, f"stacked corruption {applied} not detected"


def test_validator_rejects_non_finite_with_clear_message(sweep_results):
    import copy

    doc = copy.deepcopy(bench_document(sweep_results))
    doc["cells"][0]["time_ms"] = float("nan")
    errors = validate_bench_document(doc)
    assert any("cells[0].time_ms" in e and "non-finite" in e for e in errors)


# -- determinism (the property the regression gate rests on) ---------------


def test_sweep_document_byte_deterministic():
    """Two fully independent in-process telemetry sweeps must serialize
    byte-identically: this is the invariant that lets `make gate` treat
    any BENCH_spmm.json diff as a real model change."""

    def one_sweep():
        graphs = {
            "det-a": uniform_random(m=500, nnz=4000, seed=31),
            "det-b": uniform_random(m=350, nnz=5250, seed=32),
        }
        kernels = [SimpleSpMM(), CusparseCsrmm2(), GESpMM()]
        results = run_sweep(kernels, graphs, [32, 128], [GTX_1080TI, RTX_2080])
        return bench_document(results, extra_run_meta={"command": "sweep"})

    first = json.dumps(one_sweep(), indent=2, sort_keys=True)
    second = json.dumps(one_sweep(), indent=2, sort_keys=True)
    assert first == second


def test_cli_sweep_bench_json_byte_reproducible(tmp_path, sweep_results):
    """Two fresh ``repro-bench sweep --bench-json`` processes write the
    same bytes: ``run.host`` holds serial counters only, no wall time.
    And the file has one writer — a foreign ``run.host`` block already
    at the path is overwritten, not carried over."""
    import repro

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(repro.__file__)),
        os.environ.get("PYTHONPATH"))))}
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "--graphs", "2",
             "--n", "32", "--bench-json", str(path)],
            check=True, capture_output=True, env=env,
        )
    assert paths[0].read_bytes() == paths[1].read_bytes()
    host = json.loads(paths[0].read_text())["run"]["host"]
    assert set(host) == {"cells", "memo_hits", "memo_misses", "access_profile"}

    foreign = json.loads(paths[0].read_text())
    foreign["run"]["host"]["microbench"] = {"delta_apply": {"speedup": 6.0}}
    paths[0].write_text(json.dumps(foreign))
    doc = write_bench_json(sweep_results, paths[0],
                           extra_run_meta={"host": {"cells": 1}})
    assert doc["run"]["host"] == {"cells": 1}
    assert json.loads(paths[0].read_text()) == doc
