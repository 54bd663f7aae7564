"""The benchmark regression gate (`repro.bench.gate` + `repro-bench gate`).

Covers document diffing (per-cell time/GFLOPS, geomeans, added/removed
cells), accepted-drift annotations, report determinism in both
renderings, exit codes, and the two `make gate` paths the repo relies
on: exit 0 on an unchanged tree, non-zero when a timing-model edit
shifts a BENCH_spmm.json cell without an annotation.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.baselines import CusparseCsrmm2
from repro.bench import bench_document, run_sweep
from repro.bench.gate import (
    EXIT_OK,
    EXIT_REGRESSED,
    EXIT_USAGE,
    AcceptedDrift,
    DRIFT_SCHEMA_ID,
    GateError,
    GateThresholds,
    diff_documents,
    explain_attribution_drift,
    gate_paths,
    geomean_key,
    load_accepted_drift,
    load_bench_document,
    measurement_key,
)
from repro.cli import main as cli_main
from repro.core import GESpMM, SimpleSpMM
from repro.gpusim import GTX_1080TI
from repro.sparse import uniform_random

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def doc():
    graphs = {
        "rand-a": uniform_random(m=400, nnz=3200, seed=21),
        "rand-b": uniform_random(m=300, nnz=3600, seed=22),
    }
    kernels = [SimpleSpMM(), CusparseCsrmm2(), GESpMM()]
    results = run_sweep(kernels, graphs, [64, 128], [GTX_1080TI])
    return bench_document(results)


def _mutated(doc, **cell_updates):
    out = copy.deepcopy(doc)
    out["cells"][0].update(cell_updates)
    return out


# -- document diffing -------------------------------------------------------


def test_measurement_key_format(doc):
    assert measurement_key("simple", "rand-a", 32, "GTX 1080Ti") == \
        "simple|rand-a|N=32|GTX 1080Ti"
    assert measurement_key("simple", "g", 32.0, "gpu") == "simple|g|N=32|gpu"
    # Drift rows are keyed the same way, so annotations glob against it.
    cell = doc["cells"][0]
    cur = _mutated(doc, time_ms=cell["time_ms"] * 2)
    key = measurement_key(cell["kernel"], cell["graph"], cell["n"], cell["gpu"])
    assert [d.key for d in diff_documents(doc, cur).regressions] == [key]


def test_identical_documents_pass(doc):
    report = diff_documents(doc, copy.deepcopy(doc))
    assert report.passed
    assert report.exit_code == EXIT_OK
    assert report.regressions == [] and report.accepted == []
    assert report.cells_compared == len(doc["cells"])
    assert report.geomeans_compared == len(doc["geomeans"])
    assert "PASS" in report.format()


def test_time_drift_fails(doc):
    cur = _mutated(doc, time_ms=doc["cells"][0]["time_ms"] * 1.3)
    report = diff_documents(doc, cur)
    assert not report.passed and report.exit_code == EXIT_REGRESSED
    assert any(d.metric == "time_ms" for d in report.regressions)
    c = doc["cells"][0]
    key = f"{c['kernel']}|{c['graph']}|N={c['n']}|{c['gpu']}"
    assert any(d.key == key for d in report.regressions)
    assert "UNEXPLAINED DRIFT" in report.format() and key in report.format()


def test_gflops_drift_fails_independently(doc):
    cur = _mutated(doc, gflops=doc["cells"][0]["gflops"] * 0.5)
    report = diff_documents(doc, cur)
    assert [d.metric for d in report.regressions] == ["gflops"]


def test_drift_within_tolerance_passes(doc):
    cur = _mutated(doc, time_ms=doc["cells"][0]["time_ms"] * 1.01)
    thresholds = GateThresholds(time_rel_tol=0.05)
    assert diff_documents(doc, cur, thresholds=thresholds).passed
    # the same drift fails under the default zero tolerance
    assert not diff_documents(doc, cur).passed


def test_removed_cell_is_presence_drift(doc):
    cur = copy.deepcopy(doc)
    removed = cur["cells"].pop(0)
    report = diff_documents(doc, cur)
    presence = [d for d in report.regressions if d.metric == "presence"]
    assert len(presence) == 1 and presence[0].drift == float("-inf")
    assert removed["kernel"] in presence[0].key
    assert "removed" in presence[0].describe()
    assert report.cells_compared == len(doc["cells"]) - 1


def test_added_cell_is_presence_drift(doc):
    cur = copy.deepcopy(doc)
    extra = dict(cur["cells"][0], graph="brand-new-graph")
    cur["cells"].append(extra)
    report = diff_documents(doc, cur)
    presence = [d for d in report.regressions if d.metric == "presence"]
    assert len(presence) == 1 and presence[0].drift == float("inf")
    assert "appeared" in presence[0].describe()


def test_geomean_drift_detected(doc):
    assert doc["geomeans"], "fixture must produce geomeans"
    cur = copy.deepcopy(doc)
    cur["geomeans"][0]["speedup"] *= 1.1
    report = diff_documents(doc, cur)
    assert [d.metric for d in report.regressions] == ["speedup"]
    assert report.regressions[0].key == geomean_key(doc["geomeans"][0])
    assert report.regressions[0].key.startswith("geomean:")


def test_invalid_document_raises_gate_error(doc):
    with pytest.raises(GateError, match="schema"):
        diff_documents(doc, {"schema": "nope"})


# -- accepted drift ---------------------------------------------------------


def _key_of(cell):
    return f"{cell['kernel']}|{cell['graph']}|N={cell['n']}|{cell['gpu']}"


def test_annotation_accepts_matching_drift(doc):
    cur = _mutated(doc, time_ms=doc["cells"][0]["time_ms"] * 1.3,
                   gflops=doc["cells"][0]["gflops"] / 1.3)
    ann = AcceptedDrift(pattern=_key_of(doc["cells"][0]),
                        reason="test: intentional model change")
    report = diff_documents(doc, cur, accepted=[ann])
    assert report.passed
    assert {d.metric for d in report.accepted} == {"time_ms", "gflops"}
    assert all(d.reason == ann.reason for d in report.accepted)
    assert "accepted drift" in report.format() and ann.reason in report.format()


def test_annotation_glob_and_metric_filter(doc):
    cur = _mutated(doc, time_ms=doc["cells"][0]["time_ms"] * 1.3,
                   gflops=doc["cells"][0]["gflops"] * 1.3)
    ann = AcceptedDrift(pattern="*", reason="time only", metrics=("time_ms",))
    report = diff_documents(doc, cur, accepted=[ann])
    # the gflops drift is NOT covered, so the gate still fails
    assert not report.passed
    assert [d.metric for d in report.accepted] == ["time_ms"]
    assert [d.metric for d in report.regressions] == ["gflops"]


def test_annotation_max_drift_cap(doc):
    cur = _mutated(doc, time_ms=doc["cells"][0]["time_ms"] * 3.0)
    capped = AcceptedDrift(pattern="*", reason="small fix", max_drift=0.10)
    report = diff_documents(doc, cur, accepted=[capped])
    # +200% blows through the 10% cap: still a regression
    assert not report.passed


def test_annotation_does_not_cover_presence_by_default(doc):
    cur = copy.deepcopy(doc)
    cur["cells"].pop(0)
    ann = AcceptedDrift(pattern="*", reason="renamed kernels",
                        metrics=("time_ms", "gflops"))
    assert not diff_documents(doc, cur, accepted=[ann]).passed
    allow = AcceptedDrift(pattern="*", reason="renamed kernels")
    assert diff_documents(doc, cur, accepted=[allow]).passed


def test_load_accepted_drift_round_trip(tmp_path):
    path = tmp_path / "BENCH_accepted_drift.json"
    path.write_text(json.dumps({
        "schema": DRIFT_SCHEMA_ID,
        "entries": [
            {"pattern": "crc|*", "reason": "CRC model fix",
             "metrics": ["time_ms"], "max_drift": 0.2},
            {"pattern": "*", "reason": "catch-all"},
        ],
    }))
    anns = load_accepted_drift(path)
    assert [a.pattern for a in anns] == ["crc|*", "*"]
    assert anns[0].metrics == ("time_ms",) and anns[0].max_drift == 0.2
    assert anns[1].metrics is None


@pytest.mark.parametrize("payload,match", [
    ({"schema": "wrong"}, "schema"),
    ({"schema": DRIFT_SCHEMA_ID, "entries": {}}, "list"),
    ({"schema": DRIFT_SCHEMA_ID, "entries": [{"pattern": "x"}]}, "reason"),
    ({"schema": DRIFT_SCHEMA_ID,
      "entries": [{"pattern": "x", "reason": "  "}]}, "reason"),
    ({"schema": DRIFT_SCHEMA_ID,
      "entries": [{"pattern": "", "reason": "r"}]}, "pattern"),
    ({"schema": DRIFT_SCHEMA_ID,
      "entries": [{"pattern": "x", "reason": "r", "metrics": ["nope"]}]},
     "metrics"),
    ({"schema": DRIFT_SCHEMA_ID,
      "entries": [{"pattern": "x", "reason": "r", "max_drift": -1}]},
     "max_drift"),
    ({"schema": DRIFT_SCHEMA_ID,
      "entries": [{"pattern": "x", "reason": "r", "typo": 1}]}, "unknown"),
])
def test_load_accepted_drift_rejects_malformed(tmp_path, payload, match):
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(GateError, match=match):
        load_accepted_drift(path)


# -- gate --explain (attribution diffs) -------------------------------------


@pytest.fixture(scope="module")
def perturbed_docs():
    """Baseline and current BENCH documents where the current side came
    from a perturbed ``TimingParams`` — the lower streaming-locality L2
    hit floor inflates DRAM traffic until it becomes the binding ceiling,
    the synthetic timing-model drift ``--explain`` must attribute."""
    from repro.bench.runner import KernelResult
    from repro.gpusim.timing import TimingParams
    from repro.sparse.ops import flops_of_spmm

    graph = uniform_random(m=65_536, nnz=650_000, seed=5)
    gpu = GTX_1080TI

    def doc_with(params):
        k = GESpMM()
        t = k.estimate(graph, 512, gpu, params=params)
        r = KernelResult(kernel=k.name, graph="rand", n=512, gpu=gpu.name,
                         time_s=t.time_s,
                         gflops=t.gflops(flops_of_spmm(graph, 512)),
                         attribution=t.attribution())
        return bench_document([r])

    return doc_with(None), doc_with(TimingParams(streaming_hit_floor=0.3))


def test_explain_names_drifted_component(perturbed_docs):
    base, cur = perturbed_docs
    report = diff_documents(base, cur, explain=True)
    assert not report.passed
    assert report.regressions, "the perturbation must drift the cell"
    for d in report.regressions:
        # the moved ceiling is named first, biggest mover first
        assert d.explanation.startswith("bound l2_link -> dram; dram +")
        assert "all else <1%" in d.explanation
        assert d.explanation in d.describe()
    assert "explain:" in report.format()


def test_explain_off_by_default(perturbed_docs):
    base, cur = perturbed_docs
    report = diff_documents(base, cur)
    assert all(d.explanation == "" for d in report.regressions)
    assert "explain:" not in report.format()


def test_explain_survives_json_round_trip(perturbed_docs):
    base, cur = perturbed_docs
    report = diff_documents(base, cur, explain=True)
    rows = report.to_json()["regressions"]
    assert all("dram" in r["explanation"] for r in rows)
    # without --explain the key is absent, keeping old reports byte-stable
    rows = diff_documents(base, cur).to_json()["regressions"]
    assert all("explanation" not in r for r in rows)


def test_explain_attribution_drift_direct(doc):
    base_cell = copy.deepcopy(doc["cells"][0])
    cur_cell = copy.deepcopy(base_cell)
    assert "attribution" in base_cell, "sweep cells must carry attribution"
    cur_cell["attribution"]["breakdown_ms"]["dram"] *= 1.312
    text = explain_attribution_drift(base_cell, cur_cell)
    assert text.startswith("dram +31.2%")
    # identical blocks explain to "nothing moved"
    same = explain_attribution_drift(base_cell, copy.deepcopy(base_cell))
    assert "no attribution component moved" in same
    # documents without attribution (older BENCH files) degrade to ""
    bare = {k: v for k, v in base_cell.items() if k != "attribution"}
    assert explain_attribution_drift(bare, cur_cell) == ""


def test_cli_gate_explain_flag(tmp_path, perturbed_docs):
    base, cur = perturbed_docs
    bpath = tmp_path / "base.json"
    bpath.write_text(json.dumps(base))
    cpath = tmp_path / "cur.json"
    cpath.write_text(json.dumps(cur))
    out = tmp_path / "report.json"
    rc = cli_main(["gate", "--baseline", str(bpath), "--current", str(cpath),
                   "--explain", "--json-out", str(out)])
    assert rc == EXIT_REGRESSED
    rows = json.loads(out.read_text())["regressions"]
    assert rows and all(
        r["explanation"].startswith("bound l2_link -> dram") for r in rows
    )


def test_cli_gate_accepts_telemetry_sinks(tmp_path, doc):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    trace = tmp_path / "gate.jsonl"
    metrics = tmp_path / "gate-metrics.jsonl"
    rc = cli_main(["gate", "--baseline", str(base), "--current", str(base),
                   "--trace-out", str(trace), "--metrics-out", str(metrics)])
    assert rc == EXIT_OK
    # both sinks exist and are well-formed (the document-vs-document path
    # records no spans, so the JSONL trace may be empty)
    assert trace.exists() and metrics.exists()
    for path in (trace, metrics):
        for line in path.read_text().splitlines():
            if line.strip():
                json.loads(line)


# -- reports ----------------------------------------------------------------


def test_report_json_is_deterministic_and_strict(doc):
    cur = _mutated(doc, time_ms=doc["cells"][0]["time_ms"] * 1.3)
    cur["cells"].pop(1)
    report = diff_documents(doc, cur)
    blob = json.dumps(report.to_json(), sort_keys=True)
    again = json.dumps(diff_documents(doc, cur).to_json(), sort_keys=True)
    assert blob == again
    # presence drifts (inf) must survive a *strict* JSON round-trip
    parsed = json.loads(blob, parse_constant=lambda c: pytest.fail(f"non-strict JSON: {c}"))
    assert parsed["passed"] is False
    assert parsed["summary"]["regressed"] == len(report.regressions)


def test_report_lists_are_sorted_by_key(doc):
    cur = copy.deepcopy(doc)
    for cell in cur["cells"]:
        cell["time_ms"] *= 2.0
    report = diff_documents(doc, cur)
    keys = [(d.key, d.metric) for d in report.regressions]
    assert keys == sorted(keys)


# -- file-level + CLI -------------------------------------------------------


def test_gate_paths_and_cli_exit_codes(tmp_path, doc):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    same = tmp_path / "same.json"
    same.write_text(json.dumps(doc))
    bad = tmp_path / "drifted.json"
    bad.write_text(json.dumps(_mutated(doc, time_ms=doc["cells"][0]["time_ms"] * 2)))

    assert gate_paths(base, same).passed
    assert not gate_paths(base, bad).passed

    assert cli_main(["gate", "--baseline", str(base), "--current", str(same)]) == EXIT_OK
    assert cli_main(["gate", "--baseline", str(base), "--current", str(bad)]) == EXIT_REGRESSED
    # tolerances are CLI-configurable
    assert cli_main(["gate", "--baseline", str(base), "--current", str(bad),
                     "--time-tol", "1.5"]) == EXIT_OK


def test_cli_usage_errors_exit_2(tmp_path, doc):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    missing = tmp_path / "missing.json"
    assert cli_main(["gate", "--baseline", str(missing), "--current", str(base)]) == EXIT_USAGE
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{\"schema\": \"nope\"}")
    assert cli_main(["gate", "--baseline", str(invalid), "--current", str(base)]) == EXIT_USAGE


def test_cli_picks_up_default_annotation_file(tmp_path, doc):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(_mutated(doc, time_ms=doc["cells"][0]["time_ms"] * 2)))
    assert cli_main(["gate", "--baseline", str(base),
                     "--current", str(drifted)]) == EXIT_REGRESSED
    # BENCH_accepted_drift.json next to the baseline is found automatically
    (tmp_path / "BENCH_accepted_drift.json").write_text(json.dumps({
        "schema": DRIFT_SCHEMA_ID,
        "entries": [{"pattern": "*", "reason": "test annotation"}],
    }))
    assert cli_main(["gate", "--baseline", str(base),
                     "--current", str(drifted)]) == EXIT_OK


def test_cli_json_out(tmp_path, doc):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    rc = cli_main(["gate", "--baseline", str(base), "--current", str(base),
                   "--json-out", str(out)])
    assert rc == EXIT_OK
    parsed = json.loads(out.read_text())
    assert parsed["schema"] == "repro/bench-gate-report/v1"
    assert parsed["passed"] is True


# -- the `make gate` contract over the committed artifact -------------------


@pytest.fixture(scope="module")
def committed_doc():
    return load_bench_document(REPO_ROOT / "BENCH_spmm.json")


def test_make_gate_green_on_unchanged_tree(committed_doc):
    """`make gate` path (a): regenerating the telemetry sweep in-process
    reproduces the committed BENCH_spmm.json exactly, so the gate exits 0."""
    rc = cli_main(["gate", "--baseline", str(REPO_ROOT / "BENCH_spmm.json"),
                   "--graphs", "6", "--n", "128", "512"])
    assert rc == EXIT_OK


def test_make_gate_red_on_model_drift(tmp_path, committed_doc):
    """`make gate` path (b): a timing-model edit that shifts any cell
    makes the same invocation exit non-zero."""
    drifted = copy.deepcopy(committed_doc)
    drifted["cells"][0]["time_ms"] *= 1.07  # a 7% model shift
    baseline = tmp_path / "BENCH_spmm.json"
    baseline.write_text(json.dumps(drifted))
    rc = cli_main(["gate", "--baseline", str(baseline),
                   "--graphs", "6", "--n", "128", "512"])
    assert rc == EXIT_REGRESSED


def test_committed_artifact_matches_writer(tmp_path, committed_doc):
    """The committed file is exactly what write_bench_json would emit —
    i.e. nobody hand-edited BENCH_spmm.json past the validator."""
    blob = json.dumps(committed_doc, indent=2, sort_keys=True) + "\n"
    assert (REPO_ROOT / "BENCH_spmm.json").read_text() == blob
