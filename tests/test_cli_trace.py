"""CLI telemetry end-to-end: --trace-out / --metrics-out / --bench-json.

Runs the real ``repro-bench`` entry point in-process against a tmpdir and
checks the acceptance contract: valid Chrome-trace JSON, a metrics JSONL
carrying the paper's four nvprof metrics for every profiled kernel, a
schema-valid BENCH artifact from ``sweep``, and byte-identical stdout
when no sink is configured.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro import obs
from repro.bench.telemetry import validate_bench_document
from repro.cli import main
from repro.obs.metrics import MetricsRegistry

NVPROF_METRICS = (
    "nvprof.gld_transactions",
    "nvprof.gld_efficiency",
    "nvprof.gld_throughput",
    "nvprof.achieved_occupancy",
)

SMALL_GRAPH = ["--graph", "random", "--m", "3000", "--nnz", "24000"]


@pytest.fixture(autouse=True)
def fresh_registry():
    prev = obs.set_registry(MetricsRegistry())
    yield
    obs.set_registry(prev)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def test_profile_trace_and_metrics_out(tmp_path):
    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.jsonl"
    kernels = ["simple", "crc", "gespmm", "cusparse"]
    rc, _ = run_cli(
        ["profile", *SMALL_GRAPH, "--n", "64", "--kernels", *kernels,
         "--trace-out", str(trace), "--metrics-out", str(metrics)]
    )
    assert rc == 0

    doc = json.loads(trace.read_text())  # valid Chrome trace JSON
    events = doc["traceEvents"]
    assert [e["name"] for e in events].count("profile.kernel") == len(kernels)
    assert all(e["ts"] >= 0 and e.get("dur", 0) >= 0 for e in events)

    lines = [json.loads(l) for l in metrics.read_text().splitlines() if l.strip()]
    for metric in NVPROF_METRICS:
        profiled = {l["labels"]["kernel"] for l in lines if l["name"] == metric}
        assert {"simple", "crc", "GE-SpMM", "cuSPARSE csrmm2"} <= profiled


def test_trace_subcommand_writes_default_chrome_trace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out = run_cli(["trace", *SMALL_GRAPH, "--n", "64"])
    assert rc == 0
    assert "traced 4 kernels" in out
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert any(e["name"] == "trace.profile" for e in doc["traceEvents"])


def test_trace_out_jsonl_suffix_switches_format(tmp_path):
    trace = tmp_path / "t.jsonl"
    rc, _ = run_cli(["profile", *SMALL_GRAPH, "--n", "64", "--trace-out", str(trace)])
    assert rc == 0
    spans = [json.loads(l) for l in trace.read_text().splitlines() if l.strip()]
    assert {"name", "parent", "sim_time_s", "attrs"} <= set(spans[0])


def test_sweep_bench_json_is_schema_valid(tmp_path):
    bench = tmp_path / "BENCH_spmm.json"
    rc, _ = run_cli(
        ["sweep", "--graphs", "2", "--max-nnz", "20000", "--n", "64",
         "--bench-json", str(bench)]
    )
    assert rc == 0
    doc = json.loads(bench.read_text())
    assert validate_bench_document(doc) == []
    assert doc["run"]["command"] == "sweep"
    assert {c["kernel"] for c in doc["cells"]} == {
        "GraphBLAST rowsplit", "cuSPARSE csrmm2", "mergepath", "GE-SpMM"
    }
    assert doc["geomeans"]  # GE-SpMM vs both baselines


def test_stdout_byte_identical_with_and_without_sinks(tmp_path):
    argv = ["profile", *SMALL_GRAPH, "--n", "64"]
    _, plain = run_cli(argv)
    _, sinked = run_cli(
        argv + ["--trace-out", str(tmp_path / "t.json"),
                "--metrics-out", str(tmp_path / "m.jsonl")]
    )
    assert plain == sinked  # zero-overhead-by-default contract
    assert plain.startswith("[random] N=64")


def test_tracer_uninstalled_after_cli_run(tmp_path):
    run_cli(["profile", *SMALL_GRAPH, "--n", "64",
             "--trace-out", str(tmp_path / "t.json")])
    assert obs.get_tracer() is None


@pytest.mark.parametrize("command", ["profile", "trace"])
def test_unknown_graph_is_a_usage_error(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--graph", "nosuchgraph", "--n", "64"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "nosuchgraph" in err[0]
    assert not (tmp_path / "trace.json").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--graphs", "1", "--n", "0"],
    ["sweep", "--graphs", "1", "--n", "-8"],
    ["sweep", "--graphs", "0"],
    ["gate", "--n", "128", "0"],
    ["corpus", "--shards", "0"],
    ["corpus", "--limit", "-3"],
    ["corpus", "--shard-size", "0"],
    ["profile", "--n", "0"],
    ["profile", "--graph", "random", "--m", "0"],
    ["profile", "--graph", "random", "--nnz", "-5"],
    ["train", "--epochs", "0"],
    ["train", "--epochs", "-3"],
    ["train", "--model", "sage-pool", "--hidden", "0"],
    ["scenario", "--batches", "-2"],
    ["scenario", "--feature-dim", "0"],
    ["report", "--top", "0"],
    ["report", "--top", "-1"],
])
def test_non_positive_count_is_a_usage_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "must be a positive integer" in err.strip().splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "gate", "corpus"])
def test_jobs_option_is_gone(command, capsys):
    """Sweeps are single-threaded; ``--jobs`` is an unknown option."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err.strip().splitlines()[-1]
