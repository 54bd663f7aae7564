"""Tests of the benchmark itself, on tiny workloads.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def _tiny(name, seed=3):
    return workloads.make_workload(name, seed, workloads.TINY[name])


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec[section]}


def test_declared_metrics_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == layers.PER_LAYER


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace):
    result = harness.run_workload(_tiny(name), 0.0, trace, setup_repeats=1)
    expected = layers.PER_LAYER if trace else harness.END_TO_END
    assert list(result.metrics) == list(expected)
    assert all(isinstance(v, float) for v in result.metrics.values())
    assert result.correct and result.attempted == (2 if trace else 1)


@pytest.mark.parametrize("name", NAMES)
def test_injected_wrong_output_counts_as_error(name):
    result = harness.run_workload(_tiny(name), 0.0, False, setup_repeats=1,
                                  inject_fault_at=0)
    assert (result.attempted, result.failed, result.correct) == (1, 1, False)
    assert result.notes["error_rate"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_wrappers_leave_results_bit_identical(name):
    from repro.gnn import aggregate
    from repro.sparse import segment

    original = segment.segment_max_with_argmax
    wl = _tiny(name)
    wl.prepare()
    wl.setup()
    plain, _, _ = harness._iterate(wl)
    with layers.Instrument() as instrument:
        assert aggregate.segment_max_with_argmax is not original
        traced, _, metrics = harness._iterate(wl, instrument)
    assert traced == plain and wl.check(traced, plain)
    assert metrics["train.unattributed_frac"] < 1.0
    assert aggregate.segment_max_with_argmax is original
    assert segment.segment_max_with_argmax is original


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-gcn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
