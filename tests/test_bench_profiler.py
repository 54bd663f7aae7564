"""Tests for the benchmark harness utilities and the nvprof-style profiler."""

import math

import numpy as np
import pytest

from repro.bench import (
    bar_chart,
    comparison,
    format_series,
    format_table,
    geomean,
    render_claims,
    run_sweep,
    speedup_series,
)
from repro.core import CRCSpMM, SimpleSpMM
from repro.gnn import Op, OpProfile, SimDevice
from repro.gpusim import GTX_1080TI, format_metric_table, profile_kernel
from repro.sparse import uniform_random


class TestGeomean:
    def test_basic(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([5]) == pytest.approx(5.0)

    def test_ignores_nonpositive(self):
        assert geomean([4, 0, -2, 4]) == pytest.approx(4.0)

    def test_empty_is_nan(self):
        assert math.isnan(geomean([]))


class TestSweep:
    @pytest.fixture(scope="class")
    def results(self):
        graphs = {"g1": uniform_random(200, 2000, seed=1), "g2": uniform_random(300, 1500, seed=2)}
        return run_sweep([SimpleSpMM(), CRCSpMM()], graphs, [64, 128], [GTX_1080TI])

    def test_cartesian_coverage(self, results):
        assert len(results) == 2 * 2 * 2
        assert {r.kernel for r in results} == {"simple", "crc"}
        assert {r.n for r in results} == {64, 128}

    def test_fields_sane(self, results):
        for r in results:
            assert r.time_s > 0 and r.gflops > 0
            assert r.gpu == GTX_1080TI.name

    def test_speedup_series(self, results):
        s = speedup_series(results, "crc", "simple", GTX_1080TI.name, 128)
        assert set(s) == {"g1", "g2"}
        assert all(v > 0 for v in s.values())


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [("x", 1), ("yy", 22)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        out = format_series("S", {"k": 1.5})
        assert "S" in out and "1.500" in out

    def test_bar_chart_scales(self):
        out = bar_chart({"a": 1.0, "b": 2.0}, width=10)
        a_bar = out.splitlines()[0].count("#")
        b_bar = out.splitlines()[1].count("#")
        assert b_bar == 10 and a_bar == 5

    def test_bar_chart_empty(self):
        assert bar_chart({}) == "(no data)"

    def test_render_claims(self):
        txt = render_claims(
            [comparison("x", "1.0", "1.1", True), comparison("y", "2.0", "0.5", False, "note")],
            title="C",
        )
        assert "OK" in txt and "DEVIATES" in txt and "(note)" in txt


class TestProfiler:
    def test_profile_kernel_fields(self):
        a = uniform_random(500, 5000, seed=0)
        rep = profile_kernel(CRCSpMM(), a, 64, GTX_1080TI)
        assert rep.gld_transactions > 0
        assert 0 < rep.gld_efficiency <= 1
        assert rep.gld_throughput > 0
        assert rep.time_s > 0 and rep.gflops > 0
        assert 0 < rep.achieved_occupancy <= 1

    def test_metric_table_contains_rows(self):
        a = uniform_random(500, 5000, seed=0)
        reps = [profile_kernel(k, a, 64, GTX_1080TI) for k in (SimpleSpMM(), CRCSpMM())]
        txt = format_metric_table(reps)
        assert "simple" in txt and "crc" in txt and "GLT" in txt

    def test_metric_table_empty(self):
        assert format_metric_table([]) == "(no data)"


class TestSimDevice:
    def test_ledger_accumulates(self):
        dev = SimDevice(GTX_1080TI)
        dev.record("SpMM", 1e-3)
        dev.record("SpMM", 2e-3)
        dev.record("GEMM", 1e-3)
        prof = dev.profile()
        assert prof.time("SpMM") == pytest.approx(3e-3)
        assert prof.calls["SpMM"] == 2
        assert prof.share("SpMM") == pytest.approx(0.75)
        assert prof.total_time == pytest.approx(4e-3)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            SimDevice(GTX_1080TI).record("x", -1)

    def test_reset(self):
        dev = SimDevice(GTX_1080TI)
        dev.record("x", 1.0)
        dev.record("GEMM", 1.0, Op("GEMM", (2, 3, 4)))
        assert dev.log == [Op("GEMM", (2, 3, 4))]  # raw records stay unlogged
        dev.reset()
        assert dev.profile().total_time == 0
        assert dev.log == []

    def test_format_and_rows_sorted(self):
        prof = OpProfile({"a": 1.0, "b": 3.0}, {"a": 1, "b": 2})
        rows = prof.rows()
        assert rows[0][0] == "b"
        txt = prof.format()
        assert "TOTAL" in txt and "b" in txt

    def test_empty_profile_share(self):
        assert OpProfile().share("SpMM") == 0.0

    def test_gemm_time_monotone(self):
        dev = SimDevice(GTX_1080TI)
        assert dev.gemm_time(1000, 1000, 1000) > dev.gemm_time(100, 100, 100)
        assert dev.elementwise_time(10_000) > dev.elementwise_time(100)
