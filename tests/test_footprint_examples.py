"""Tests for the memory-footprint model, plus example/CLI smoke tests."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.gpusim import (
    DeviceOutOfMemory,
    GTX_1080TI,
    RTX_2080,
    check_fits,
    fits,
    spmm_footprint,
)
from repro.sparse import uniform_random

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


class TestFootprint:
    def test_components_sum(self):
        a = uniform_random(1000, 10_000, seed=0)
        fp = spmm_footprint(a, 64)
        assert fp.total == fp.sparse_bytes + fp.dense_in_bytes + fp.dense_out_bytes
        assert fp.sparse_bytes == 4 * 1001 + 8 * a.nnz
        assert fp.dense_in_bytes == 4 * 1000 * 64

    def test_workspace_factor(self):
        a = uniform_random(1000, 10_000, seed=0)
        assert spmm_footprint(a, 64, workspace_factor=1.0).workspace_bytes == 8 * a.nnz

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            spmm_footprint(uniform_random(10, 20, seed=0), -1)

    def test_small_fits_everywhere(self):
        a = uniform_random(1000, 10_000, seed=0)
        assert fits(a, 512, GTX_1080TI) and fits(a, 512, RTX_2080)
        assert check_fits(a, 512, RTX_2080).total < 2**30

    def test_giant_ooms_small_card_first(self):
        class Shell:
            nrows = ncols = 4_847_571  # soc-LiveJournal1
            nnz = 68_993_773

        assert not fits(Shell(), 512, RTX_2080)
        with pytest.raises(DeviceOutOfMemory) as err:
            check_fits(Shell(), 512, RTX_2080)
        assert "RTX 2080" in str(err.value)
        # ...but a narrow feature width fits even the giant.
        assert fits(Shell(), 16, GTX_1080TI)

    def test_as_dict(self):
        a = uniform_random(100, 500, seed=0)
        d = spmm_footprint(a, 8).as_dict()
        assert set(d) == {"sparse", "dense_in", "dense_out", "workspace", "total"}


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "kernel_profiling.py", "custom_reduce_pooling.py",
     "snap_sweep.py", "sampled_training.py", "gnn_node_classification.py",
     "gat_attention.py", "streaming_updates.py"],
)
def test_example_runs(script, monkeypatch, capsys):
    """Every shipped example must execute end to end."""
    monkeypatch.setattr(sys, "argv", [script, "2"])  # small arg where used
    # Shrink the heavy examples' work via their module-level entry points:
    ns = runpy.run_path(str(EXAMPLES / script), run_name="not_main")
    main = ns["main"]
    if script == "snap_sweep.py":
        main(2)
    elif script == "gnn_node_classification.py":
        # full example trains 2x30 epochs; smoke-run is acceptable here
        main()
    else:
        main()
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report
