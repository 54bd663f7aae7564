"""Behavioural tests of the kernel performance models: the mechanisms the
paper attributes to each design must show up in the modelled metrics."""

import numpy as np
import pytest

from repro.baselines import (
    ASpTSpMM,
    CusparseCsrmm2,
    GraphBlastRowSplit,
    GunrockAdvanceSpMM,
    SpMVLoopSpMM,
)
from repro.core import CRCSpMM, CWMSpMM, GESpMM, SimpleSpMM
from repro.gpusim import GTX_1080TI, RTX_2080
from repro.sparse import banded_random, uniform_random


@pytest.fixture(scope="module")
def big():
    return uniform_random(m=65_536, nnz=650_000, seed=42)


class TestCRCMechanism:
    def test_fewer_transactions_than_simple(self, big):
        s, _, _ = SimpleSpMM().count(big, 512, GTX_1080TI)
        c, _, _ = CRCSpMM().count(big, 512, GTX_1080TI)
        assert c.global_load.transactions < s.global_load.transactions

    def test_fewer_load_instructions(self, big):
        s, _, _ = SimpleSpMM().count(big, 512, GTX_1080TI)
        c, _, _ = CRCSpMM().count(big, 512, GTX_1080TI)
        assert c.global_load.instructions < 0.5 * s.global_load.instructions

    def test_efficiency_band_matches_table5(self, big):
        s, _, _ = SimpleSpMM().count(big, 512, GTX_1080TI)
        c, _, _ = CRCSpMM().count(big, 512, GTX_1080TI)
        assert s.global_load.efficiency == pytest.approx(0.6895, abs=0.02)
        assert c.global_load.efficiency == pytest.approx(0.924, abs=0.02)

    def test_uses_shared_memory_and_warp_syncs(self, big):
        c, launch, _ = CRCSpMM().count(big, 512, GTX_1080TI)
        assert c.shared_load.instructions > 0
        assert c.warp_syncs > 0
        assert c.block_syncs == 0  # the paper's whole point: warp-level only
        assert launch.shared_mem_per_block > 0

    def test_same_dense_traffic(self, big):
        # CRC only changes sparse-side loading; dense B traffic identical.
        s, _, _ = SimpleSpMM().count(big, 512, GTX_1080TI)
        c, _, _ = CRCSpMM().count(big, 512, GTX_1080TI)
        assert s.traffic("B").sectors == c.traffic("B").sectors


class TestCWMMechanism:
    def test_sparse_traffic_divided_by_cf(self, big):
        c1, _, _ = CRCSpMM().count(big, 512, GTX_1080TI)
        c4, _, _ = CWMSpMM(4).count(big, 512, GTX_1080TI)
        ratio = c1.traffic("colind").sectors / c4.traffic("colind").sectors
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_dense_traffic_unchanged(self, big):
        c1, _, _ = CRCSpMM().count(big, 512, GTX_1080TI)
        c4, _, _ = CWMSpMM(4).count(big, 512, GTX_1080TI)
        assert c1.traffic("B").sectors == c4.traffic("B").sectors

    def test_register_pressure_grows_with_cf(self):
        assert CWMSpMM(8).regs_per_thread > CWMSpMM(2).regs_per_thread

    def test_occupancy_drops_at_cf8(self, big):
        t2 = CWMSpMM(2).estimate(big, 512, GTX_1080TI)
        t8 = CWMSpMM(8).estimate(big, 512, GTX_1080TI)
        assert t8.occupancy.achieved < t2.occupancy.achieved

    def test_cf2_fastest_choice(self, big):
        times = {cf: CWMSpMM(cf).estimate(big, 512, GTX_1080TI).time_s for cf in (1, 2, 8)}
        assert times[2] < times[1]
        assert times[2] < times[8]

    def test_mlp_collapses_below_warp_width(self):
        k = CWMSpMM(4)
        assert k.mlp_for(512) > k.mlp_for(16)
        assert k.mlp_for(16) == CRCSpMM.mlp


class TestMachineDifference:
    def test_crc_gain_pascal_not_turing(self, big):
        gains = {}
        for gpu in (GTX_1080TI, RTX_2080):
            s = SimpleSpMM().estimate(big, 512, gpu).time_s
            c = CRCSpMM().estimate(big, 512, gpu).time_s
            gains[gpu.name] = s / c
        assert gains["GTX 1080Ti"] > 1.15
        assert gains["RTX 2080"] < 1.1
        assert gains["GTX 1080Ti"] > gains["RTX 2080"]

    def test_cwm_helps_both_machines(self, big):
        for gpu in (GTX_1080TI, RTX_2080):
            c = CRCSpMM().estimate(big, 512, gpu).time_s
            w = CWMSpMM(2).estimate(big, 512, gpu).time_s
            assert c / w > 1.15, gpu.name


class TestBaselineOrdering:
    """The paper's headline ordering at large N must hold per graph."""

    @pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
    def test_ge_beats_cusparse_beats_graphblast(self, big, gpu):
        ge = GESpMM().estimate(big, 512, gpu).time_s
        cu = CusparseCsrmm2().estimate(big, 512, gpu).time_s
        gb = GraphBlastRowSplit().estimate(big, 512, gpu).time_s
        assert ge < cu < gb

    def test_gunrock_an_order_slower(self, big):
        ge = GESpMM().estimate(big, 128, GTX_1080TI).time_s
        gr = GunrockAdvanceSpMM().estimate(big, 128, GTX_1080TI).time_s
        assert gr / ge > 8

    def test_gunrock_uses_atomics_and_scattered_loads(self, big):
        s, _, _ = GunrockAdvanceSpMM().count(big, 64, GTX_1080TI)
        assert s.atomic_ops > 0
        assert s.global_load.efficiency < 0.3  # fully scattered

    def test_spmv_loop_pays_per_launch(self, big):
        small = uniform_random(m=256, nnz=1024, seed=1)
        k = SpMVLoopSpMM()
        t32 = k.estimate(small, 32, GTX_1080TI).time_s
        t256 = k.estimate(small, 256, GTX_1080TI).time_s
        # Launch-dominated on a tiny graph: ~linear in N.
        assert t256 / t32 > 5

    def test_spmv_loop_estimate_idempotent(self, big):
        k = SpMVLoopSpMM()
        t1 = k.estimate(big, 64, GTX_1080TI).time_s
        t2 = k.estimate(big, 64, GTX_1080TI).time_s
        assert t1 == t2  # cached result not re-inflated


class TestASpT:
    def test_preprocess_time_positive_and_scales(self):
        a_small = uniform_random(m=1000, nnz=10_000, seed=1)
        a_big = uniform_random(m=100_000, nnz=1_000_000, seed=1)
        k = ASpTSpMM()
        t_small = k.preprocess_time(a_small, GTX_1080TI)
        t_big = k.preprocess_time(a_big, GTX_1080TI)
        assert 0 < t_small < t_big

    def test_dense_fraction_drives_savings(self):
        # A banded matrix has locally-dense tiles; uniform random doesn't.
        band = banded_random(20_000, 400_000, bandwidth=16, seed=2)
        unif = uniform_random(20_000, 400_000, seed=2)
        k = ASpTSpMM()
        f_band = k.preprocess(band).dense_fraction
        f_unif = k.preprocess(unif).dense_fraction
        assert f_band > f_unif
        sb, _, _ = k.count(band, 256, GTX_1080TI)
        from repro.core.access_profile import access_profile

        full = access_profile(band).b_loads(256).sectors
        assert sb.traffic("B").sectors < full  # reuse took traffic off DRAM

    def test_kernel_only_near_parity_with_ge(self, big):
        ge = GESpMM().estimate(big, 512, GTX_1080TI).time_s
        asp = ASpTSpMM().estimate(big, 512, GTX_1080TI).time_s
        assert 0.7 < asp / ge < 1.3

    def test_requires_preprocess_flag(self):
        assert ASpTSpMM.requires_preprocess
        assert not GESpMM.requires_preprocess


class TestAdaptive:
    def test_estimates_match_selected_kernel(self, big):
        ge = GESpMM()
        assert ge.estimate(big, 16, GTX_1080TI).time_s == pytest.approx(
            CRCSpMM().estimate(big, 16, GTX_1080TI).time_s
        )
        assert ge.estimate(big, 128, GTX_1080TI).time_s == pytest.approx(
            CWMSpMM(2).estimate(big, 128, GTX_1080TI).time_s
        )
