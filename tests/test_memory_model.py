"""Tests for the warp coalescing model, the access-statistics containers
and the per-warp oracle memory of ``trace_references.py``."""

import numpy as np
import pytest
from trace_references import TraceMemory, TraceSharedMemory, warp_sector_count

from repro.gpusim import AccessStats, KernelStats, segment_sectors


class TestWarpSectorCount:
    def test_broadcast_is_one_transaction(self):
        addrs = np.full(32, 1000)
        assert warp_sector_count(addrs) == 1

    def test_fully_coalesced_floats(self):
        # 32 consecutive 4-byte elements starting at a sector boundary:
        # 128 bytes = 4 sectors.
        addrs = 4 * np.arange(32)
        assert warp_sector_count(addrs) == 4

    def test_misaligned_adds_a_sector(self):
        addrs = 4 * np.arange(32) + 4  # shifted by one element
        assert warp_sector_count(addrs) == 5

    def test_strided_worst_case(self):
        addrs = 128 * np.arange(32)  # one sector per lane
        assert warp_sector_count(addrs) == 32

    def test_empty_access(self):
        assert warp_sector_count(np.array([], dtype=np.int64)) == 0

    def test_pairwise_sharing(self):
        addrs = 32 * (np.arange(32) // 2)  # two lanes per sector
        assert warp_sector_count(addrs) == 16


class TestSegmentSectors:
    def test_matches_brute_force(self, rng):
        starts = rng.integers(0, 1000, size=200)
        lengths = rng.integers(0, 64, size=200)
        got = segment_sectors(starts, lengths)
        for s, l, g in zip(starts, lengths, got):
            byte_addrs = 4 * (s + np.arange(l))
            assert g == warp_sector_count(byte_addrs)

    def test_zero_length(self):
        assert segment_sectors(np.array([5]), np.array([0]))[0] == 0

    def test_aligned_full_tile(self):
        assert segment_sectors(np.array([0]), np.array([32]))[0] == 4

    def test_single_element(self):
        assert segment_sectors(np.array([7]), np.array([1]))[0] == 1


class TestTraceMemory:
    def test_broadcast_load(self):
        mem = TraceMemory()
        mem.register("x", np.arange(100, dtype=np.float32))
        vals = mem.load("x", np.full(32, 7))
        assert np.all(vals == 7.0)
        assert mem.stats.global_load.instructions == 1
        assert mem.stats.global_load.transactions == 1
        assert mem.stats.global_load.requested_bytes == 4  # unique bytes

    def test_coalesced_load(self):
        mem = TraceMemory()
        mem.register("x", np.arange(100, dtype=np.float32))
        mem.load("x", np.arange(32))
        assert mem.stats.global_load.transactions == 4
        assert mem.stats.global_load.requested_bytes == 128

    def test_masked_load(self):
        mem = TraceMemory()
        mem.register("x", np.arange(100, dtype=np.float32))
        mask = np.arange(32) < 8
        vals = mem.load("x", np.arange(32), mask=mask)
        assert vals.shape == (8,)
        assert mem.stats.global_load.transactions == 1

    def test_fully_masked_load_costs_nothing(self):
        mem = TraceMemory()
        mem.register("x", np.arange(8, dtype=np.float32))
        mem.load("x", np.arange(32), mask=np.zeros(32, dtype=bool))
        assert mem.stats.global_load.transactions == 0
        assert mem.stats.global_load.instructions == 1  # predicated-off inst

    def test_out_of_bounds_raises(self):
        mem = TraceMemory()
        mem.register("x", np.arange(8, dtype=np.float32))
        with pytest.raises(IndexError):
            mem.load("x", np.arange(32))

    def test_unknown_buffer_raises(self):
        mem = TraceMemory()
        with pytest.raises(KeyError):
            mem.load("nope", np.zeros(32, dtype=np.int64))

    def test_store_updates_buffer(self):
        mem = TraceMemory()
        mem.register("x", np.zeros(64, dtype=np.float32))
        mem.store("x", np.arange(32), np.ones(32, dtype=np.float32))
        assert mem.buffer("x")[:32].sum() == 32
        assert mem.stats.global_store.transactions == 4

    def test_buffers_do_not_share_sectors(self):
        # Distinct arrays must land in distinct sectors (256 B alignment).
        mem = TraceMemory()
        mem.register("a", np.zeros(1, dtype=np.float32))
        mem.register("b", np.zeros(1, dtype=np.float32))
        mem.load("a", np.array([0]))
        mem.load("b", np.array([0]))
        assert mem.stats.global_load.transactions == 2

    def test_device_copy_isolated(self):
        host = np.zeros(4, dtype=np.float32)
        mem = TraceMemory()
        mem.register("x", host)
        mem.store("x", np.array([0]), np.array([9.0], dtype=np.float32))
        assert host[0] == 0.0  # host array untouched

    def test_l1_filter_counts_reuse(self):
        mem = TraceMemory(l1_caches_global=True)
        mem.register("x", np.arange(64, dtype=np.float32))
        for _ in range(4):
            mem.load("x", np.full(32, 3))  # same sector each time
        gl = mem.stats.global_load
        assert gl.transactions == 4
        assert gl.l1_filtered_transactions == 1  # 3 of 4 hit in L1

    def test_no_l1_filter_on_pascal(self):
        mem = TraceMemory(l1_caches_global=False)
        mem.register("x", np.arange(64, dtype=np.float32))
        for _ in range(4):
            mem.load("x", np.full(32, 3))
        gl = mem.stats.global_load
        assert gl.l1_filtered_transactions == gl.transactions


class TestStatsContainers:
    def test_access_stats_merge(self):
        a = AccessStats(1, 2, 3, 2)
        a.merge(AccessStats(10, 20, 30, 20))
        assert (a.instructions, a.transactions, a.requested_bytes) == (11, 22, 33)

    def test_efficiency(self):
        s = AccessStats(instructions=1, transactions=1, requested_bytes=4)
        assert s.efficiency == pytest.approx(4 / 32)
        assert AccessStats().efficiency == 1.0

    def test_kernel_stats_merge_and_traffic(self):
        k1 = KernelStats()
        k1.traffic("B").sectors = 10
        k1.flops = 100
        k2 = KernelStats()
        k2.traffic("B").sectors = 5
        k2.warp_syncs = 3
        k1.merge(k2)
        assert k1.traffic("B").sectors == 15
        assert k1.flops == 100 and k1.warp_syncs == 3

    def test_effective_load_sectors(self):
        k = KernelStats()
        k.global_load.transactions = 100
        k.global_load.l1_filtered_transactions = 40
        assert k.effective_load_sectors(l1_caches_global=True) == 40
        assert k.effective_load_sectors(l1_caches_global=False) == 100

    def test_shared_memory_trace(self):
        stats = KernelStats()
        shm = TraceSharedMemory(64, stats)
        shm.store(np.arange(32), np.arange(32, dtype=np.float64))
        out = shm.load(np.full(32, 5))
        assert np.all(out == 5.0)
        assert stats.shared_store.transactions == 1
        assert stats.shared_load.transactions == 1
