"""Unit tests for the memory-model primitives of the per-warp oracle.

Targeted coverage for three pieces the conformance grid only exercises
indirectly: the Turing L1 recency-window filter in the per-warp oracle's
:class:`TraceMemory`, :func:`bank_conflict_passes` on the classic
conflict shapes, and :func:`ragged_arange`, the vectorized helper behind
merge-path's chunk schedule.
"""

from __future__ import annotations

import numpy as np
import pytest
from trace_references import TraceMemory, bank_conflict_passes

from repro.core.mergepath import ragged_arange

# -- TraceMemory L1 recency-window filter -----------------------------------


def make_mem(l1=True, window=512, words=4096):
    mem = TraceMemory(l1_caches_global=l1, l1_window_sectors=window)
    mem.register("buf", np.zeros(words, dtype=np.float32))
    return mem


def serial_dict_misses(sectors, window):
    """The recency-window rule stated directly: one tick per sector
    reference, miss iff the sector was never seen or last seen more than
    ``window`` ticks ago."""
    recent, clock, misses = {}, 0, 0
    for s in sectors:
        clock += 1
        last = recent.get(s)
        if last is None or clock - last > window:
            misses += 1
        recent[s] = clock
    return misses


class TestL1Filter:
    def test_first_touch_misses_retouch_hits(self):
        mem = make_mem()
        idx = np.arange(8)  # one sector (8 x 4 B = 32 B)
        mem.load("buf", idx)
        assert mem.stats.global_load.l1_filtered_transactions == 1
        mem.load("buf", idx)  # immediate re-reference: filtered
        assert mem.stats.global_load.transactions == 2
        assert mem.stats.global_load.l1_filtered_transactions == 1

    def test_disabled_filter_passes_everything(self):
        mem = make_mem(l1=False)
        idx = np.arange(8)
        mem.load("buf", idx)
        mem.load("buf", idx)
        assert mem.stats.global_load.l1_filtered_transactions == 2

    def test_window_boundary_is_inclusive(self):
        # With window W, a sector re-seen exactly W ticks later still hits
        # (miss iff clock - last > W).  Touch sector 0, advance the clock
        # by exactly W distinct sectors, re-touch: hit.  One more sector
        # of spacing and the re-touch misses.
        w = 4
        mem = make_mem(window=w)
        mem.load("buf", np.arange(8))  # sector 0: tick 1, miss
        for s in range(1, w + 1):  # ticks 2..w+1, all misses
            mem.load("buf", np.arange(8) + 8 * s)
        mem.load("buf", np.arange(8))  # tick w+2, last=1, delta=w+1 > w: miss
        assert mem.stats.global_load.l1_filtered_transactions == w + 2

        mem2 = make_mem(window=w)
        mem2.load("buf", np.arange(8))  # tick 1, miss
        for s in range(1, w):  # ticks 2..w, misses
            mem2.load("buf", np.arange(8) + 8 * s)
        mem2.load("buf", np.arange(8))  # tick w+1, delta=w: hit
        assert mem2.stats.global_load.l1_filtered_transactions == w

    def test_stores_do_not_tick_or_filter(self):
        mem = make_mem(window=2)
        idx = np.arange(8)
        mem.load("buf", idx)
        # Stores between the two loads must not advance the L1 clock.
        for s in range(1, 6):
            mem.store("buf", np.arange(8) + 8 * s, np.ones(8, dtype=np.float32))
        mem.load("buf", idx)  # still within the window: hit
        assert mem.stats.global_load.l1_filtered_transactions == 1
        assert mem.stats.global_store.l1_filtered_transactions == 0

    def test_batch_engine_agrees_on_interleaved_stream(self):
        # Re-references straddling the eviction window: sector 0 hits at
        # tick 4 (3 ticks after its first touch) and misses at tick 8 (4
        # ticks after its last), sector 1 misses at tick 9.
        w = 3
        mem = make_mem(window=w)
        sector_seq = [0, 1, 2, 0, 3, 4, 5, 0, 1]
        for s in sector_seq:
            mem.load("buf", np.arange(8) + 8 * s)
        got = mem.stats.global_load.l1_filtered_transactions
        assert got == serial_dict_misses(sector_seq, w) == 8


# -- bank_conflict_passes ----------------------------------------------------


class TestBankConflicts:
    def test_broadcast_is_one_pass(self):
        assert bank_conflict_passes(np.full(32, 17)) == 1

    def test_conflict_free_stride_one(self):
        assert bank_conflict_passes(np.arange(32)) == 1

    def test_two_way_conflict_stride_two(self):
        # Stride-2 words: lanes 0..31 hit banks {0,2,..,30} twice each.
        assert bank_conflict_passes(2 * np.arange(32)) == 2

    def test_thirty_two_way_conflict_stride_32(self):
        # All 32 lanes map to bank 0 with distinct addresses: full serialize.
        assert bank_conflict_passes(32 * np.arange(32)) == 32

    def test_same_bank_broadcast_mix(self):
        # Two distinct addresses in one bank + 30 broadcast duplicates:
        # duplicates merge, distinct addresses still serialize.
        addrs = np.concatenate([np.full(30, 0), np.array([0, 32])])
        assert bank_conflict_passes(addrs) == 2

    def test_empty_request_is_zero_passes(self):
        assert bank_conflict_passes(np.array([], dtype=np.int64)) == 0

    def test_batch_matches_scalar_on_random_warps(self):
        # A batch of random partially-active warps against the rule
        # stated per bank: passes = most distinct words sharing a bank.
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 256, size=(64, 32))
        mask = rng.random((64, 32)) < 0.7
        for wi in range(64):
            active = addrs[wi][mask[wi]].tolist()
            per_bank = {}
            for word in set(active):
                per_bank.setdefault(word % 32, set()).add(word)
            expect = max((len(v) for v in per_bank.values()), default=0)
            assert bank_conflict_passes(addrs[wi][mask[wi]]) == expect, f"warp {wi}"

    def test_batch_masked_lanes_and_edges(self):
        addrs = np.vstack([
            np.full(32, 5),        # broadcast
            2 * np.arange(32),     # 2-way
            32 * np.arange(32),    # 32-way
            np.arange(32),         # conflict free
        ])
        mask = np.ones_like(addrs, dtype=bool)
        mask[3, 1:] = False  # single active lane
        got = [bank_conflict_passes(row[m]) for row, m in zip(addrs, mask)]
        assert got == [1, 2, 32, 1]
        # Masking the colliding lanes away removes the conflict.
        assert bank_conflict_passes((32 * np.arange(32))[:1]) == 1
        # Fully-masked warp costs zero passes.
        none = np.zeros(32, dtype=bool)
        assert bank_conflict_passes(np.arange(32)[none]) == 0


# -- vectorized helpers ------------------------------------------------------


class TestBatchHelpers:
    def test_ragged_arange(self):
        np.testing.assert_array_equal(
            ragged_arange(np.array([3, 1, 0, 2])), [0, 1, 2, 0, 0, 1]
        )
        assert ragged_arange(np.array([], dtype=np.int64)).size == 0

    def test_l1_filtered_misses_matches_serial_dict(self):
        rng = np.random.default_rng(1)
        for window in (1, 4, 512):
            sectors = rng.integers(0, 40, size=500)
            mem = make_mem(window=window)
            for s in sectors.tolist():
                mem.load("buf", np.arange(8) + 8 * s)
            got = mem.stats.global_load.l1_filtered_transactions
            assert got == serial_dict_misses(sectors.tolist(), window), window

    def test_bounds_checked_like_trace_memory(self):
        # Only active lanes are bounds-checked, on loads and stores alike.
        mem = TraceMemory()
        mem.register("buf", np.zeros(16, dtype=np.float32))
        with pytest.raises(IndexError):
            mem.load("buf", np.arange(12, 20))  # straddles the end
        with pytest.raises(IndexError):
            mem.load("buf", np.array([-1, 0]))
        with pytest.raises(IndexError):
            mem.store("buf", np.array([16]), np.ones(1, dtype=np.float32))
        idx = np.arange(12, 20)
        got = mem.load("buf", idx, mask=idx < 16)  # lanes past the end off
        assert got.size == 4
