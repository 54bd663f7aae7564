"""Unit tests for the memory-model primitives the replay engines share.

Targeted coverage for three pieces the conformance grid only exercises
indirectly: the Turing L1 recency-window filter in the per-warp oracle's
:class:`TraceMemory`, :func:`bank_conflict_passes` (and its vectorized
batch twin) on the classic conflict shapes, and the ragged/stream
helpers that power ``repro.gpusim.batchtrace``.
"""

from __future__ import annotations

import numpy as np
import pytest
from trace_references import TraceMemory, bank_conflict_passes

from repro.gpusim import (
    BatchTraceMemory,
    bank_conflict_passes_batch,
    l1_filtered_misses,
    ragged_arange,
)

# -- TraceMemory L1 recency-window filter -----------------------------------


def make_mem(l1=True, window=512, words=4096):
    mem = TraceMemory(l1_caches_global=l1, l1_window_sectors=window)
    mem.register("buf", np.zeros(words, dtype=np.float32))
    return mem


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
        # The batched engine must reproduce the serial filter on a stream
        # with re-references straddling the eviction window.
        w = 3
        serial = make_mem(window=w)
        batch = BatchTraceMemory(l1_caches_global=True, l1_window_sectors=w)
        batch.register("buf", np.zeros(4096, dtype=np.float32))
        sector_seq = [0, 1, 2, 0, 3, 4, 5, 0, 1]
        for step, s in enumerate(sector_seq):
            serial.load("buf", np.arange(8) + 8 * s)
            batch.load_contiguous(
                "buf", np.array([8 * s]), 8,
                task=np.array([0]), step=np.array([step]),
            )
        got = batch.finalize().global_load.l1_filtered_transactions
        assert got == serial.stats.global_load.l1_filtered_transactions


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
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 256, size=(64, 32))
        mask = rng.random((64, 32)) < 0.7
        got = bank_conflict_passes_batch(addrs, mask)
        for wi in range(64):
            expect = bank_conflict_passes(addrs[wi][mask[wi]])
            assert got[wi] == expect, f"warp {wi}"

    def test_batch_masked_lanes_and_edges(self):
        addrs = np.vstack([
            np.full(32, 5),        # broadcast
            2 * np.arange(32),     # 2-way
            32 * np.arange(32),    # 32-way
            np.arange(32),         # conflict free
        ])
        mask = np.ones_like(addrs, dtype=bool)
        mask[3, 1:] = False  # single active lane
        np.testing.assert_array_equal(
            bank_conflict_passes_batch(addrs, mask), [1, 2, 32, 1]
        )
        # Fully-masked warp costs zero passes.
        none = np.zeros((1, 32), dtype=bool)
        np.testing.assert_array_equal(
            bank_conflict_passes_batch(np.arange(32)[None, :], none), [0]
        )
        # Degenerate shapes.
        assert bank_conflict_passes_batch(np.empty((0, 32), dtype=np.int64)).size == 0
        with pytest.raises(ValueError):
            bank_conflict_passes_batch(np.arange(32))  # 1-D input


# -- batchtrace helpers ------------------------------------------------------


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
            recent, clock, misses = {}, 0, 0
            for s in sectors.tolist():
                clock += 1
                last = recent.get(s)
                if last is None or clock - last > window:
                    misses += 1
                recent[s] = clock
            assert l1_filtered_misses(sectors, window) == misses, window

    def test_bounds_checked_like_trace_memory(self):
        mem = BatchTraceMemory()
        mem.register("buf", np.zeros(16, dtype=np.float32))
        with pytest.raises(IndexError):
            mem.load_contiguous("buf", np.array([12]), 8,
                                task=np.array([0]), step=np.array([0]))
