"""Unit tests: NoC geometry, LLC banks, DRAM bandwidth model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.manycore.config import MachineConfig, small_config
from repro.manycore.dram import Dram
from repro.manycore.fabric import Fabric, FabricJob
from repro.manycore.llc import KIND_LOAD, KIND_STORE, KIND_WIDE, MemRequest
from repro.manycore.noc import (NocModel, bank_coords, hops_core_to_bank,
                                hops_core_to_core, tile_coords)
from repro.manycore.stats import MemStats


class TestNocGeometry:
    def test_tile_coords_row_major(self):
        assert tile_coords(0, 8) == (0, 0)
        assert tile_coords(7, 8) == (7, 0)
        assert tile_coords(8, 8) == (0, 1)
        assert tile_coords(63, 8) == (7, 7)

    def test_banks_split_top_and_bottom(self):
        tops = [bank_coords(b, 16, 8, 8) for b in range(8)]
        bots = [bank_coords(b, 16, 8, 8) for b in range(8, 16)]
        assert all(y == -1 for _, y in tops)
        assert all(y == 8 for _, y in bots)
        assert [x for x, _ in tops] == list(range(8))

    def test_hop_symmetry_between_cores(self):
        for a in (0, 13, 63):
            for b in (5, 42):
                assert hops_core_to_core(a, b, 8) == \
                    hops_core_to_core(b, a, 8)

    @given(st.integers(0, 63), st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_bank_hops_positive_and_bounded(self, core, bank):
        h = hops_core_to_bank(core, bank, 16, 8, 8)
        assert 1 <= h <= 8 + 8  # diameter bound

    def test_noc_model_precomputes(self):
        noc = NocModel(8, 8, 16)
        assert noc.bank_delay(0, 0) == noc.bank_hops(0, 0) + 1
        assert noc.core_delay(0, 63) == 14 + 1


class TestDram:
    def test_latency_floor(self):
        stats = MemStats()
        fabric = Fabric(small_config())
        d = Dram(60, 4.0, 16, stats)
        done = []
        d.read_line(0, fabric, lambda now: done.append(now))
        t = d.read_line(0, fabric, lambda now: done.append(now))
        assert t >= 60

    def test_bandwidth_serializes_lines(self):
        stats = MemStats()
        fabric = Fabric(small_config())
        d = Dram(60, 4.0, 16, stats)
        times = [d.read_line(0, fabric, lambda now: None)
                 for _ in range(10)]
        # each 16-word line occupies 4 cycles of channel time
        assert times[-1] - times[0] >= 9 * 4 - 1
        assert stats.dram_lines_read == 10

    def test_writeback_consumes_bandwidth_only(self):
        stats = MemStats()
        fabric = Fabric(small_config())
        d = Dram(60, 4.0, 16, stats)
        d.write_line(0)
        t = d.read_line(0, fabric, lambda now: None)
        assert t >= 60 + 4  # the read queues behind the write transfer
        assert stats.dram_lines_written == 1


def _access(bank, req, at):
    """``bank.access`` for a hand-made request, owned by a job with this
    one operation in flight, as ``Fabric.send_to_bank`` makes a tile's."""
    req.job = FabricJob(0, 'llc', [])
    req.job.pending_ops = 1
    bank.access(req, at)


class TestLLCBank:
    def _fabric(self, **over):
        return Fabric(small_config(**over))

    def test_hit_after_miss(self):
        fabric = self._fabric()
        fabric.alloc([1.0] * 64)
        bank = fabric.banks[0]
        got = []
        req = MemRequest(KIND_LOAD, 0, 1, 0,
                         on_data=lambda v, at: got.append((v, at)))
        _access(bank, req, 0)
        fabric.run()
        assert fabric.run_stats.mem.llc_misses == 1
        req2 = MemRequest(KIND_LOAD, 1, 1, 0,
                          on_data=lambda v, at: got.append((v, at)))
        _access(bank, req2, fabric.cycle)
        fabric.run()
        assert fabric.run_stats.mem.llc_misses == 1  # second was a hit
        assert got[1][1] - got[0][1] < 60  # no DRAM on the hit

    def test_store_marks_dirty_and_writes_memory(self):
        fabric = self._fabric()
        base = fabric.alloc([0.0] * 16)
        bank_id = (base // fabric.cfg.line_words) % fabric.cfg.llc_banks
        bank = fabric.banks[bank_id]
        req = MemRequest(KIND_STORE, base + 3, 1, 0, value=42.0)
        _access(bank, req, 0)
        fabric.run()
        assert fabric.memory[base + 3] == 42.0
        assert (base + 3) // fabric.cfg.line_words in bank._dirty

    def test_eviction_writes_back_dirty_line(self):
        fabric = self._fabric(llc_capacity_bytes=4 * 64, llc_banks=1,
                              llc_ways=2)
        fabric.alloc([0.0] * (16 * 16))
        bank = fabric.banks[0]
        _access(bank, MemRequest(KIND_STORE, 0, 1, 0, value=1.0), 0)
        fabric.run()
        # touch enough distinct lines to evict line 0
        for i in range(1, 6):
            _access(bank, MemRequest(KIND_LOAD, i * 16, 1, 0,
                                     on_data=lambda v, at: None),
                    fabric.cycle)
            fabric.run()
        assert fabric.run_stats.mem.dram_lines_written >= 1

    def test_wide_response_serializes_packets(self):
        fabric = self._fabric()
        base = fabric.alloc([float(i) for i in range(16)])
        bank_id = (base // 16) % fabric.cfg.llc_banks
        bank = fabric.banks[bank_id]
        # 16 words to one core at noc width 4 -> 4 packets
        chunks = [(base, 16, 0, 0)]
        req = MemRequest(KIND_WIDE, base, 16, 0, chunks=chunks,
                         is_frame=False)
        before = fabric.run_stats.mem.response_packets
        _access(bank, req, 0)
        fabric.run()
        assert fabric.run_stats.mem.response_packets - before == 4
        assert fabric.tiles[0].spad.data[:16] == [float(i)
                                                  for i in range(16)]

    def test_ideal_ports_skip_serialization(self):
        real = self._fabric()
        ideal = self._fabric(ideal_llc_ports=True)
        for fabric in (real, ideal):
            base = fabric.alloc([0.0] * 16)
            chunks = [(base, 16, 0, 0)]
            bank = fabric.banks[(base // 16) % fabric.cfg.llc_banks]
            _access(bank, MemRequest(KIND_WIDE, base, 16, 0, chunks=chunks),
                    0)
            fabric.run()
        assert ideal.cycle <= real.cycle

    def test_mshr_merges_requests_to_same_line(self):
        fabric = self._fabric()
        base = fabric.alloc([0.0] * 16)
        bank = fabric.banks[(base // 16) % fabric.cfg.llc_banks]
        got = []
        for i in range(4):
            _access(bank, MemRequest(KIND_LOAD, base + i, 1, 0,
                                     on_data=lambda v, at: got.append(at)),
                    0)
        fabric.run()
        assert len(got) == 4
        assert fabric.run_stats.mem.dram_lines_read == 1  # one fill


class TestConfig:
    def test_line_words(self):
        assert MachineConfig().line_words == 16
        assert MachineConfig(cache_line_bytes=256).line_words == 64

    def test_scaled_returns_copy(self):
        base = MachineConfig()
        two = base.scaled(dram_bandwidth_words_per_cycle=8.0)
        assert base.dram_bandwidth_words_per_cycle == 4.0
        assert two.dram_bandwidth_words_per_cycle == 8.0

    def test_llc_sets_positive(self):
        for kb in (16, 32, 256):
            cfg = MachineConfig(llc_capacity_bytes=kb * 1024)
            assert cfg.llc_sets_per_bank >= 1
