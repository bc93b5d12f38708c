"""Cross-cutting simulator invariants, checked over real kernel runs."""

import pytest

from repro.harness import run_benchmark
from repro.kernels import registry
from repro.kernels.base import VectorParams
from repro.manycore import Fabric, small_config

SMALL = small_config()


def run(name, cfg):
    bench = registry.make(name)
    return run_benchmark(bench, cfg, bench.test_params, base_machine=SMALL)


@pytest.fixture(scope='module')
def sample_runs():
    return {(b, c): run(b, c)
            for b in ('gemm', 'bicg', '2dconv')
            for c in ('NV', 'NV_PF', 'V4')}


class TestAccountingInvariants:
    def test_issue_slots_bounded_by_cycles(self, sample_runs):
        """A core can issue at most one instruction per cycle."""
        for (b, c), r in sample_runs.items():
            for cid, cs in r.stats.cores.items():
                assert cs.instrs <= r.cycles + 1, (b, c, cid)

    def test_stalls_plus_issue_bounded_by_cycles(self, sample_runs):
        """Gap attribution never invents more cycles than elapsed."""
        for (b, c), r in sample_runs.items():
            for cid, cs in r.stats.cores.items():
                assert cs.instrs + cs.stall_total() <= r.cycles + 1, \
                    (b, c, cid)

    def test_fetches_bounded_by_instructions_mimd(self, sample_runs):
        """Independent cores fetch exactly what they execute."""
        for (b, c), r in sample_runs.items():
            if c.startswith('V'):
                continue
            for cid, cs in r.stats.cores.items():
                assert cs.icache_accesses == cs.instrs, (b, c, cid)

    def test_vector_cores_execute_more_than_they_fetch(self, sample_runs):
        for (b, c), r in sample_runs.items():
            if not c.startswith('V'):
                continue
            total_recv = sum(max(0, cs.instrs - cs.icache_accesses)
                             for cs in r.stats.cores.values())
            total_fwd = sum(cs.inet_forwards
                            for cs in r.stats.cores.values())
            assert total_recv > 0
            # every received instruction was forwarded by someone
            assert total_fwd >= total_recv

    def test_instruction_mix_sums_to_total(self, sample_runs):
        for (b, c), r in sample_runs.items():
            for cid, cs in r.stats.cores.items():
                mix = (cs.n_int_alu + cs.n_mul + cs.n_div + cs.n_fp +
                       cs.n_mem + cs.n_simd + cs.n_control)
                non_classified = cs.instrs - mix
                # only system ops (csr, barrier, vconfig, ...) fall outside
                assert 0 <= non_classified <= cs.instrs * 0.5, (b, c, cid)

    def test_llc_misses_bounded_by_accesses(self, sample_runs):
        for (b, c), r in sample_runs.items():
            m = r.stats.mem
            assert m.llc_misses <= m.llc_accesses

    def test_dram_reads_match_misses(self, sample_runs):
        for (b, c), r in sample_runs.items():
            m = r.stats.mem
            assert m.dram_lines_read <= m.llc_misses

    def test_frames_consumed_on_dae_configs(self, sample_runs):
        for (b, c), r in sample_runs.items():
            consumed = sum(cs.frames_consumed
                           for cs in r.stats.cores.values())
            if c == 'NV':
                assert consumed == 0
            else:
                assert consumed > 0, (b, c)


class TestInetOccupancy:
    @pytest.mark.parametrize('name', ['gemm', 'bicg', '2dconv'])
    @pytest.mark.parametrize('pcv', [False, True])
    def test_inet_queues_never_exceed_capacity(self, name, pcv):
        """The paper's 2-entry inet input queues bound the run-ahead the
        implicit synchronization relies on.  The tile's forwarding path
        appends to its successor's queue directly (after its own capacity
        check), so the high-water mark is what shows the check holds."""
        bench = registry.make(name)
        fabric = Fabric(SMALL)
        ws = bench.setup(fabric, bench.test_params)
        fabric.load_program(bench.build_vector(
            fabric, ws, bench.test_params, VectorParams(lanes=4, pcv=pcv)))
        fabric.run()
        peaks = [t.inet_in.peak_depth for t in fabric.tiles]
        assert max(peaks) > 0  # instructions did travel the inet
        for t in fabric.tiles:
            assert t.inet_in.peak_depth <= t.inet_in.capacity == 2, t


class TestDeterminism:
    def test_same_run_is_bit_identical(self):
        r1 = run('gemm', 'V4')
        r2 = run('gemm', 'V4')
        assert r1.cycles == r2.cycles
        assert r1.instrs == r2.instrs
        assert r1.stats.mem.llc_accesses == r2.stats.mem.llc_accesses

    def test_memory_state_deterministic(self):
        bench = registry.make('bicg')
        outs = []
        for _ in range(2):
            fabric = Fabric(SMALL)
            ws = bench.setup(fabric, bench.test_params)
            prog = bench.build_mimd(fabric, ws, bench.test_params,
                                    prefetch=True)
            fabric.load_program(prog)
            fabric.run()
            outs.append(fabric.read_array(ws.base('q'),
                                          bench.test_params['n']))
        assert outs[0] == outs[1]
