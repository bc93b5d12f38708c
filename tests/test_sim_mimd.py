"""Integration tests: MIMD (independent-mode) execution on the fabric."""

import pytest

from repro.isa import Assembler, opcodes as op
from repro.manycore import DeadlockError, Fabric, small_config
from tests.conftest import run_single_core


class TestArithmetic:
    def test_add_chain_stores_result(self):
        def body(a):
            a.li('x5', 3)
            a.li('x6', 4)
            a.add('x7', 'x5', 'x6')
            a.li('x8', 0)       # address 0
            a.sw('x7', 'x8', 0)

        fabric, stats = run_single_core(body)
        assert fabric.memory[0] == 7

    def test_fp_pipeline(self):
        def body(a):
            a.li('f1', 3)
            a.fcvt_sw('f1', 'f1')
            a.li('f2', 2)
            a.fcvt_sw('f2', 'f2')
            a.fmul('f3', 'f1', 'f2')   # 6.0
            a.fadd('f3', 'f3', 'f1')   # 9.0
            a.fdiv('f4', 'f3', 'f2')   # 4.5
            a.li('x8', 0)
            a.sw('f4', 'x8', 0)

        fabric, _ = run_single_core(body)
        assert fabric.memory[0] == pytest.approx(4.5)

    def test_loop_sums_range(self):
        def body(a):
            a.li('x6', 0)
            with a.for_range('x5', 0, 10):
                a.add('x6', 'x6', 'x5')
            a.li('x8', 0)
            a.sw('x6', 'x8', 0)

        fabric, _ = run_single_core(body)
        assert fabric.memory[0] == 45

    def test_div_rem(self):
        def body(a):
            a.li('x5', 17)
            a.li('x6', 5)
            a.div('x7', 'x5', 'x6')
            a.rem('x8', 'x5', 'x6')
            a.li('x9', 0)
            a.sw('x7', 'x9', 0)
            a.sw('x8', 'x9', 1)

        fabric, _ = run_single_core(body)
        assert fabric.memory[0] == 3
        assert fabric.memory[1] == 2

    def test_x0_stays_zero(self):
        def body(a):
            a.li('x0', 99)
            a.li('x9', 0)
            a.sw('x0', 'x9', 0)

        fabric, _ = run_single_core(body)
        # memory starts zeroed; the store wrote x0 which must still be 0
        assert fabric.memory[0] == 0


class TestMemorySystem:
    def test_global_load_roundtrip(self):
        fabric = Fabric(small_config())
        base = fabric.alloc([10.0, 20.0, 30.0, 40.0])

        def body(a):
            a.li('x5', base)
            a.lw('f1', 'x5', 1)
            a.lw('f2', 'x5', 3)
            a.fadd('f3', 'f1', 'f2')
            a.li('x9', base)
            a.sw('f3', 'x9', 0)

        fabric, stats = run_single_core(body, fabric)
        assert fabric.memory[base] == pytest.approx(60.0)
        assert stats.mem.llc_accesses >= 3

    def test_load_latency_visible(self):
        """A dependent load chain must take at least DRAM latency."""
        fabric = Fabric(small_config())
        base = fabric.alloc([1.0] * 16)

        def body(a):
            a.li('x5', base)
            a.lw('f1', 'x5', 0)
            a.fadd('f2', 'f1', 'f1')  # depends on the load

        fabric, stats = run_single_core(body, fabric)
        assert stats.cycles >= fabric.cfg.dram_latency

    def test_llc_hit_faster_than_miss(self):
        cfg = small_config()
        cyc = {}
        for name in ('cold', 'warm'):
            fabric = Fabric(cfg)
            base = fabric.alloc([1.0] * 16)

            def body(a, warm=(name == 'warm')):
                a.li('x5', base)
                if warm:
                    a.lw('f1', 'x5', 0)
                    a.fadd('f0', 'f1', 'f1')  # wait for warmup load
                a.lw('f2', 'x5', 1)
                a.fadd('f3', 'f2', 'f2')

            _, stats = run_single_core(body, fabric)
            cyc[name] = stats.cycles
        # warm run does two loads but the second hits in LLC
        assert cyc['warm'] < 2 * cyc['cold']

    def test_load_queue_limits_mlp(self):
        """With a 2-entry load queue, >2 outstanding loads serialize."""
        cfg = small_config(load_queue_entries=2)
        fabric = Fabric(cfg)
        # spread addresses across lines/banks so they are independent misses
        base = fabric.alloc([0.0] * (16 * 8))

        def body(a):
            a.li('x5', base)
            for i in range(6):
                a.lw(f'f{i + 1}', 'x5', i * 16)
            a.fadd('f7', 'f6', 'f5')

        _, stats = run_single_core(body, fabric)
        assert stats.total('stall_loadq') > 0

    def test_store_then_load_same_line(self):
        fabric = Fabric(small_config())
        base = fabric.alloc([0.0] * 16)

        def body(a):
            a.li('x5', base)
            a.li('x6', 123)
            a.sw('x6', 'x5', 2)
            # read back after a barrier-free delay: dependent load
            a.lw('x7', 'x5', 2)
            a.sw('x7', 'x5', 3)

        fabric, _ = run_single_core(body, fabric)
        assert fabric.memory[base + 2] == 123
        assert fabric.memory[base + 3] == 123

    def test_dram_lines_counted(self):
        fabric = Fabric(small_config())
        base = fabric.alloc([0.0] * (16 * 4))

        def body(a):
            a.li('x5', base)
            for i in range(4):
                a.lw(f'f{i + 1}', 'x5', i * 16)
            a.fadd('f5', 'f4', 'f3')

        _, stats = run_single_core(body, fabric)
        assert stats.mem.dram_lines_read == 4


class TestMultiCore:
    def _spmd_store_tid(self, ncores_active=None):
        cfg = small_config()
        fabric = Fabric(cfg)
        base = fabric.alloc([0.0] * 16)
        a = Assembler()
        a.csrr('x1', op.CSR_TID)
        a.li('x5', base)
        a.add('x5', 'x5', 'x1')
        a.sw('x1', 'x5', 0)
        a.barrier()
        a.halt()
        prog = a.finish()
        active = list(range(ncores_active)) if ncores_active else None
        fabric.load_program(prog, active_cores=active)
        fabric.run()
        return fabric, base

    def test_all_cores_store_their_tid(self):
        fabric, base = self._spmd_store_tid()
        n = fabric.cfg.num_cores
        assert fabric.memory[base:base + n] == list(range(n))

    def test_subset_of_cores(self):
        fabric, base = self._spmd_store_tid(ncores_active=4)
        assert fabric.memory[base:base + 4] == [0, 1, 2, 3]
        assert fabric.memory[base + 4] == 0.0

    def test_barrier_synchronizes(self):
        """Core 1 busy-spins; core 0 waits at the barrier until it's done."""
        cfg = small_config()
        fabric = Fabric(cfg)
        base = fabric.alloc([0.0] * 16)
        a = Assembler()
        a.csrr('x1', op.CSR_COREID)
        a.li('x9', 2)
        a.bge('x1', 'x9', 'off')
        a.beq('x1', 'x0', 'fast')
        # slow core: long loop then store flag
        a.li('x6', 1)
        with a.for_range('x5', 0, 300):
            a.nop()
        a.li('x7', base)
        a.sw('x6', 'x7', 0)
        a.barrier()
        a.halt()
        a.bind('fast')
        a.barrier()
        # after the barrier, the flag must be visible
        a.li('x7', base)
        a.lw('x8', 'x7', 0)
        a.sw('x8', 'x7', 1)
        a.halt()
        a.bind('off')
        a.halt()
        prog = a.finish()
        fabric.load_program(prog)
        fabric.run()
        assert fabric.memory[base + 1] == 1

    def test_remote_scratchpad_store(self):
        cfg = small_config()
        fabric = Fabric(cfg)
        a = Assembler()
        a.csrr('x1', op.CSR_COREID)
        a.bne('x1', 'x0', 'other')
        a.li('x5', 777)   # value
        a.li('x6', 1)     # dest core
        a.li('x7', 10)    # offset
        a.swrem('x5', 'x6', 'x7')
        a.barrier()
        a.halt()
        a.bind('other')
        a.barrier()
        a.halt()
        prog = a.finish()
        fabric.load_program(prog, active_cores=[0, 1])
        fabric.run()
        assert fabric.tiles[1].spad.data[10] == 777


class TestSimControl:
    def test_icache_accesses_counted(self):
        def body(a):
            with a.for_range('x5', 0, 50):
                a.nop()

        _, stats = run_single_core(body)
        # ~4 instructions per iteration, 50 iterations
        assert stats.total_icache_accesses > 150

    def test_branch_bubble_costs_cycles(self):
        def tight(a):
            with a.for_range('x5', 0, 100):
                a.nop()

        _, stats = run_single_core(tight)
        assert stats.total('stall_branch') >= 100  # taken back-edges

    def test_deadlock_detection(self):
        """A lone core waiting at a barrier that nobody else reaches."""
        cfg = small_config()
        fabric = Fabric(cfg)
        a = Assembler()
        a.csrr('x1', op.CSR_COREID)
        a.bne('x1', 'x0', 'other')
        a.lw('x2', 'x0', 0)  # pending load keeps events alive briefly
        a.barrier()
        a.halt()
        a.bind('other')
        a.halt()
        prog = a.finish()
        fabric.alloc([0.0] * 16)
        fabric.load_program(prog, active_cores=[0, 1])
        # core 1 halts; core 0 blocks at barrier... but the job's barrier
        # treats halted cores as absent, so this actually completes.
        fabric.run()
        assert fabric.tiles[0].halted

    def test_true_deadlock_raises(self):
        cfg = small_config()
        fabric = Fabric(cfg)
        a = Assembler()
        # waiting on an inet message that never comes: vconfig half-group
        a.csrr('x1', op.CSR_COREID)
        a.bne('x1', 'x0', 'other')
        a.li('x5', 0)
        a.vconfig('x5')
        a.halt()
        a.bind('other')
        a.halt()
        from repro.core import GroupDescriptor
        fabric.register_group(GroupDescriptor(0, [0, 1, 2]))
        prog = a.finish()
        fabric.load_program(prog, active_cores=[0, 1])
        with pytest.raises(DeadlockError):
            fabric.run()

    def test_timeout_raises(self):
        """Core 0 spins while the rest park at the barrier (1 of 16 due)
        when the budget runs out — with and without a profiler: same
        message, clock inside the budget."""
        from repro.manycore import SimulationTimeout
        from repro.perf import HostProfiler
        a = Assembler()
        a.csrr('x1', op.CSR_COREID)
        a.bne('x1', 'x0', 'park')
        a.bind('spin')
        a.j('spin')
        a.bind('park')
        a.barrier()
        a.halt()
        prog = a.finish()
        prof = HostProfiler()
        messages = []
        for attach in (False, True):
            fabric = Fabric(small_config())
            if attach:
                prof.attach(fabric)
            fabric.load_program(prog)
            with pytest.raises(SimulationTimeout) as exc_info:
                fabric.run(max_cycles=1000)
            messages.append(str(exc_info.value))
            assert fabric.cycle <= 1000  # the clock stops inside the budget
        assert messages[0] == messages[1]
        assert 'cycle 1000' in messages[0]
        assert prof.total > 0.0
