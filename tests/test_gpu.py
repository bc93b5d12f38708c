"""Unit tests for the SIMT GPU model (paper Section 5.3)."""

import numpy as np
import pytest

from repro.gpu import DEFAULT_GPU, GpuConfig, GpuError, GpuMachine
from repro.gpu.kernels import build_launches
from repro.gpu.machine import GpuMemSystem, Wavefront, _TagArray
from repro.isa import Assembler, opcodes as op
from repro.kernels import registry

SMALL_GPU = GpuConfig(kernel_launch_overhead=10)


def kernel(build):
    a = Assembler()
    a.csrr('x1', op.CSR_TID)
    a.csrr('x2', op.CSR_NCORES)
    build(a)
    a.halt()
    return a.finish()


def run(build, alloc=None, cfg=SMALL_GPU):
    gm = GpuMachine(cfg)
    bases = {}
    for name, data in (alloc or {}).items():
        bases[name] = gm.alloc(data)
    prog = kernel(lambda a: build(a, bases))
    gm.launch(prog, 0)
    return gm, bases


class TestWavefrontExecution:
    def test_thread_ids_cover_grid(self):
        def build(a, b):
            a.li('x5', b['out'])
            a.add('x5', 'x5', 'x1')
            a.sw('x1', 'x5', 0)

        gm, bases = run(build, {'out': SMALL_GPU.total_threads})
        got = gm.read_array(bases['out'], SMALL_GPU.total_threads)
        assert got == list(range(SMALL_GPU.total_threads))

    def test_arithmetic_elementwise(self):
        def build(a, b):
            a.li('x5', b['x'])
            a.add('x5', 'x5', 'x1')
            a.lw('f1', 'x5', 0)
            a.fmul('f2', 'f1', 'f1')
            a.li('x6', b['out'])
            a.add('x6', 'x6', 'x1')
            a.sw('f2', 'x6', 0)

        n = SMALL_GPU.total_threads
        data = [float(i) / 7 for i in range(n)]
        gm, bases = run(build, {'x': data, 'out': n})
        got = gm.read_array(bases['out'], n)
        assert got == pytest.approx([v * v for v in data])

    def test_uniform_loop(self):
        def build(a, b):
            a.li('f5', 0.0)
            with a.for_range('x6', 0, 10):
                a.li('f1', 2.0)
                a.fadd('f5', 'f5', 'f1')
            a.li('x7', b['out'])
            a.add('x7', 'x7', 'x1')
            a.sw('f5', 'x7', 0)

        gm, bases = run(build, {'out': SMALL_GPU.total_threads})
        assert gm.read_array(bases['out'], 3) == [20.0] * 3

    def test_divergent_branch_raises(self):
        def build(a, b):
            skip = a.label()
            a.li('x5', 3)
            a.blt('x1', 'x5', skip.name)  # per-lane outcome differs
            a.nop()
            a.bind(skip)

        with pytest.raises(GpuError, match='divergent'):
            run(build, {'out': 8})

    def test_predication_masks_stores(self):
        def build(a, b):
            a.li('x5', 4)
            a.slt('x6', 'x1', 'x5')       # lanes 0..3 only
            a.li('x7', b['out'])
            a.add('x7', 'x7', 'x1')
            a.li('x8', 1)
            a.pred_neq('x6', 'x0')
            a.sw('x8', 'x7', 0)
            a.pred_eq('x0', 'x0')

        gm, bases = run(build, {'out': SMALL_GPU.total_threads})
        got = gm.read_array(bases['out'], 8)
        assert got == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_predication_masks_writebacks(self):
        def build(a, b):
            a.li('x5', 1)                  # all lanes: x5 = 1
            a.li('x6', 2)
            a.slt('x7', 'x1', 'x6')        # lanes 0,1
            a.pred_neq('x7', 'x0')
            a.li('x5', 99)                 # masked write
            a.pred_eq('x0', 'x0')
            a.li('x8', b['out'])
            a.add('x8', 'x8', 'x1')
            a.sw('x5', 'x8', 0)

        gm, bases = run(build, {'out': SMALL_GPU.total_threads})
        assert gm.read_array(bases['out'], 4) == [99, 99, 1, 1]

    def test_unsupported_op_raises(self):
        def build(a, b):
            a.frame_start('x8')  # no frames on the GPU

        with pytest.raises(GpuError, match='unsupported'):
            run(build, {'out': 4})

    def test_every_opcode_the_kernels_launch_has_a_gpu_arm(self):
        """Each opcode in any of the 16 kernels' launches (test scale)
        executes on a wavefront: none falls through to the no-arm error."""
        first = {}
        for cls in registry.ALL:
            bench = cls()
            params = bench.params_for('test')
            ws = bench.setup(GpuMachine(DEFAULT_GPU), params)
            for program, _ in build_launches(cls.name, ws, params,
                                             DEFAULT_GPU):
                for inst in program.instrs:
                    first.setdefault(inst.op, inst)
        assert len(registry.ALL) == 16 and len(first) > 20
        gm = GpuMachine(SMALL_GPU)
        gm.alloc(64)
        gm._freeze_memory()
        for inst in first.values():
            wf = Wavefront(0, 0, SMALL_GPU)
            wf.tid = np.arange(SMALL_GPU.wavefront_size, dtype=float)
            wf.regs = [np.ones_like(wf.tid) for _ in wf.regs]  # no 0/0
            gm._execute(wf, inst, 0.0)  # GpuError: opcode has no arm


class TestGpuMemory:
    def test_tag_array_hits_after_fill(self):
        t = _TagArray(1024, 4, 64, hit_latency=1)
        hit, _ = t.access(5, 0)
        assert not hit
        hit, _ = t.access(5, 10)
        assert hit

    def test_lru_eviction(self):
        t = _TagArray(4 * 64, 4, 64, hit_latency=1)  # one set, 4 ways
        for line in range(5):
            t.access(line * t.num_sets, line)
        hit, _ = t.access(0, 100)
        assert not hit  # line 0 was evicted

    def test_coalescing_counts_unique_lines(self):
        cfg = SMALL_GPU
        ms = GpuMemSystem(cfg)
        t0 = ms.access_lines(0, [1], 0)
        ms2 = GpuMemSystem(cfg)
        t1 = ms2.access_lines(0, list(range(16)), 0)
        assert t1 > t0  # 16 lines serialize past 1 line

    def test_dram_bandwidth_serializes(self):
        cfg = SMALL_GPU
        ms = GpuMemSystem(cfg)
        # distinct lines, all missing to DRAM
        done = ms.access_lines(0, [i * 1000 for i in range(8)], 0)
        xfer = cfg.line_words / cfg.dram_bandwidth_words_per_cycle
        assert done >= cfg.dram_latency + 8 * xfer

    def test_memory_alloc_interface_matches_fabric(self):
        gm = GpuMachine(SMALL_GPU)
        base = gm.alloc([1.0, 2.0, 3.0])
        assert base % SMALL_GPU.line_words == 0
        gm._freeze_memory()
        assert gm.read_array(base, 3) == [1.0, 2.0, 3.0]


class TestLaunchSemantics:
    def test_launch_overhead_charged(self):
        def build(a, b):
            a.nop()

        gm, _ = run(build, {'out': 4})
        assert gm.cycle >= SMALL_GPU.kernel_launch_overhead

    def test_sequential_launches_accumulate(self):
        gm = GpuMachine(SMALL_GPU)
        out = gm.alloc(4)
        prog = kernel(lambda a: a.nop())
        gm.launch(prog, 0)
        c1 = gm.cycle
        gm.launch(prog, 0)
        assert gm.cycle > c1


class TestWarpVote:
    def test_vote_any_broadcasts(self):
        def build(a, b):
            a.li('x5', 4)
            a.slt('x6', 'x1', 'x5')    # only lanes 0..3 set
            a.vote_any('x7', 'x6')     # -> 1 everywhere
            a.li('x8', b['out'])
            a.add('x8', 'x8', 'x1')
            a.sw('x7', 'x8', 0)

        gm, bases = run(build, {'out': SMALL_GPU.total_threads})
        got = gm.read_array(bases['out'], 8)
        assert got == [1.0] * 8

    def test_vote_any_false_when_no_lane_set(self):
        def build(a, b):
            a.li('x6', 0)
            a.vote_any('x7', 'x6')
            a.li('x8', b['out'])
            a.add('x8', 'x8', 'x1')
            a.sw('x7', 'x8', 0)

        gm, bases = run(build, {'out': SMALL_GPU.total_threads})
        assert gm.read_array(bases['out'], 4) == [0.0] * 4

    def test_vote_respects_active_mask(self):
        def build(a, b):
            a.li('x5', 4)
            a.slt('x6', 'x1', 'x5')        # lanes 0..3
            a.li('x9', 1)                  # per-lane "condition" = 1
            a.pred_neq('x6', 'x0')         # activate lanes 0..3 only
            a.vote_any('x7', 'x9')
            a.pred_eq('x0', 'x0')
            a.li('x8', b['out'])
            a.add('x8', 'x8', 'x1')
            a.sw('x7', 'x8', 0)

        gm, bases = run(build, {'out': SMALL_GPU.total_threads})
        # any active lane has x9 != 0 -> 1 (vote computed under the mask)
        assert gm.read_array(bases['out'], 2) == [1.0, 1.0]

    def test_uniform_branch_on_vote(self):
        """The vote result is wavefront-uniform, so branching on it is
        legal even though the voted condition diverges."""
        def build(a, b):
            skip = a.label()
            a.li('x5', 4)
            a.slt('x6', 'x1', 'x5')    # divergent condition
            a.vote_any('x7', 'x6')
            a.li('x9', 7)
            a.beq('x7', 'x0', skip.name)   # uniform branch
            a.li('x9', 9)
            a.bind(skip)
            a.li('x8', b['out'])
            a.add('x8', 'x8', 'x1')
            a.sw('x9', 'x8', 0)

        gm, bases = run(build, {'out': SMALL_GPU.total_threads})
        assert gm.read_array(bases['out'], 2) == [9.0, 9.0]
