"""Integration tests: vector groups, instruction forwarding, DAE frames."""

import pytest

from repro.core import GroupDescriptor
from repro.isa import (Assembler, VL_GROUP, VL_SELF, VL_SINGLE,
                       opcodes as op)
from repro.manycore import Fabric, small_config
from tests.conftest import pack_frame_cfg


def vector_program(build_scalar, build_microthreads, group_tiles,
                   frame_size=4, num_slots=8, handle=0):
    """Assemble the canonical SPMD vector-kernel skeleton.

    Core layout: ``group_tiles[0]`` is the scalar core, the rest are lanes.
    Cores not in the group halt immediately.  ``build_scalar(a)`` emits the
    scalar stream between ``vconfig`` and ``devec``; ``build_microthreads(a)``
    emits labeled microthread bodies at the end of the program.
    """
    a = Assembler()
    a.csrr('x1', op.CSR_COREID)
    for t in group_tiles:
        a.li('x2', t)
        a.beq('x1', 'x2', f'member_{t}')
    a.halt()
    for i, t in enumerate(group_tiles):
        a.bind(f'member_{t}')
        a.li('x3', pack_frame_cfg(frame_size, num_slots))
        a.csrw(op.CSR_FRAME_CFG, 'x3')
        a.li('x4', handle)
        if i == 0:
            a.j('scalar_entry')
        else:
            a.vconfig('x4')
            a.halt()  # lanes never fall through; devec redirects them
    a.bind('scalar_entry')
    a.vconfig('x4')
    build_scalar(a)
    a.devec('resume')
    a.bind('resume')
    a.barrier()
    a.halt()
    build_microthreads(a)
    return a.finish()


def make_group_fabric(lanes=3):
    fabric = Fabric(small_config())
    tiles = list(range(lanes + 1))
    handle = fabric.register_group(GroupDescriptor(0, tiles))
    return fabric, tiles, handle


class TestGroupFormation:
    def test_vissue_microthread_runs_on_all_lanes(self):
        fabric, tiles, handle = make_group_fabric(lanes=3)
        out = fabric.alloc(16)

        def scalar(a):
            a.vissue('mt')

        def mts(a):
            a.bind('mt')
            a.csrr('x5', op.CSR_TID)
            a.li('x6', 100)
            a.add('x6', 'x6', 'x5')
            a.li('x7', out)
            a.add('x7', 'x7', 'x5')
            a.sw('x6', 'x7', 0)
            a.vend()

        prog = vector_program(scalar, mts, tiles)
        fabric.load_program(prog)
        fabric.run()
        assert fabric.memory[out:out + 3] == [100, 101, 102]

    def test_lane_state_persists_across_microthreads(self):
        """The paper's vec_i += VLEN pattern: registers live across vissues."""
        fabric, tiles, handle = make_group_fabric(lanes=2)
        out = fabric.alloc(16)

        def scalar(a):
            a.vissue('init')
            for _ in range(5):
                a.vissue('body')
            a.vissue('fini')

        def mts(a):
            a.bind('init')
            a.li('x10', 0)
            a.vend()
            a.bind('body')
            a.addi('x10', 'x10', 7)
            a.vend()
            a.bind('fini')
            a.csrr('x5', op.CSR_TID)
            a.li('x7', out)
            a.add('x7', 'x7', 'x5')
            a.sw('x10', 'x7', 0)
            a.vend()

        prog = vector_program(scalar, mts, tiles)
        fabric.load_program(prog)
        fabric.run()
        assert fabric.memory[out:out + 2] == [35, 35]

    def test_icache_disabled_on_vector_cores(self):
        """Only scalar + expander fetch; trailing lanes use the inet."""
        fabric, tiles, handle = make_group_fabric(lanes=3)
        out = fabric.alloc(16)

        def scalar(a):
            for _ in range(10):
                a.vissue('mt')

        def mts(a):
            a.bind('mt')
            a.addi('x10', 'x10', 1)
            a.addi('x11', 'x11', 2)
            a.addi('x12', 'x12', 3)
            a.vend()

        prog = vector_program(scalar, mts, tiles)
        fabric.load_program(prog)
        stats = fabric.run()
        scalar_i = fabric.tiles[tiles[0]].stats.icache_accesses
        expander_i = fabric.tiles[tiles[1]].stats.icache_accesses
        lane2_i = fabric.tiles[tiles[2]].stats.icache_accesses
        lane3_i = fabric.tiles[tiles[3]].stats.icache_accesses
        assert expander_i > 30  # fetched 10 microthreads of 4 instrs
        # trailing lanes only fetched the short setup/teardown code
        assert lane2_i < expander_i / 2
        assert lane3_i < expander_i / 2
        # trailing lanes executed exactly the 30 forwarded microthread
        # instructions (3 per body x 10 bodies) without fetching them
        for t in tiles[2:]:
            ts = fabric.tiles[t].stats
            assert ts.instrs - ts.icache_accesses == 30

    def test_inet_forwards_counted(self):
        fabric, tiles, handle = make_group_fabric(lanes=3)

        def scalar(a):
            a.vissue('mt')

        def mts(a):
            a.bind('mt')
            a.addi('x10', 'x10', 1)
            a.vend()

        prog = vector_program(scalar, mts, tiles)
        fabric.load_program(prog)
        fabric.run()
        # expander forwards the addi to lane 1, lane 1 forwards to lane 2,
        # the tail lane forwards nothing
        assert fabric.tiles[tiles[1]].stats.inet_forwards >= 1
        assert fabric.tiles[tiles[2]].stats.inet_forwards >= 1
        assert fabric.tiles[tiles[3]].stats.inet_forwards == 0

    def test_devec_returns_lanes_to_mimd(self):
        fabric, tiles, handle = make_group_fabric(lanes=2)
        out = fabric.alloc(16)

        def scalar(a):
            a.vissue('mt')

        def mts(a):
            a.bind('mt')
            a.nop()
            a.vend()

        prog = vector_program(scalar, mts, tiles)
        fabric.load_program(prog)
        fabric.run()
        for t in tiles:
            tile = fabric.tiles[t]
            assert tile.halted
            assert tile.group is None

    def test_expander_branch_in_microthread(self):
        """Consistent branches (loops) are allowed inside microthreads."""
        fabric, tiles, handle = make_group_fabric(lanes=2)
        out = fabric.alloc(16)

        def scalar(a):
            a.vissue('mt')

        def mts(a):
            a.bind('mt')
            a.li('x10', 0)
            with a.for_range('x11', 0, 8):
                a.addi('x10', 'x10', 3)
            a.csrr('x5', op.CSR_TID)
            a.li('x7', out)
            a.add('x7', 'x7', 'x5')
            a.sw('x10', 'x7', 0)
            a.vend()

        prog = vector_program(scalar, mts, tiles)
        fabric.load_program(prog)
        fabric.run()
        assert fabric.memory[out:out + 2] == [24, 24]


class TestPredication:
    def test_pred_eq_masks_lanes(self):
        fabric, tiles, handle = make_group_fabric(lanes=3)
        out = fabric.alloc(16)

        def scalar(a):
            a.vissue('mt')

        def mts(a):
            a.bind('mt')
            a.csrr('x5', op.CSR_TID)
            a.li('x6', 1)
            a.li('x10', 0)
            a.pred_eq('x5', 'x6')    # only lane 1 executes
            a.li('x10', 42)
            a.pred_eq('x0', 'x0')    # re-enable all lanes
            a.li('x7', out)
            a.add('x7', 'x7', 'x5')
            a.sw('x10', 'x7', 0)
            a.vend()

        prog = vector_program(scalar, mts, tiles)
        fabric.load_program(prog)
        fabric.run()
        assert fabric.memory[out:out + 3] == [0, 42, 0]

    def test_pred_neq(self):
        fabric, tiles, handle = make_group_fabric(lanes=2)
        out = fabric.alloc(16)

        def scalar(a):
            a.vissue('mt')

        def mts(a):
            a.bind('mt')
            a.csrr('x5', op.CSR_TID)
            a.li('x10', 5)
            a.pred_neq('x5', 'x0')   # lanes with tid != 0
            a.li('x10', 9)
            a.pred_eq('x0', 'x0')
            a.li('x7', out)
            a.add('x7', 'x7', 'x5')
            a.sw('x10', 'x7', 0)
            a.vend()

        prog = vector_program(scalar, mts, tiles)
        fabric.load_program(prog)
        fabric.run()
        assert fabric.memory[out:out + 2] == [5, 9]


class TestDAE:
    def test_group_vload_feeds_frames(self):
        """Scalar issues one group load; each lane consumes its chunk."""
        fabric, tiles, handle = make_group_fabric(lanes=3)
        data = [float(i + 1) for i in range(12)]  # 3 lanes x 4 words
        src = fabric.alloc(data)
        out = fabric.alloc(16)

        def scalar(a):
            a.li('x10', src)
            a.li('x11', 0)  # frame slot 0 offset
            a.vload('x11', 'x10', 0, 4, VL_GROUP)
            a.vissue('mt')

        def mts(a):
            a.bind('mt')
            a.frame_start('x8')
            a.lwsp('f1', 'x8', 0)
            a.lwsp('f2', 'x8', 1)
            a.lwsp('f3', 'x8', 2)
            a.lwsp('f4', 'x8', 3)
            a.fadd('f5', 'f1', 'f2')
            a.fadd('f5', 'f5', 'f3')
            a.fadd('f5', 'f5', 'f4')
            a.remem()
            a.csrr('x5', op.CSR_TID)
            a.li('x7', out)
            a.add('x7', 'x7', 'x5')
            a.sw('f5', 'x7', 0)
            a.vend()

        prog = vector_program(scalar, mts, tiles, frame_size=4)
        fabric.load_program(prog)
        fabric.run()
        expect = [sum(data[i * 4:(i + 1) * 4]) for i in range(3)]
        assert fabric.memory[out:out + 3] == pytest.approx(expect)

    def test_single_vload_targets_one_lane(self):
        fabric, tiles, handle = make_group_fabric(lanes=2)
        src = fabric.alloc([5.0, 6.0, 7.0, 8.0])
        out = fabric.alloc(16)

        def scalar(a):
            a.li('x10', src)
            a.li('x11', 0)
            a.vload('x11', 'x10', 0, 2, VL_SINGLE)   # lane 0 gets 5,6
            a.addi('x10', 'x10', 2)
            a.vload('x11', 'x10', 1, 2, VL_SINGLE)   # lane 1 gets 7,8
            a.vissue('mt')

        def mts(a):
            a.bind('mt')
            a.frame_start('x8')
            a.lwsp('f1', 'x8', 0)
            a.lwsp('f2', 'x8', 1)
            a.fadd('f3', 'f1', 'f2')
            a.remem()
            a.csrr('x5', op.CSR_TID)
            a.li('x7', out)
            a.add('x7', 'x7', 'x5')
            a.sw('f3', 'x7', 0)
            a.vend()

        prog = vector_program(scalar, mts, tiles, frame_size=2)
        fabric.load_program(prog)
        fabric.run()
        assert fabric.memory[out:out + 2] == pytest.approx([11.0, 15.0])

    def test_frame_pipelining_multiple_iterations(self):
        """Scalar runs ahead filling future frames while lanes consume."""
        lanes = 2
        iters = 6
        fabric, tiles, handle = make_group_fabric(lanes=lanes)
        data = [float(i) for i in range(lanes * 2 * iters)]
        src = fabric.alloc(data)
        out = fabric.alloc(16)

        def scalar(a):
            a.li('x10', src)
            a.li('x11', 0)           # rotating frame-slot offset
            a.li('x12', 2)           # frame size
            a.li('x13', 8 * 2)       # region size = slots * frame size
            a.vissue('init')
            for _ in range(iters):
                a.vload('x11', 'x10', 0, 2, VL_GROUP)
                a.vissue('body')
                a.addi('x10', 'x10', 2 * lanes)
                a.add('x11', 'x11', 'x12')
                a.blt('x11', 'x13', f'.nowrap{_}')
                a.li('x11', 0)
                a.bind(f'.nowrap{_}')
            a.vissue('fini')

        def mts(a):
            a.bind('init')
            a.li('f10', 0)
            a.fcvt_sw('f10', 'f10')
            a.vend()
            a.bind('body')
            a.frame_start('x8')
            a.lwsp('f1', 'x8', 0)
            a.lwsp('f2', 'x8', 1)
            a.fadd('f10', 'f10', 'f1')
            a.fadd('f10', 'f10', 'f2')
            a.remem()
            a.vend()
            a.bind('fini')
            a.csrr('x5', op.CSR_TID)
            a.li('x7', out)
            a.add('x7', 'x7', 'x5')
            a.sw('f10', 'x7', 0)
            a.vend()

        prog = vector_program(scalar, mts, tiles, frame_size=2)
        fabric.load_program(prog)
        fabric.run()
        expect = []
        for lane in range(lanes):
            tot = 0.0
            for it in range(iters):
                base = it * lanes * 2 + lane * 2
                tot += data[base] + data[base + 1]
            expect.append(tot)
        assert fabric.memory[out:out + lanes] == pytest.approx(expect)
        # frames actually cycled
        assert fabric.tiles[tiles[1]].stats.frames_consumed == iters

    def test_self_vload_on_independent_core(self):
        """NV_PF pattern: an independent core prefetches a full line into
        its own frame queue."""
        fabric = Fabric(small_config())
        data = [float(i) for i in range(16)]
        src = fabric.alloc(data)
        out = fabric.alloc(16)
        a = Assembler()
        a.csrr('x1', op.CSR_COREID)
        a.beq('x1', 'x0', 'main')
        a.halt()
        a.bind('main')
        a.li('x3', pack_frame_cfg(16, 5))
        a.csrw(op.CSR_FRAME_CFG, 'x3')
        a.li('x10', src)
        a.li('x11', 0)
        a.vload('x11', 'x10', 0, 16, VL_SELF)
        a.frame_start('x8')
        a.li('f5', 0)
        a.fcvt_sw('f5', 'f5')
        for i in range(16):
            a.lwsp('f1', 'x8', i)
            a.fadd('f5', 'f5', 'f1')
        a.remem()
        a.li('x7', out)
        a.sw('f5', 'x7', 0)
        a.halt()
        prog = a.finish()
        fabric.load_program(prog)
        fabric.run()
        assert fabric.memory[out] == pytest.approx(sum(data))


class TestInetBackpressure:
    def test_bounded_queue_limits_runahead(self):
        """The expander can be at most ~q_inet launches ahead of the tail."""
        fabric, tiles, handle = make_group_fabric(lanes=3)

        def scalar(a):
            for _ in range(20):
                a.vissue('mt')

        def mts(a):
            a.bind('mt')
            # long microthread so lanes lag and backpressure builds
            for _ in range(6):
                a.mul('x10', 'x10', 'x10')
            a.vend()

        prog = vector_program(scalar, mts, tiles)
        fabric.load_program(prog)
        fabric.run()
        total_bp = sum(fabric.tiles[t].stats.stall_backpressure
                       for t in tiles)
        assert total_bp > 0
