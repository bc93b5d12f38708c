"""Unit tests for the kernel code-generation layer (the "compiler")."""

import pytest

from repro.core import GroupDescriptor
from repro.isa import Assembler, opcodes as op
from repro.kernels.codegen import (MimdKernelBuilder, SelfDaeStream,
                                   VectorKernelBuilder, pack_frame_cfg)
from repro.manycore import Fabric, small_config


class TestPackFrameCfg:
    def test_roundtrip_fields(self):
        v = pack_frame_cfg(20, 7)
        assert v & 0xFFF == 20
        assert (v >> 12) & 0xFFF == 7

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_frame_cfg(0, 5)
        with pytest.raises(ValueError):
            pack_frame_cfg(5000, 5)
        with pytest.raises(ValueError):
            pack_frame_cfg(4, 0)


class TestVectorKernelBuilder:
    def _builder(self, lanes=4, frame_size=16, **kw):
        fabric = Fabric(small_config())
        return fabric, VectorKernelBuilder(fabric, lanes, frame_size, **kw)

    def test_groups_registered_with_fabric(self):
        fabric, b = self._builder()
        assert len(fabric.group_descs) == len(b.groups)
        assert b.frame_size == 16

    def test_frame_size_may_wait_for_the_phase(self):
        """A builder needs no frame size; a vector phase does."""
        fabric, b = self._builder(frame_size=None)
        assert b.frame_size is None and b.num_slots is None
        with pytest.raises(ValueError, match='frame_size'):
            b.program().vector_phase(lambda a, g: a.vissue('.mt'))
        b.program().vector_phase(lambda a, g: a.vissue('.mt'), frame_size=8)
        assert b.frame_size == 8
        assert b.num_slots >= fabric.cfg.frame_counters

    def test_too_large_frame_region_rejected(self):
        fabric = Fabric(small_config())
        with pytest.raises(ValueError, match='scratchpad'):
            VectorKernelBuilder(fabric, 4, frame_size=512, num_slots=8)

    def test_set_frame_size_recomputes_slots(self):
        fabric, b = self._builder(frame_size=8)
        b.set_frame_size(64)
        assert b.frame_size == 64
        assert b.num_slots >= fabric.cfg.frame_counters
        assert b.frame_size * b.num_slots <= fabric.cfg.spad_words

    def test_runahead_within_counter_window(self):
        fabric, b = self._builder()
        assert 1 <= b.ahead <= fabric.cfg.frame_counters - \
            fabric.cfg.inet_queue_entries

    def test_no_group_fits_raises(self):
        fabric = Fabric(small_config())
        with pytest.raises(ValueError, match='fits'):
            VectorKernelBuilder(fabric, 63, frame_size=8)

    def test_dispatch_table_patched_after_finish(self):
        fabric, b = self._builder()
        p = b.program()
        p.vector_phase(lambda a, g: a.vissue('.mt'))

        def mts(a):
            a.bind('.mt')
            a.vend()

        prog = p.finish(mts)
        table_base, entries, resume = p._dispatch_tables[0]
        for cid in range(fabric.cfg.num_cores):
            pc = fabric.memory[table_base + cid]
            assert 0 <= pc < len(prog.instrs)
        # idle tiles land on the resume label
        idle = b.idle[0] if b.idle else None
        if idle is not None:
            assert fabric.memory[table_base + idle] == resume.pc

    def test_phase_loop_does_not_nest(self):
        fabric, b = self._builder()
        p = b.program()
        with pytest.raises(ValueError, match='nest'):
            with p.loop(2):
                with p.loop(2):
                    pass


class TestMimdKernelBuilder:
    def test_kernels_separated_by_barriers(self):
        mb = MimdKernelBuilder()
        mb.add_kernel(lambda a: a.nop())
        mb.add_kernel(lambda a: a.nop())
        prog = mb.build()
        ops = [i.op for i in prog.instrs]
        assert ops.count(op.BARRIER) == 2
        assert ops[-1] == op.HALT

    def test_loop_emits_backedge(self):
        mb = MimdKernelBuilder()
        with mb.loop(3):
            mb.add_kernel(lambda a: a.nop())
        prog = mb.build()
        ops = [i.op for i in prog.instrs]
        assert op.BLT in ops

    def test_loop_does_not_nest(self):
        mb = MimdKernelBuilder()
        with pytest.raises(ValueError, match='nest'):
            with mb.loop(2):
                with mb.loop(2):
                    pass


class TestSelfDaeStream:
    def test_config_reserves_region(self):
        a = Assembler()
        stream = SelfDaeStream(frame_size=16, num_slots=6, ahead=2)
        stream.emit_config(a)
        prog = a.finish()
        csr_writes = [i for i in prog.instrs if i.op == op.CSRW]
        assert len(csr_writes) == 1

    def test_slot_advance_wraps(self):
        """Run the advance sequence on a real core and watch x22 wrap."""
        fabric = Fabric(small_config())
        fabric.alloc(16)
        stream = SelfDaeStream(frame_size=16, num_slots=5, ahead=1)
        a = Assembler()
        a.csrr('x1', op.CSR_COREID)
        a.beq('x1', 'x0', 'main')
        a.halt()
        a.bind('main')
        stream.emit_config(a)
        for _ in range(7):  # 7 advances over 5 slots -> back to slot 2
            stream.emit_advance_slot(a)
        a.li('x5', 0)
        a.sw('x22', 'x5', 0)
        a.halt()
        fabric.load_program(a.finish())
        fabric.run()
        assert fabric.memory[0] == (7 % 5) * 16


class TestForCount:
    def test_executes_exactly_n_times(self):
        from tests.conftest import run_single_core

        def body(a):
            a.li('x6', 0)
            with a.for_count('x5', 7):
                a.addi('x6', 'x6', 1)
            a.li('x8', 0)
            a.sw('x6', 'x8', 0)

        fabric, _ = run_single_core(body)
        assert fabric.memory[0] == 7

    def test_zero_trip_rejected(self):
        a = Assembler()
        with pytest.raises(ValueError):
            with a.for_count('x5', 0):
                pass
