"""Tests for the instruction tracer."""

from repro.isa import Assembler, opcodes as op
from repro.manycore import Fabric, Tracer, small_config
from tests.conftest import run_single_core


def traced_run(body, **tracer_kw):
    fabric = Fabric(small_config())
    if not fabric.memory:
        fabric.alloc(64)
    tracer = Tracer(**tracer_kw).attach(fabric)
    a = Assembler()
    a.csrr('x1', op.CSR_COREID)
    a.beq('x1', 'x0', 'main')
    a.halt()
    a.bind('main')
    body(a)
    a.halt()
    fabric.load_program(a.finish())
    fabric.run()
    return tracer


class TestTracer:
    def test_records_issued_instructions(self):
        def body(a):
            a.li('x5', 3)
            a.addi('x5', 'x5', 1)

        tracer = traced_run(body, cores=[0])
        texts = [e.text for e in tracer.entries]
        assert 'li x5, 3' in texts
        assert 'addi x5, x5, 1' in texts

    def test_core_filter(self):
        def body(a):
            a.nop()

        tracer = traced_run(body, cores=[5])
        # core 5 only executes the dispatch prologue + halt
        assert all(e.core == 5 for e in tracer.entries)
        assert len(tracer.entries) >= 2

    def test_cycle_window(self):
        def body(a):
            for _ in range(20):
                a.nop()

        tracer = traced_run(body, cores=[0], start=5, stop=10)
        assert all(5 <= e.cycle < 10 for e in tracer.entries)

    def test_limit_drops_and_reports(self):
        def body(a):
            for _ in range(30):
                a.nop()

        tracer = traced_run(body, cores=[0], limit=10)
        assert len(tracer.entries) == 10
        assert tracer.dropped > 0
        assert 'dropped' in tracer.render()

    def test_filtered_counter_core_filter(self):
        def body(a):
            for _ in range(10):
                a.nop()

        tracer = traced_run(body, cores=[0])
        # other cores run the dispatch prologue: those records are filtered
        assert tracer.filtered > 0
        assert all(e.core == 0 for e in tracer.entries)
        assert f'{tracer.filtered} entries filtered' in tracer.render()

    def test_filtered_counter_cycle_window(self):
        def body(a):
            for _ in range(20):
                a.nop()

        tracer = traced_run(body, cores=[0], start=5, stop=10)
        assert tracer.filtered > 0
        assert 'filtered' in tracer.render()

    def test_unfiltered_run_reports_nothing(self):
        def body(a):
            a.nop()

        tracer = traced_run(body)
        assert tracer.filtered == 0
        assert 'filtered' not in tracer.render()

    def test_render_format(self):
        def body(a):
            a.li('x5', 1)

        tracer = traced_run(body, cores=[0])
        text = tracer.render()
        assert 'c00[I]' in text  # independent-mode marker

    def test_untraced_run_has_no_overhead_hook(self):
        fabric = Fabric(small_config())
        assert fabric.probes.issue is None  # the site's whole cost

    def test_traces_vector_lanes(self):
        from repro.core import GroupDescriptor
        from repro.kernels.codegen import pack_frame_cfg

        fabric = Fabric(small_config())
        out = fabric.alloc(8)
        tracer = Tracer().attach(fabric)
        handle = fabric.register_group(GroupDescriptor(0, [0, 1, 2]))
        a = Assembler()
        a.csrr('x1', op.CSR_COREID)
        a.li('x2', 3)
        a.bge('x1', 'x2', 'off')
        a.li('x3', pack_frame_cfg(4, 8))
        a.csrw(op.CSR_FRAME_CFG, 'x3')
        a.li('x4', handle)
        a.beq('x1', 'x0', 'scalar')
        a.vconfig('x4')
        a.halt()
        a.bind('scalar')
        a.vconfig('x4')
        a.vissue('mt')
        a.devec('resume')
        a.bind('resume')
        a.barrier()
        a.halt()
        a.bind('off')
        a.halt()
        a.bind('mt')
        a.addi('x10', 'x10', 1)
        a.vend()
        fabric.load_program(a.finish())
        fabric.run()
        lane_entries = tracer.per_core(2)
        assert any('addi x10' in e.text for e in lane_entries)
        # lane executed the forwarded instruction in vector mode
        from repro.core.vgroup import ROLE_VECTOR
        modes = {e.mode for e in lane_entries if 'addi x10' in e.text}
        assert ROLE_VECTOR in modes
