"""DeadlockError must carry a per-tile wait-state dump naming the culprit."""

import pytest

from repro.core import GroupDescriptor
from repro.isa import Assembler, opcodes as op
from repro.manycore import (JOB_DONE, JOB_KILLED, DeadlockError, Fabric,
                            small_config)
from repro.perf import HostProfiler

from .conftest import pack_frame_cfg


def _wedge_program(fabric):
    """Core 0 waits at vconfig for a group whose other members halt."""
    a = Assembler()
    a.csrr('x1', op.CSR_COREID)
    a.bne('x1', 'x0', 'other')
    a.li('x3', pack_frame_cfg(16, 5))
    a.csrw(op.CSR_FRAME_CFG, 'x3')
    a.li('x5', 0)
    a.vconfig('x5')
    a.halt()
    a.bind('other')
    a.halt()
    fabric.register_group(GroupDescriptor(0, [0, 1, 2]))
    return a.finish()


def _deadlock_message(profiler=None):
    fabric = Fabric(small_config())
    if profiler is not None:
        profiler.attach(fabric)
    fabric.load_program(_wedge_program(fabric), active_cores=[0, 1])
    with pytest.raises(DeadlockError) as exc_info:
        fabric.run()
    assert fabric._peek_live() is None  # nothing left that could wake it
    return str(exc_info.value)


def _both_ways():
    """The wedge's dump, checked identical with a profiler attached."""
    prof = HostProfiler()
    msg = _deadlock_message()
    assert _deadlock_message(prof) == msg
    assert prof.total > 0.0
    return msg


class TestDeadlockDump:
    def test_dump_names_the_wedged_tile(self):
        msg = _both_ways()
        # the wedged tile, by id, with its blocking instruction
        assert 'core 0' in msg
        assert 'vconfig' in msg
        # and the structural state the issue asks for
        assert 'frames:' in msg
        assert 'inet-depth=' in msg
        # halted tiles are not in the dump — only the stuck ones
        assert 'core 1' not in msg

    def test_dump_reports_frame_and_queue_state(self):
        line = [ln for ln in _both_ways().splitlines()
                if ln.strip().startswith('core 0')][0]
        assert 'head=' in line and 'open=' in line
        assert 'lq=' in line
        assert 'blocked-on:' in line

    def test_stall_handler_frees_a_wedged_job(self):
        """A set ``_stall_handler`` gets the wedge instead of the run
        raising; killing the job there ends the run at the same cycle
        profiled and unprofiled, the handler's time credited to serve."""
        def serve(profiler=None):
            fabric = Fabric(small_config())
            if profiler is not None:
                profiler.attach(fabric)
            job = fabric.launch_job('wedge', _wedge_program(fabric), [0, 1])

            def on_stall(now):
                fabric.kill_job(job, now)
                return True
            fabric._stall_handler = on_stall
            fabric.run()
            assert not fabric._pending_events  # the kill drained the job
            return fabric.cycle, job.state, job.finished_at

        prof = HostProfiler()
        base = serve()
        assert base == serve(prof)
        assert base[1] == JOB_KILLED
        assert prof.seconds['serve'] > 0.0

    def test_a_halting_tile_releases_job_mates_at_a_barrier(self):
        """Ranks 1-2 wait at a barrier that rank 0 never reaches: it
        halts instead.  A halted tile no longer counts, so its halt must
        re-check the barrier and release them (no stall handler here, so
        a missed release is a DeadlockError)."""
        a = Assembler()
        a.csrr('x1', op.CSR_TID)
        a.bne('x1', 'x0', 'wait')
        for _ in range(30):
            a.addi('x5', 'x5', 1)
        a.halt()
        a.bind('wait')
        a.barrier()
        a.halt()
        fabric = Fabric(small_config())
        job = fabric.launch_job('halt-at-barrier', a.finish(), [0, 1, 2])
        fabric.run()
        assert job.state == JOB_DONE
        assert all(t.halted for t in job.tiles)

    def test_wait_state_dump_without_raising(self):
        """The dump is also available as a plain inspection API."""
        fabric = Fabric(small_config())
        dump = fabric.wait_state_dump()
        assert 'deadlock' in dump
