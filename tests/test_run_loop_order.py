"""The run loop's ordering guarantees, read off the ``issue`` probe fact.

DESIGN.md "The run loop" states them; ROADMAP item 3 (group step,
private run-ahead) has to keep them.  The ``issue`` queue is appended to
as tiles step, so its order *is* the step order of the tiles that
issued.  A tile's icache is cold at launch: woken at cycle w, it issues
its first instruction at ``w + MISS_PENALTY``.
"""

from repro.isa import Assembler
from repro.manycore import Fabric, small_config
from repro.manycore.icache import MISS_PENALTY
from repro.manycore.probes import Consumer


class Issues(Consumer):
    """``(cycle, core)`` of every issued instruction, in step order."""

    facts = ('issue',)

    def __init__(self, fabric):
        self.log = []
        fabric.probes.attach(self)

    def fold(self, batches):
        self.log += [rec[:2] for rec in batches.get('issue', ())]


def straight_line(n):
    a = Assembler()
    for _ in range(n):
        a.addi('x5', 'x5', 1)
    a.halt()
    return a.finish()


def serve(setup):
    """Run ``setup(fabric)``'s jobs and events; returns the issue log."""
    fabric = Fabric(small_config())
    issues = Issues(fabric)
    setup(fabric)
    fabric.run()
    fabric.probes.drain()
    return issues.log


def test_same_cycle_tiles_step_in_active_list_order():
    def setup(fabric):
        fabric.launch_job('a', straight_line(6), [2, 0])
        fabric.launch_job('b', straight_line(6), [1])

    log = serve(setup)
    cycles = sorted({now for now, _ in log})
    assert len(cycles) == 7  # six addi and the halt, one per cycle
    for c in cycles:  # every cycle: all three, in launch (= list) order
        assert [core for now, core in log if now == c] == [2, 0, 1]


def test_events_due_at_a_cycle_fire_before_any_tile_steps_at_it():
    at = 1 + MISS_PENALTY + 2  # a cycle at which both tiles issue

    def setup(fabric):
        fabric.launch_job('a', straight_line(6), [0, 1])
        # the marker goes into the queue the tiles' issues go into
        fabric.post(at, lambda now: fabric.probes.issue((now, 'event')))

    log = serve(setup)
    i = log.index((at, 'event'))
    assert all(now < at for now, _ in log[:i])
    assert log[i + 1:i + 3] == [(at, 0), (at, 1)]


def test_a_tile_launched_by_an_event_first_steps_the_cycle_after():
    at = 1 + MISS_PENALTY + 2

    def setup(fabric):
        fabric.launch_job('a', straight_line(6), [0])
        fabric.post(at, lambda now: fabric.launch_job(
            'late', straight_line(2), [5]))

    log = serve(setup)
    assert (at, 0) in log  # the running tile still stepped at `at`
    assert min(now for now, core in log if core == 5) == \
        at + 1 + MISS_PENALTY


def test_a_tile_launched_from_a_tile_step_first_steps_the_cycle_after():
    """Completion-driven dispatch: ``on_complete`` fires inside the halting
    tile's step, while the loop is walking its active-list snapshot."""
    def setup(fabric):
        def relaunch(job, now):
            fabric.launch_job('next', straight_line(2), [1, 5])
        fabric.launch_job('a', straight_line(3), [1], on_complete=relaunch)
        fabric.launch_job('bystander', straight_line(12), [9])

    log = serve(setup)
    halt = 1 + MISS_PENALTY + 3  # three addi, then the halt
    assert (halt, 1) in log and (halt, 9) in log
    # core 1 sits before the bystander in the list and is relaunched at
    # `halt`; neither it nor core 5 (appended behind) steps again at `halt`
    for core in (1, 5):
        assert min(now for now, c in log if c == core and now > halt) == \
            halt + 1 + MISS_PENALTY


def test_a_loaded_program_steps_at_the_current_cycle_a_launched_job_after():
    """``load_program`` launches its job to step at the current cycle, so
    a kernel run's first fetch is at cycle 0; ``launch_job`` starts tiles
    one cycle on, as it must for a launch made mid-cycle."""
    def load(fabric):
        fabric.load_program(straight_line(3), active_cores=[0, 1])

    def job(fabric):
        fabric.launch_job('a', straight_line(3), [0, 1])

    for launch, start in ((load, 0), (job, 1)):
        log = serve(launch)
        for core in (0, 1):
            assert min(now for now, c in log if c == core) == \
                start + MISS_PENALTY
