"""Shared test fixtures and helpers."""

import pytest

from repro.isa import Assembler, opcodes as op
from repro.manycore import Fabric, small_config


#: suites whose every fabric runs under the invariant monitors
#: (tests/monitors.py): the 192-point golden sweep and serving/fleet
MONITORED = ('test_sim_golden', 'test_serve_', 'test_fleet')


@pytest.fixture(autouse=True)
def invariant_monitors(request, monkeypatch):
    """Attach ``Monitors`` to every ``Fabric`` a monitored suite builds
    (fleet shard workers fork, so they inherit the patch)."""
    if request.module.__name__.rpartition('.')[2].startswith(MONITORED):
        from tests.monitors import Monitors
        init = Fabric.__init__

        def monitored_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            Monitors().attach(self)

        monkeypatch.setattr(Fabric, '__init__', monitored_init)


def pack_frame_cfg(frame_size: int, num_slots: int) -> int:
    """Pack frame configuration as the FRAME_CFG CSR expects it."""
    return frame_size | (num_slots << 12)


@pytest.fixture
def small_fabric():
    """A 4x4 fabric with small caches, fresh per test."""
    return Fabric(small_config())


def run_single_core(asm_body, fabric=None, max_cycles=2_000_000):
    """Assemble a program where core 0 runs ``asm_body`` and others halt.

    ``asm_body`` receives the assembler positioned after the dispatch code.
    Returns ``(fabric, stats)``.
    """
    if fabric is None:
        fabric = Fabric(small_config())
    if not fabric.memory:
        fabric.alloc(64)  # scratch region at address 0 for simple tests
    a = Assembler()
    a.csrr('x1', op.CSR_COREID)
    a.beq('x1', 'x0', 'main')
    a.halt()
    a.bind('main')
    asm_body(a)
    a.halt()
    prog = a.finish()
    fabric.load_program(prog)
    stats = fabric.run(max_cycles=max_cycles)
    return fabric, stats
