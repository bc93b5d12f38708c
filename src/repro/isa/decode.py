"""Static decode: everything the tile's sequencer asks about an instruction.

In the paper only the expander has a live frontend; vector cores execute
*already decoded* instructions popped from the inet.  We decode once per
program (at ``Program`` construction via :func:`annotate_program`), so
that the per-cycle issue path reads plain attributes and never looks at
an opcode table:

* ``reads``/``writes``/``vreads``/``vwrites`` — scalar and SIMD register
  sets (``x0`` dropped); ``deps``/``vdeps`` are the same sets merged in
  scoreboard-check order (sources, then destinations);
* ``lat``  — issue-to-writeback latency (the row's ``lat``, default 1);
* ``mix``  — the ``CoreStats`` instruction-mix field the opcode counts
  under (feeds the energy model);
* ``seq``  — what the sequencer must do beyond the scoreboard check
  (one of the ``SEQ_*`` classes, re-exported here);
* ``ctrl``, ``pred_exempt``, ``forwards`` — branch/jump; executes with
  the predication flag clear; the expander sends it down the inet.

Everything but the register numbers is a property of the opcode, so it is
looked up in a per-opcode tuple built at import from the rows and formats
of :mod:`repro.isa.opcodes`; the register sets pick the format's slots out
of the instruction.  The datapath half (the ``run`` closure) is bound
later, by ``repro.manycore.execute.bind_program``.
"""

from __future__ import annotations

from .instruction import Instr
from .opcodes import (ROWS, SEQ_CONTROL, SEQ_FRAME, SEQ_LOAD,  # noqa: F401
                      SEQ_SEND, Op)

_SLOT = {'rd': 0, 'rs1': 1, 'rs2': 2}  # index into (rd, rs1, rs2)


def _static(row: Op) -> tuple:
    fmt, ctrl = row.fmt, row.seq == SEQ_CONTROL
    return (*[tuple(_SLOT[s] for s in slots.split()) for slots in
              (fmt.reads, fmt.writes, fmt.vreads, fmt.vwrites)],
            row.lat or 1, row.mix or 'n_int_alu', row.seq, ctrl,
            row.pred_exempt, row.forwards and not ctrl)


_STATIC = {o: _static(row) for o, row in ROWS.items()}


def annotate(inst: Instr) -> None:
    """Attach the static decode fields (module docstring) to ``inst``."""
    (reads, writes, vreads, vwrites, inst.lat, inst.mix, inst.seq, inst.ctrl,
     inst.pred_exempt, inst.forwards) = _STATIC[inst.op]
    regs = (inst.rd, inst.rs1, inst.rs2)
    # x0 (register 0) is never tracked: it reads 0 and drops writes
    inst.reads = reads = tuple([regs[s] for s in reads if regs[s]])
    inst.writes = writes = tuple([regs[s] for s in writes if regs[s]])
    inst.vreads = vreads = tuple([regs[s] for s in vreads])
    inst.vwrites = vwrites = tuple([regs[s] for s in vwrites])
    inst.deps = reads + writes
    inst.vdeps = vreads + vwrites


def annotate_program(instrs) -> None:
    for inst in instrs:
        annotate(inst)
