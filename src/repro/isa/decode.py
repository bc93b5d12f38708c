"""Static decode: everything the tile's sequencer asks about an instruction.

In the paper only the expander has a live frontend; vector cores execute
*already decoded* instructions popped from the inet.  We decode once per
program (at ``Program`` construction via :func:`annotate_program`), so
that the per-cycle issue path reads plain attributes and never looks at
an opcode table:

* ``reads``/``writes``/``vreads``/``vwrites`` — scalar and SIMD register
  sets (``x0`` dropped); ``deps``/``vdeps`` are the same sets merged in
  scoreboard-check order (sources, then destinations);
* ``lat``  — issue-to-writeback latency (``opcodes.LATENCY``, default 1);
* ``mix``  — the ``CoreStats`` instruction-mix field the opcode counts
  under (feeds the energy model);
* ``seq``  — what the sequencer must do beyond the scoreboard check
  (one of the ``SEQ_*`` classes below);
* ``ctrl``, ``pred_exempt``, ``forwards`` — branch/jump; executes with
  the predication flag clear; the expander sends it down the inet.

The datapath half (the ``run`` closure) is bound later, by
``repro.manycore.execute.bind_program``.
"""

from __future__ import annotations

from . import opcodes as op
from .instruction import Instr, X0

_EMPTY = ()

# Sequencer classes, ordered so that ``seq > SEQ_FRAME`` means "executed
# by the sequencer itself, never by a ``run`` closure".
SEQ_PLAIN = 0  # scoreboard check, then the datapath
SEQ_LOAD = 1  # also needs a free load-queue entry (frontend modes)
SEQ_FRAME = 2  # also needs the head frame ready (frame_start)
SEQ_SEND = 3  # vissue/devec: needs room in the successor's inet queue
SEQ_SYSTEM = 4  # halt/barrier/vconfig: changes the tile's run state
SEQ_CONTROL = 5  # branches and jumps

_SEQ = {op.LW: SEQ_LOAD, op.FRAME_START: SEQ_FRAME,
        op.VISSUE: SEQ_SEND, op.DEVEC: SEQ_SEND,
        op.HALT: SEQ_SYSTEM, op.BARRIER: SEQ_SYSTEM, op.VCONFIG: SEQ_SYSTEM}
_SEQ.update((o, SEQ_CONTROL) for o in op.NAMES if op.is_control(o))


def annotate(inst: Instr) -> None:
    """Attach the static decode fields (module docstring) to ``inst``."""
    o = inst.op
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2
    reads = _EMPTY
    writes = _EMPTY
    vreads = _EMPTY
    vwrites = _EMPTY

    if o in (op.ADD, op.SUB, op.MUL, op.DIV, op.REM, op.AND, op.OR, op.XOR,
             op.SLL, op.SRL, op.SLT, op.FADD, op.FSUB, op.FMUL, op.FDIV,
             op.FMIN, op.FMAX, op.FLT, op.FLE, op.FEQ):
        reads, writes = (rs1, rs2), (rd,)
    elif o in (op.ADDI, op.ANDI, op.ORI, op.XORI, op.SLLI, op.SRLI, op.SLTI):
        reads, writes = (rs1,), (rd,)
    elif o == op.LI:
        writes = (rd,)
    elif o in (op.MV, op.FABS, op.FNEG, op.FSQRT, op.FCVT_WS, op.FCVT_SW):
        reads, writes = (rs1,), (rd,)
    elif o == op.FMA:
        reads, writes = (rs1, rs2, rd), (rd,)
    elif o in (op.LW, op.LWSP):
        reads, writes = (rs1,), (rd,)
    elif o in (op.SW, op.SWSP):
        reads = (rs1, rs2)
    elif o == op.SWREM:
        reads = (rd, rs1, rs2)
    elif o in (op.BEQ, op.BNE, op.BLT, op.BGE, op.PRED_EQ, op.PRED_NEQ):
        reads = (rs1, rs2)
    elif o == op.JAL:
        writes = (rd,)
    elif o == op.JR:
        reads = (rs1,)
    elif o in (op.CSRW, op.VCONFIG):
        reads = (rs1,)
    elif o == op.CSRR:
        writes = (rd,)
    elif o == op.VLOAD:
        reads = (rs1, rs2)
    elif o == op.FRAME_START:
        writes = (rd,)
    elif o == op.PRINT:
        reads = (rs1,)
    elif o == op.VL4:
        reads, vwrites = (rs1,), (rd,)
    elif o == op.VS4:
        reads, vreads = (rs1,), (rd,)
    elif o in (op.VADD4, op.VSUB4, op.VMUL4):
        vreads, vwrites = (rs1, rs2), (rd,)
    elif o == op.VFMA4:
        vreads, vwrites = (rs1, rs2, rd), (rd,)
    elif o == op.VBCAST:
        reads, vwrites = (rs1,), (rd,)
    elif o == op.VREDSUM4:
        vreads, writes = (rs1,), (rd,)
    elif o == op.VOTE_ANY:
        reads, writes = (rs1,), (rd,)
    # J, NOP, HALT, BARRIER, DEVEC, VISSUE, VEND, REMEM: no registers

    inst.reads = tuple(r for r in reads if r != X0)
    inst.writes = tuple(w for w in writes if w != X0)
    inst.vreads = vreads
    inst.vwrites = vwrites
    inst.deps = inst.reads + inst.writes
    inst.vdeps = vreads + vwrites
    inst.lat = op.LATENCY.get(o, 1)
    inst.mix = op.MIX_FIELD.get(o, 'n_int_alu')
    inst.seq = _SEQ.get(o, SEQ_PLAIN)
    inst.ctrl = op.is_control(o)
    inst.pred_exempt = op.is_pred_exempt(o)
    inst.forwards = not inst.ctrl and o != op.VEND


def annotate_program(instrs) -> None:
    for inst in instrs:
        annotate(inst)
