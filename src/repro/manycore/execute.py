"""The tile's datapath: one executor per opcode, bound once per program.

:mod:`repro.manycore.tile` is the *sequencer* — it decides when an
instruction may issue (hazards, frames, inet backpressure) and charges
stalls.  This module is the *datapath* — what an issued instruction does
to registers, scratchpad and memory.  ``EXECUTORS`` maps an opcode to a
builder; :func:`bind_program` calls each instruction's builder once and
stores the returned ``run(tile, now)`` closure on the instruction, with
``rd``/``rs1``/``rs2``/``imm``/``lat`` already bound.  The sequencer then
just calls ``inst.run(self, now)``.

Scalar-result and SIMD-result ops differ only in one expression, so their
builders are stamped from a source template *once per opcode, at import*
(the ``namedtuple`` technique); nothing is generated per instruction.
Writes to ``x0`` are discarded but the expression is still evaluated (a
division by zero still raises).

Opcodes without a tile executor — the sequencer-handled ones (control,
``halt``/``barrier``/``vconfig``/``vissue``/``devec``) and the GPU-only
ones — get a closure that raises :class:`SimError` *when executed*, so
programs containing them still bind.
"""

from __future__ import annotations

from operator import add, mul, sub

from ..core.wide_access import expand_vload
from ..isa import opcodes as op
from ..isa.assembler import Program
from .llc import KIND_LOAD, KIND_WIDE, MemRequest
from .tile import INF, SimError


def _div(a, b):
    return int(a / b) if b else -1


def _rem(a, b):
    a, b = int(a), int(b)
    return a - int(a / b) * b if b else a


#: ``rd <- expr`` at ``now + lat``, over ``regs``/``vregs`` and the bound
#: ``rd``/``rs1``/``rs2``/``imm``
_SCALAR_RESULT = {
    op.ADD: 'regs[rs1] + regs[rs2]',
    op.SUB: 'regs[rs1] - regs[rs2]',
    op.MUL: 'regs[rs1] * regs[rs2]',
    op.DIV: '_div(regs[rs1], regs[rs2])',
    op.REM: '_rem(regs[rs1], regs[rs2])',
    op.AND: 'int(regs[rs1]) & int(regs[rs2])',
    op.OR: 'int(regs[rs1]) | int(regs[rs2])',
    op.XOR: 'int(regs[rs1]) ^ int(regs[rs2])',
    op.SLL: 'int(regs[rs1]) << int(regs[rs2])',
    op.SRL: 'int(regs[rs1]) >> int(regs[rs2])',
    op.SLT: 'int(regs[rs1] < regs[rs2])',
    op.ADDI: 'regs[rs1] + imm',
    op.ANDI: 'int(regs[rs1]) & imm',
    op.ORI: 'int(regs[rs1]) | imm',
    op.XORI: 'int(regs[rs1]) ^ imm',
    op.SLLI: 'int(regs[rs1]) << imm',
    op.SRLI: 'int(regs[rs1]) >> imm',
    op.SLTI: 'int(regs[rs1] < imm)',
    op.LI: 'imm',
    op.MV: 'regs[rs1]',
    op.FADD: 'regs[rs1] + regs[rs2]',
    op.FSUB: 'regs[rs1] - regs[rs2]',
    op.FMUL: 'regs[rs1] * regs[rs2]',
    op.FDIV: 'regs[rs1] / regs[rs2]',
    op.FSQRT: 'regs[rs1] ** 0.5',
    op.FMIN: 'min(regs[rs1], regs[rs2])',
    op.FMAX: 'max(regs[rs1], regs[rs2])',
    op.FMA: 'regs[rd] + regs[rs1] * regs[rs2]',
    op.FABS: 'abs(regs[rs1])',
    op.FNEG: '-regs[rs1]',
    op.FLT: 'int(regs[rs1] < regs[rs2])',
    op.FLE: 'int(regs[rs1] <= regs[rs2])',
    op.FEQ: 'int(regs[rs1] == regs[rs2])',
    op.FCVT_WS: 'int(regs[rs1])',
    op.FCVT_SW: 'float(regs[rs1])',
    op.CSRR: 'tile._csr_read(imm)',
    op.VREDSUM4: 'sum(tile.vregs[rs1])',
}

#: ``vrd <- expr`` at ``now + lat``; the SIMD width is the operands' length
_SIMD_RESULT = {
    op.VADD4: 'list(map(add, vregs[rs1], vregs[rs2]))',
    op.VSUB4: 'list(map(sub, vregs[rs1], vregs[rs2]))',
    op.VMUL4: 'list(map(mul, vregs[rs1], vregs[rs2]))',
    op.VFMA4: 'list(map(add, vregs[rd], map(mul, vregs[rs1], vregs[rs2])))',
    op.VBCAST: '[tile.regs[rs1]] * tile.cfg.simd_width',
}

_SCALAR_TEMPLATE = '''
def build(inst):
    rd, rs1, rs2, imm, lat = inst.rd, inst.rs1, inst.rs2, inst.imm, inst.lat
    if rd:
        def run(tile, now):
            regs = tile.regs
            regs[rd] = {expr}
            tile._busy[rd] = now + lat
    else:
        def run(tile, now):
            regs = tile.regs
            {expr}
    return run
'''

_SIMD_TEMPLATE = '''
def build(inst):
    rd, rs1, rs2, lat = inst.rd, inst.rs1, inst.rs2, inst.lat
    def run(tile, now):
        vregs = tile.vregs
        vregs[rd] = {expr}
        tile._vbusy[rd] = now + lat
    return run
'''


def _stamp(template: str, opcode: int, expr: str):
    ns = {}
    exec(compile(template.format(expr=expr),
                 f'<repro.manycore.execute:{op.name(opcode)}>', 'exec'),
         globals(), ns)
    return ns['build']


EXECUTORS = {o: _stamp(_SCALAR_TEMPLATE, o, e)
             for o, e in _SCALAR_RESULT.items()}
EXECUTORS.update((o, _stamp(_SIMD_TEMPLATE, o, e))
                 for o, e in _SIMD_RESULT.items())


def _executor(*opcodes):
    def register(build):
        for o in opcodes:
            EXECUTORS[o] = build
        return build
    return register


# ---------------------------------------------------------------------- memory
@_executor(op.LW)
def _lw(inst):
    rd, rs1, imm = inst.rd, inst.rs1, inst.imm

    def run(tile, now):
        addr = int(tile.regs[rs1]) + imm
        tile.lq_count += 1
        if rd:
            tile._busy[rd] = INF
            tile._busy_load[rd] = True

        def on_data(value, at):
            tile.lq_count -= 1
            if rd:
                tile.regs[rd] = value
                tile._busy[rd] = at
                tile._busy_load[rd] = False
            tile.fabric.wake_tile(tile, at)

        tile.fabric.send_to_bank(
            MemRequest(KIND_LOAD, addr, 1, tile.core_id, on_data=on_data),
            now)
    return run


@_executor(op.SW)
def _sw(inst):
    rs1, rs2, imm = inst.rs1, inst.rs2, inst.imm

    def run(tile, now):
        regs = tile.regs
        tile.fabric.send_store(tile.core_id, int(regs[rs1]) + imm,
                               regs[rs2], now)
    return run


@_executor(op.LWSP)
def _lwsp(inst):
    rd, rs1, imm = inst.rd, inst.rs1, inst.imm

    def run(tile, now):
        value = tile.spad.read(int(tile.regs[rs1]) + imm)
        if rd:
            tile.regs[rd] = value
            tile._busy[rd] = now + tile.cfg.spad_hit_latency
    return run


@_executor(op.SWSP)
def _swsp(inst):
    rs1, rs2, imm = inst.rs1, inst.rs2, inst.imm

    def run(tile, now):
        regs = tile.regs
        tile.spad.write(int(regs[rs1]) + imm, regs[rs2])
    return run


@_executor(op.SWREM)
def _swrem(inst):
    rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm

    def run(tile, now):
        regs = tile.regs
        tile.fabric.send_remote_store(tile.core_id, int(regs[rs2]),
                                      int(regs[rd]) + imm, regs[rs1], now)
    return run


# ------------------------------------------------------------------------- SDV
@_executor(op.VLOAD)
def _vload(inst):
    rs1, rs2 = inst.rs1, inst.rs2
    core_off, width, variant, part, _ = inst.ex

    def run(tile, now):
        regs = tile.regs
        lanes = tile.group.lanes if tile.group is not None else []
        expansion = expand_vload(int(regs[rs1]), int(regs[rs2]), core_off,
                                 width, variant, part, lanes, tile.core_id,
                                 tile.cfg.line_words)
        tile.stats.vloads_issued += 1
        q = tile.probes.wide_issue
        if q is not None:
            q((now, tile.core_id, tile.job))
        if expansion is None:
            return
        start, chunks = expansion
        req = MemRequest(KIND_WIDE, start, sum(c[1] for c in chunks),
                         tile.core_id, chunks=chunks, is_frame=True)
        req.t_issue = now
        tile.fabric.send_to_bank(req, now)
    return run


@_executor(op.FRAME_START)
def _frame_start(inst):
    rd, lat = inst.rd, inst.lat

    def run(tile, now):
        fq = tile.spad.frames  # the sequencer saw the head frame ready
        q = tile.probes.frame_start
        if q is not None:
            q((now, tile.core_id, fq.head))
        if rd:
            tile.regs[rd] = fq.head_offset()
            tile._busy[rd] = now + lat
    return run


@_executor(op.REMEM)
def _remem(inst):
    def run(tile, now):
        fq = tile.spad.frames
        q = tile.probes.frame_free
        if q is not None:
            q((now, tile.core_id, fq.head))
        fq.free_head()
        tile.stats.frames_consumed += 1
    return run


@_executor(op.PRED_EQ)
def _pred_eq(inst):
    rs1, rs2 = inst.rs1, inst.rs2

    def run(tile, now):
        regs = tile.regs
        tile.pred = regs[rs1] == regs[rs2]
    return run


@_executor(op.PRED_NEQ)
def _pred_neq(inst):
    rs1, rs2 = inst.rs1, inst.rs2

    def run(tile, now):
        regs = tile.regs
        tile.pred = regs[rs1] != regs[rs2]
    return run


# ---------------------------------------------------------------------- system
def _no_effect(tile, now):
    pass


@_executor(op.NOP, op.VEND)  # vend matters only to the expander's sequencer
def _nop(inst):
    return _no_effect


@_executor(op.CSRW)
def _csrw(inst):
    rs1, imm = inst.rs1, inst.imm

    def run(tile, now):
        tile._csr_write(imm, tile.regs[rs1])
    return run


@_executor(op.PRINT)
def _print(inst):
    rs1 = inst.rs1

    def run(tile, now):
        print(f'[core {tile.core_id} @ {now}] r{rs1} = {tile.regs[rs1]}')
    return run


# -------------------------------------------------------- per-core SIMD memory
@_executor(op.VL4)
def _vl4(inst):
    rd, rs1, imm = inst.rd, inst.rs1, inst.imm

    def run(tile, now):
        cfg = tile.cfg
        tile.vregs[rd] = tile.spad.read_block(int(tile.regs[rs1]) + imm,
                                              cfg.simd_width)
        tile._vbusy[rd] = now + cfg.spad_hit_latency
    return run


@_executor(op.VS4)
def _vs4(inst):
    rd, rs1, imm = inst.rd, inst.rs1, inst.imm

    def run(tile, now):
        tile.spad.write_block(int(tile.regs[rs1]) + imm, tile.vregs[rd])
    return run


# --------------------------------------------------------------------- binding
def _unsupported(inst):
    name = op.name(inst.op)

    def run(tile, now):
        raise SimError(f'cannot execute {name} here '
                       f'(core {tile.core_id}, mode {tile.mode})')
    return run


def bind_program(program: Program) -> None:
    """Attach every instruction's ``run`` closure; once per ``Program``."""
    if not program.bound:
        for inst in program.instrs:
            inst.run = EXECUTORS.get(inst.op, _unsupported)(inst)
        program.bound = True
