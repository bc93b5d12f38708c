"""Instruction and register-name definitions for the mini-ISA.

Registers
---------
One flat architectural file of 64 registers per core:

* ``x0``–``x31`` — integer registers, index 0–31.  ``x0`` is hardwired zero.
* ``f0``–``f31`` — floating-point registers, index 32–63.

SIMD (PCV) registers are a separate small file ``v0``–``v7``, each holding
``simd_width`` lanes.

The assembler accepts register *names* (strings); instructions store plain
integer indices so that the simulator's hot path never touches strings.
"""

from __future__ import annotations

from . import opcodes as op

NUM_REGS = 64
NUM_VREGS = 8

X0 = 0


def xreg(n: int) -> int:
    """Index of integer register ``xN``."""
    if not 0 <= n < 32:
        raise ValueError(f'no such integer register x{n}')
    return n


def freg(n: int) -> int:
    """Index of floating-point register ``fN``."""
    if not 0 <= n < 32:
        raise ValueError(f'no such fp register f{n}')
    return 32 + n


def parse_reg(name) -> int:
    """Convert a register name ('x5', 'f2', 'v3') or raw index to an index."""
    if isinstance(name, int):
        return name
    if name.startswith('x'):
        return xreg(int(name[1:]))
    if name.startswith('f'):
        return freg(int(name[1:]))
    if name.startswith('v'):
        n = int(name[1:])
        if not 0 <= n < NUM_VREGS:
            raise ValueError(f'no such SIMD register {name}')
        return n
    raise ValueError(f'unknown register {name!r}')


def reg_name(idx: int) -> str:
    return f'x{idx}' if idx < 32 else f'f{idx - 32}'


# vload variants (paper Section 2.3.2) ---------------------------------------
VL_SINGLE = 0  # all words of the line segment go to one vector core
VL_GROUP = 1  # consecutive chunks scatter across the vector group
VL_SELF = 2  # all data returns to the requesting core's own scratchpad

# vload alignment parts for the unaligned-pair scheme
VL_ALIGNED = 0
VL_PREFIX = 1  # first instruction of an unaligned pair (suffix of line A)
VL_SUFFIX = 2  # second instruction (prefix of line B)

VARIANT_NAMES = {VL_SINGLE: 'single', VL_GROUP: 'group', VL_SELF: 'self'}


class Instr:
    """A decoded instruction.

    Fields mirror a generic three-operand RISC encoding; ``ex`` carries the
    extended operand tuple used by ``vload``:
    ``(core_off, width, variant, part, spad_off_is_reg)``.  The second
    row of slots is the static decode (:mod:`repro.isa.decode`, filled at
    ``Program`` construction); ``run`` is the datapath closure bound by
    :func:`repro.manycore.execute.bind_program`.
    """

    __slots__ = ('op', 'rd', 'rs1', 'rs2', 'imm', 'ex',
                 'reads', 'writes', 'vreads', 'vwrites', 'deps', 'vdeps',
                 'lat', 'mix', 'seq', 'ctrl', 'pred_exempt', 'forwards',
                 'run')

    def __init__(self, opcode: int, rd: int = 0, rs1: int = 0, rs2: int = 0,
                 imm=0, ex=None):
        self.op = opcode
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.ex = ex

    def __repr__(self):
        return f'<{disasm(self)}>'

    def is_control(self) -> bool:
        return op.is_control(self.op)


def disasm(inst: Instr) -> str:
    """Render one instruction as assembly-ish text (for debugging/tests)."""
    o = inst.op
    n = op.name(o)
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2
    r = reg_name
    if o in (op.LI,):
        return f'{n} {r(rd)}, {inst.imm}'
    if o in (op.MV, op.FABS, op.FNEG, op.FCVT_WS, op.FCVT_SW):
        return f'{n} {r(rd)}, {r(rs1)}'
    if o in (op.ADDI, op.ANDI, op.ORI, op.XORI, op.SLLI, op.SRLI, op.SLTI):
        return f'{n} {r(rd)}, {r(rs1)}, {inst.imm}'
    if o in (op.LW, op.LWSP):
        return f'{n} {r(rd)}, {inst.imm}({r(rs1)})'
    if o in (op.SW, op.SWSP):
        return f'{n} {r(rs2)}, {inst.imm}({r(rs1)})'
    if o == op.SWREM:
        return f'{n} {r(rs1)} -> core[{r(rs2)}].spad[{r(rd)}+{inst.imm}]'
    if op.is_branch(o):
        return f'{n} {r(rs1)}, {r(rs2)}, @{inst.imm}'
    if o == op.J:
        return f'{n} @{inst.imm}'
    if o == op.JAL:
        return f'{n} {r(rd)}, @{inst.imm}'
    if o == op.JR:
        return f'{n} {r(rs1)}'
    if o == op.VISSUE:
        return f'{n} @{inst.imm}'
    if o == op.VLOAD:
        core_off, width, variant, part, _ = inst.ex
        return (f'{n} spad[{r(rs2)}], mem[{r(rs1)}], off={core_off}, '
                f'w={width}, {VARIANT_NAMES[variant]}')
    if o == op.FRAME_START:
        return f'{n} {r(rd)}'
    if o in (op.CSRW,):
        return f'{n} csr{inst.imm}, {r(rs1)}'
    if o in (op.CSRR,):
        return f'{n} {r(rd)}, csr{inst.imm}'
    if o in (op.PRED_EQ, op.PRED_NEQ):
        return f'{n} {r(rs1)}, {r(rs2)}'
    if o in (op.VL4,):
        return f'{n} v{rd}, {inst.imm}({r(rs1)})'
    if o in (op.VS4,):
        return f'{n} v{rd}, {inst.imm}({r(rs1)})'
    if o in (op.VADD4, op.VSUB4, op.VMUL4, op.VFMA4):
        return f'{n} v{rd}, v{rs1}, v{rs2}'
    if o == op.VBCAST:
        return f'{n} v{rd}, {r(rs1)}'
    if o == op.VREDSUM4:
        return f'{n} {r(rd)}, v{rs1}'
    if o == op.FMA:
        return f'{n} {r(rd)}, {r(rs1)}, {r(rs2)}'
    return f'{n} {r(rd)}, {r(rs1)}, {r(rs2)}'
