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

NUM_VREGS = 8


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


def disasm(inst: Instr) -> str:
    """Render one instruction as assembly-ish text (for debugging/tests)."""
    row = op.ROWS[inst.op]
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2
    fields = {'rd': reg_name(rd), 'rs1': reg_name(rs1), 'rs2': reg_name(rs2),
              'vrd': f'v{rd}', 'vrs1': f'v{rs1}', 'vrs2': f'v{rs2}',
              'imm': inst.imm}
    if inst.ex is not None:  # vload's extended operands
        core_off, width, variant, _, _ = inst.ex
        fields.update(core_off=core_off, width=width,
                      variant=VARIANT_NAMES[variant])
    return f'{row.mnemonic} {row.fmt.text.format_map(fields)}'.rstrip()
