"""A tiny structured assembler for the Rockcress mini-ISA.

The assembler plays the role of the paper's GCC + custom assembly pass
(Section 4.1): kernels are written against it directly, and the codegen layer
in :mod:`repro.kernels.codegen` layers strip-mining / DAE scheduling /
microthread extraction on top.

Example
-------
>>> a = Assembler()
>>> a.li('x5', 3)
>>> a.li('x6', 4)
>>> a.add('x7', 'x5', 'x6')
>>> a.halt()
>>> prog = a.finish()
>>> len(prog)
4
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Union

from . import opcodes as op
from .instruction import (Instr, VL_ALIGNED, VL_GROUP, VL_PREFIX, VL_SELF,
                          VL_SINGLE, VL_SUFFIX, parse_reg)

Reg = Union[str, int]


class Label:
    """A (possibly forward) reference to a program location."""

    __slots__ = ('name', 'pc')

    def __init__(self, name: str):
        self.name = name
        self.pc: Optional[int] = None

    def __repr__(self):
        return f'Label({self.name}@{self.pc})'


class Program:
    """A finished program: instruction list plus label map."""

    def __init__(self, instrs: List[Instr], labels: Dict[str, int]):
        from .decode import annotate_program
        self.instrs = instrs
        self.labels = labels
        annotate_program(instrs)
        #: set once repro.manycore.execute.bind_program has attached the
        #: instructions' ``run`` closures
        self.bound = False

    def __len__(self):
        return len(self.instrs)

    def __getitem__(self, pc):
        return self.instrs[pc]

    def entry(self, label: str) -> int:
        return self.labels[label]

    def listing(self) -> str:
        from .instruction import disasm
        by_pc = {}
        for name, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(name)
        lines = []
        for pc, inst in enumerate(self.instrs):
            for name in by_pc.get(pc, []):
                lines.append(f'{name}:')
            lines.append(f'  {pc:4d}  {disasm(inst)}')
        return '\n'.join(lines)


class Assembler:
    """Emit instructions one at a time; labels may be used before binding."""

    def __init__(self):
        self._instrs: List[Instr] = []
        self._labels: Dict[str, Label] = {}
        self._fixups: List[tuple] = []  # (instr_index, label)
        self._unique = 0

    # -- labels --------------------------------------------------------------
    def label(self, name: Optional[str] = None) -> Label:
        """Create (or fetch) a label object without binding it."""
        if name is None:
            self._unique += 1
            name = f'.L{self._unique}'
        lab = self._labels.get(name)
        if lab is None:
            lab = Label(name)
            self._labels[name] = lab
        return lab

    def bind(self, label: Union[Label, str]) -> Label:
        """Bind a label to the current position."""
        if isinstance(label, str):
            label = self.label(label)
        if label.pc is not None:
            raise ValueError(f'label {label.name} bound twice')
        label.pc = len(self._instrs)
        return label

    def here(self) -> int:
        return len(self._instrs)

    def _imm(self, target) -> Union[int, Label]:
        if isinstance(target, str):
            return self.label(target)
        return target

    def _emit(self, opcode, rd=0, rs1=0, rs2=0, imm=0, ex=None) -> Instr:
        if isinstance(imm, Label):
            inst = Instr(opcode, rd, rs1, rs2, 0, ex)
            self._fixups.append((len(self._instrs), imm))
        else:
            inst = Instr(opcode, rd, rs1, rs2, imm, ex)
        self._instrs.append(inst)
        return inst

    def finish(self) -> Program:
        """Resolve all label fixups and return the finished Program."""
        for idx, lab in self._fixups:
            if lab.pc is None:
                raise ValueError(f'unbound label {lab.name}')
            self._instrs[idx].imm = lab.pc
        labels = {name: lab.pc for name, lab in self._labels.items()
                  if lab.pc is not None}
        return Program(self._instrs, labels)

    # -- integer ALU -----------------------------------------------------------
    def _rrr(self, opcode, rd: Reg, rs1: Reg, rs2: Reg):
        self._emit(opcode, parse_reg(rd), parse_reg(rs1), parse_reg(rs2))

    def _rri(self, opcode, rd: Reg, rs1: Reg, imm: int):
        self._emit(opcode, parse_reg(rd), parse_reg(rs1), 0, imm)

    def add(self, rd, rs1, rs2):
        self._rrr(op.ADD, rd, rs1, rs2)

    def sub(self, rd, rs1, rs2):
        self._rrr(op.SUB, rd, rs1, rs2)

    def mul(self, rd, rs1, rs2):
        self._rrr(op.MUL, rd, rs1, rs2)

    def div(self, rd, rs1, rs2):
        self._rrr(op.DIV, rd, rs1, rs2)

    def rem(self, rd, rs1, rs2):
        self._rrr(op.REM, rd, rs1, rs2)

    def and_(self, rd, rs1, rs2):
        self._rrr(op.AND, rd, rs1, rs2)

    def or_(self, rd, rs1, rs2):
        self._rrr(op.OR, rd, rs1, rs2)

    def xor(self, rd, rs1, rs2):
        self._rrr(op.XOR, rd, rs1, rs2)

    def sll(self, rd, rs1, rs2):
        self._rrr(op.SLL, rd, rs1, rs2)

    def srl(self, rd, rs1, rs2):
        self._rrr(op.SRL, rd, rs1, rs2)

    def slt(self, rd, rs1, rs2):
        self._rrr(op.SLT, rd, rs1, rs2)

    def addi(self, rd, rs1, imm):
        self._rri(op.ADDI, rd, rs1, imm)

    def andi(self, rd, rs1, imm):
        self._rri(op.ANDI, rd, rs1, imm)

    def ori(self, rd, rs1, imm):
        self._rri(op.ORI, rd, rs1, imm)

    def xori(self, rd, rs1, imm):
        self._rri(op.XORI, rd, rs1, imm)

    def slli(self, rd, rs1, imm):
        self._rri(op.SLLI, rd, rs1, imm)

    def srli(self, rd, rs1, imm):
        self._rri(op.SRLI, rd, rs1, imm)

    def slti(self, rd, rs1, imm):
        self._rri(op.SLTI, rd, rs1, imm)

    def li(self, rd, imm):
        self._emit(op.LI, parse_reg(rd), 0, 0, imm)

    def mv(self, rd, rs1):
        self._emit(op.MV, parse_reg(rd), parse_reg(rs1))

    # -- floating point ---------------------------------------------------------
    def fadd(self, rd, rs1, rs2):
        self._rrr(op.FADD, rd, rs1, rs2)

    def fsub(self, rd, rs1, rs2):
        self._rrr(op.FSUB, rd, rs1, rs2)

    def fmul(self, rd, rs1, rs2):
        self._rrr(op.FMUL, rd, rs1, rs2)

    def fdiv(self, rd, rs1, rs2):
        self._rrr(op.FDIV, rd, rs1, rs2)

    def fsqrt(self, rd, rs1):
        self._emit(op.FSQRT, parse_reg(rd), parse_reg(rs1))

    def fmin(self, rd, rs1, rs2):
        self._rrr(op.FMIN, rd, rs1, rs2)

    def fmax(self, rd, rs1, rs2):
        self._rrr(op.FMAX, rd, rs1, rs2)

    def fma(self, rd, rs1, rs2):
        """rd += rs1 * rs2 (fused multiply-add, rd is both source and dest)."""
        self._rrr(op.FMA, rd, rs1, rs2)

    def fabs(self, rd, rs1):
        self._emit(op.FABS, parse_reg(rd), parse_reg(rs1))

    def fneg(self, rd, rs1):
        self._emit(op.FNEG, parse_reg(rd), parse_reg(rs1))

    def flt(self, rd, rs1, rs2):
        self._rrr(op.FLT, rd, rs1, rs2)

    def fle(self, rd, rs1, rs2):
        self._rrr(op.FLE, rd, rs1, rs2)

    def feq(self, rd, rs1, rs2):
        self._rrr(op.FEQ, rd, rs1, rs2)

    def fcvt_ws(self, rd, rs1):
        self._emit(op.FCVT_WS, parse_reg(rd), parse_reg(rs1))

    def fcvt_sw(self, rd, rs1):
        self._emit(op.FCVT_SW, parse_reg(rd), parse_reg(rs1))

    # -- memory -------------------------------------------------------------
    def lw(self, rd, rs1, imm=0):
        self._emit(op.LW, parse_reg(rd), parse_reg(rs1), 0, imm)

    def sw(self, rs2, rs1, imm=0):
        self._emit(op.SW, 0, parse_reg(rs1), parse_reg(rs2), imm)

    def lwsp(self, rd, rs1, imm=0):
        self._emit(op.LWSP, parse_reg(rd), parse_reg(rs1), 0, imm)

    def swsp(self, rs2, rs1, imm=0):
        self._emit(op.SWSP, 0, parse_reg(rs1), parse_reg(rs2), imm)

    def swrem(self, value, core, offset, imm=0):
        """Remote store: core[core].spad[offset + imm] <- value."""
        self._emit(op.SWREM, parse_reg(offset), parse_reg(value),
                   parse_reg(core), imm)

    # -- control ---------------------------------------------------------------
    def beq(self, rs1, rs2, target):
        self._emit(op.BEQ, 0, parse_reg(rs1), parse_reg(rs2),
                   self._imm(target))

    def bne(self, rs1, rs2, target):
        self._emit(op.BNE, 0, parse_reg(rs1), parse_reg(rs2),
                   self._imm(target))

    def blt(self, rs1, rs2, target):
        self._emit(op.BLT, 0, parse_reg(rs1), parse_reg(rs2),
                   self._imm(target))

    def bge(self, rs1, rs2, target):
        self._emit(op.BGE, 0, parse_reg(rs1), parse_reg(rs2),
                   self._imm(target))

    def j(self, target):
        self._emit(op.J, 0, 0, 0, self._imm(target))

    def jal(self, rd, target):
        self._emit(op.JAL, parse_reg(rd), 0, 0, self._imm(target))

    def jr(self, rs1):
        self._emit(op.JR, 0, parse_reg(rs1))

    # -- system ---------------------------------------------------------------
    def nop(self):
        self._emit(op.NOP)

    def halt(self):
        self._emit(op.HALT)

    def barrier(self):
        self._emit(op.BARRIER)

    def csrw(self, csr, rs1):
        self._emit(op.CSRW, 0, parse_reg(rs1), 0, csr)

    def csrr(self, rd, csr):
        self._emit(op.CSRR, parse_reg(rd), 0, 0, csr)

    # -- SDV extension --------------------------------------------------------
    def vconfig(self, rs1):
        """Enter vector mode; rs1 holds a group-descriptor handle."""
        self._emit(op.VCONFIG, 0, parse_reg(rs1))

    def devec(self, target):
        self._emit(op.DEVEC, 0, 0, 0, self._imm(target))

    def vissue(self, target):
        self._emit(op.VISSUE, 0, 0, 0, self._imm(target))

    def vend(self):
        self._emit(op.VEND)

    def vload(self, spad_off, addr, core_off=0, width=1, variant=VL_GROUP,
              part=VL_ALIGNED):
        """Wide vector load (paper Section 2.3.2).

        ``spad_off``/``addr`` are registers; ``core_off``/``width``/
        ``variant``/``part`` are immediates packed into ``Instr.ex``.
        """
        self._emit(op.VLOAD, 0, parse_reg(addr), parse_reg(spad_off),
                   ex=(core_off, width, variant, part, True))

    def frame_start(self, rd):
        self._emit(op.FRAME_START, parse_reg(rd))

    def remem(self):
        self._emit(op.REMEM)

    def pred_eq(self, rs1, rs2):
        self._emit(op.PRED_EQ, 0, parse_reg(rs1), parse_reg(rs2))

    def pred_neq(self, rs1, rs2):
        self._emit(op.PRED_NEQ, 0, parse_reg(rs1), parse_reg(rs2))

    # -- per-core SIMD (PCV) ----------------------------------------------------
    def vl4(self, vrd, rs1, imm=0):
        self._emit(op.VL4, parse_reg(vrd), parse_reg(rs1), 0, imm)

    def vs4(self, vrs, rs1, imm=0):
        self._emit(op.VS4, parse_reg(vrs), parse_reg(rs1), 0, imm)

    def vadd4(self, vrd, vrs1, vrs2):
        self._emit(op.VADD4, parse_reg(vrd), parse_reg(vrs1), parse_reg(vrs2))

    def vsub4(self, vrd, vrs1, vrs2):
        self._emit(op.VSUB4, parse_reg(vrd), parse_reg(vrs1), parse_reg(vrs2))

    def vmul4(self, vrd, vrs1, vrs2):
        self._emit(op.VMUL4, parse_reg(vrd), parse_reg(vrs1), parse_reg(vrs2))

    def vfma4(self, vrd, vrs1, vrs2):
        self._emit(op.VFMA4, parse_reg(vrd), parse_reg(vrs1), parse_reg(vrs2))

    def vbcast(self, vrd, rs1):
        self._emit(op.VBCAST, parse_reg(vrd), parse_reg(rs1))

    def vredsum4(self, rd, vrs1):
        self._emit(op.VREDSUM4, parse_reg(rd), parse_reg(vrs1))

    def vote_any(self, rd, rs1):
        """GPU-only warp vote: rd <- 1 if any active lane's rs1 != 0."""
        self._emit(op.VOTE_ANY, parse_reg(rd), parse_reg(rs1))

    # -- structured helpers -------------------------------------------------------
    @contextmanager
    def for_count(self, counter: Reg, n: int):
        """Execute the body exactly ``n`` times (``n`` >= 1, compile-time).

        Do-while style with a down-counter compared against x0 — two
        overhead instructions per iteration and no scratch register, for
        bodies that never read the counter.
        """
        if n < 1:
            raise ValueError('for_count requires a positive trip count')
        self.li(counter, n)
        top = self.label()
        self.bind(top)
        yield
        self.addi(counter, counter, -1)
        self.bne(counter, 'x0', top.name)

    @contextmanager
    def for_range(self, counter: Reg, start, stop, step: int = 1):
        """Emit a counted loop: ``for counter in range(start, stop, step)``.

        ``start`` may be an int (materialized with ``li``) or a register name
        prefixed with ``'@'`` meaning "already holds the start value".
        ``stop`` may be an int (materialized into a scratch register held in
        ``x31``) or a register name.
        """
        creg = parse_reg(counter)
        if isinstance(start, str) and start.startswith('@'):
            pass  # counter already initialized by caller
        elif isinstance(start, str):
            self.mv(counter, start)
        else:
            self.li(counter, start)
        top = self.label()
        end = self.label()
        self.bind(top)
        if isinstance(stop, int):
            # reloaded every iteration: loop bodies may clobber x31
            self.li('x31', stop)
            stop_reg = 'x31'
        else:
            stop_reg = stop
        self.bge(counter, stop_reg, end.name)
        yield
        self.addi(counter, counter, step)
        self.j(top.name)
        self.bind(end)


__all__ = ['Assembler', 'Program', 'Label', 'VL_SINGLE', 'VL_GROUP',
           'VL_SELF', 'VL_ALIGNED', 'VL_PREFIX', 'VL_SUFFIX']
