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

import keyword
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
    """Emit instructions one at a time; labels may be used before binding.

    There is one method per mnemonic (``a.add('x7', 'x5', 'x6')``,
    ``a.lw('f1', 'x5', imm=4)``, ``a.and_``/``a.or_`` for the keywords),
    taking the arguments its operand format lists in
    :mod:`repro.isa.opcodes`; they are stamped at the bottom of this module.
    """

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

    def vload(self, spad_off, addr, core_off=0, width=1, variant=VL_GROUP,
              part=VL_ALIGNED):
        """Wide vector load (paper Section 2.3.2).

        ``spad_off``/``addr`` are registers; ``core_off``/``width``/
        ``variant``/``part`` are immediates packed into ``Instr.ex``.
        """
        self._emit(op.VLOAD, 0, parse_reg(addr), parse_reg(spad_off),
                   ex=(core_off, width, variant, part, True))

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
    def for_range(self, counter: Reg, start, stop):
        """Emit a counted loop: ``for counter in range(start, stop)``.

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
        self.addi(counter, counter, 1)
        self.j(top.name)
        self.bind(end)


# -- mnemonic methods ---------------------------------------------------------
# One per opcode row, stamped from its operand format once at import (the
# ``namedtuple`` technique); nothing is generated per instruction.
_METHOD = '''
def {name}({params}):
    """Emit ``{syntax}``."""
    self._emit({number}, {rd}, {rs1}, {rs2}, {imm})
'''


def _stamp(row: op.Op):
    name = row.mnemonic + '_' * keyword.iskeyword(row.mnemonic)
    slots = dict(rd='0', rs1='0', rs2='0', imm='0')
    params = ['self']
    for param, slot, default in row.fmt.params():
        params.append(f'{param}={default}' if default else param)
        if slot == 'label':
            slots['imm'] = f'self._imm({param})'
        else:
            slots[slot] = param if slot == 'imm' else f'parse_reg({param})'
    ns = {}
    exec(compile(_METHOD.format(
        name=name, params=', '.join(params), number=row.number,
        syntax=f'{row.mnemonic} {row.fmt.text}'.rstrip(), **slots),
        f'<repro.isa.assembler:{name}>', 'exec'), globals(), ns)
    ns[name].__qualname__ = f'Assembler.{name}'
    setattr(Assembler, name, ns[name])


for _row in op.ROWS.values():
    if _row.fmt is not op.WIDE_LOAD:  # vload is written by hand, above
        _stamp(_row)


__all__ = ['Assembler', 'Program', 'Label', 'VL_SINGLE', 'VL_GROUP',
           'VL_SELF', 'VL_ALIGNED', 'VL_PREFIX', 'VL_SUFFIX']
