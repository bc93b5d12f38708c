"""Unit tests for the mini-ISA: assembler, labels, decode annotations.

``tests/data/isa_golden.json`` pins, for every opcode x four register
patterns, what the ISA layer says about the instruction: the six encoded
fields as the ``Assembler`` method emits them, the twelve static decode
fields, the ``LATENCY``/``MIX_FIELD`` entries, the four ``is_*``
predicates and the ``disasm`` text.  It was recorded at the commit before
``isa/opcodes.py`` became the one table all of these are derived from
(on a clean clone, with ``PYTHONPATH`` pointing at that clone's ``src``)
and is only ever regenerated on purpose:

    PYTHONPATH=src python tests/test_isa.py --regenerate
"""

import inspect
import json
import keyword
import os
import re
import sys

import pytest

from repro.isa import Assembler, Program, disasm, opcodes as op
from repro.isa.instruction import (Instr, VL_PREFIX, VL_SELF, parse_reg,
                                   reg_name)
from repro.manycore import Fabric, small_config

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), 'data',
                           'isa_golden.json')

#: the ``(rd, rs1, rs2)`` register numbers of the four probes
PATTERNS = {'distinct': (5, 6, 7), 'rd_x0': (0, 6, 7),
            'sources_x0': (5, 0, 0), 'all_equal': (5, 5, 5)}
#: which probe register an ``Assembler`` method parameter receives ...
_PARAM_SLOT = {'rd': 0, 'vrd': 0, 'vrs': 0, 'offset': 0,
               'rs1': 1, 'vrs1': 1, 'value': 1, 'addr': 1,
               'rs2': 2, 'vrs2': 2, 'core': 2, 'spad_off': 2}
#: ... or which immediate
_PARAM_IMM = {'imm': 11, 'target': 9, 'csr': 3, 'core_off': 2, 'width': 3,
              'variant': VL_SELF, 'part': VL_PREFIX}
DECODE_FIELDS = ('reads', 'writes', 'vreads', 'vwrites', 'deps', 'vdeps',
                 'lat', 'mix', 'seq', 'ctrl', 'pred_exempt', 'forwards')


def method_name(opcode: int) -> str:
    name = op.name(opcode)
    return name + '_' if keyword.iskeyword(name) else name


def probe(opcode: int, regs) -> Instr:
    """One decoded instruction, emitted through the ``Assembler`` method."""
    method = getattr(Assembler, method_name(opcode), None)
    if method is None:
        # only ``print`` at the recording commit, where nothing could
        # emit it: a raw one-source instruction
        return Program([Instr(opcode, 0, regs[1])], {}).instrs[0]
    a = Assembler()
    params = list(inspect.signature(method).parameters)[1:]
    method(a, *[regs[_PARAM_SLOT[p]] if p in _PARAM_SLOT else _PARAM_IMM[p]
                for p in params])
    return a.finish().instrs[0]


def isa_record() -> dict:
    doc = {}
    for o in sorted(op.NAMES):
        probes = {}
        for pattern, regs in PATTERNS.items():
            i = probe(o, regs)
            probes[pattern] = {
                'encoded': [i.op, i.rd, i.rs1, i.rs2, i.imm, i.ex],
                'decode': [getattr(i, f) for f in DECODE_FIELDS],
                'disasm': disasm(i)}
        doc[op.name(o)] = {
            'latency': op.LATENCY.get(o), 'mix_field': op.MIX_FIELD.get(o),
            'is_branch': op.is_branch(o), 'is_control': op.is_control(o),
            'is_pred_exempt': op.is_pred_exempt(o),
            'is_gpu_only': op.is_gpu_only(o), 'probes': probes}
    return json.loads(json.dumps(doc))  # tuples -> lists, as on disk


class TestRegisters:
    def test_parse_int_regs(self):
        assert parse_reg('x0') == 0
        assert parse_reg('x31') == 31

    def test_parse_fp_regs(self):
        assert parse_reg('f0') == 32
        assert parse_reg('f31') == 63

    def test_parse_simd_regs(self):
        assert parse_reg('v0') == 0
        assert parse_reg('v7') == 7

    def test_parse_passthrough_int(self):
        assert parse_reg(17) == 17

    def test_bad_register_rejected(self):
        with pytest.raises(ValueError):
            parse_reg('x32')
        with pytest.raises(ValueError):
            parse_reg('v8')
        with pytest.raises(ValueError):
            parse_reg('q1')

    def test_reg_name_roundtrip(self):
        for name in ['x0', 'x5', 'x31', 'f0', 'f17', 'f31']:
            assert reg_name(parse_reg(name)) == name


class TestAssembler:
    def test_simple_program_length(self):
        a = Assembler()
        a.li('x5', 3)
        a.add('x6', 'x5', 'x5')
        a.halt()
        prog = a.finish()
        assert len(prog) == 3

    def test_forward_label_resolution(self):
        a = Assembler()
        a.j('end')
        a.nop()
        a.bind('end')
        a.halt()
        prog = a.finish()
        assert prog.instrs[0].imm == 2

    def test_backward_label_resolution(self):
        a = Assembler()
        a.bind('top')
        a.nop()
        a.j('top')
        prog = a.finish()
        assert prog.instrs[1].imm == 0

    def test_unbound_label_raises(self):
        a = Assembler()
        a.j('nowhere')
        with pytest.raises(ValueError, match='unbound'):
            a.finish()

    def test_double_bind_raises(self):
        a = Assembler()
        a.bind('x')
        with pytest.raises(ValueError, match='twice'):
            a.bind('x')

    def test_entry_lookup(self):
        a = Assembler()
        a.nop()
        a.bind('kernel')
        a.halt()
        prog = a.finish()
        assert prog.entry('kernel') == 1

    def test_anonymous_labels_unique(self):
        a = Assembler()
        l1 = a.label()
        l2 = a.label()
        assert l1.name != l2.name

    def test_listing_contains_labels(self):
        a = Assembler()
        a.bind('main')
        a.li('x1', 7)
        a.halt()
        listing = a.finish().listing()
        assert 'main:' in listing
        assert 'li x1, 7' in listing


class TestDecode:
    def _one(self, emit):
        a = Assembler()
        emit(a)
        return a.finish().instrs[0]

    def test_rrr_reads_writes(self):
        i = self._one(lambda a: a.add('x3', 'x1', 'x2'))
        assert set(i.reads) == {1, 2}
        assert i.writes == (3,)

    def test_x0_excluded_from_tracking(self):
        i = self._one(lambda a: a.add('x0', 'x0', 'x1'))
        assert i.reads == (1,)
        assert i.writes == ()

    def test_fma_reads_dest(self):
        i = self._one(lambda a: a.fma('f1', 'f2', 'f3'))
        assert parse_reg('f1') in i.reads
        assert i.writes == (parse_reg('f1'),)

    def test_store_reads_both(self):
        i = self._one(lambda a: a.sw('x2', 'x1', 4))
        assert set(i.reads) == {1, 2}
        assert i.writes == ()

    def test_load_writes_dest(self):
        i = self._one(lambda a: a.lw('x5', 'x6', 0))
        assert i.reads == (6,)
        assert i.writes == (5,)

    def test_simd_vreg_tracking(self):
        i = self._one(lambda a: a.vfma4('v1', 'v2', 'v3'))
        assert set(i.vreads) == {1, 2, 3}
        assert i.vwrites == (1,)

    def test_vredsum_crosses_files(self):
        i = self._one(lambda a: a.vredsum4('x4', 'v2'))
        assert i.vreads == (2,)
        assert i.writes == (4,)

    def test_branch_reads_no_writes(self):
        i = self._one(lambda a: a.bne('x1', 'x2', 0))
        assert set(i.reads) == {1, 2}
        assert i.writes == ()

    def test_frame_start_writes(self):
        i = self._one(lambda a: a.frame_start('x8'))
        assert i.writes == (8,)


class TestDisasm:
    def test_various_formats_do_not_crash(self):
        a = Assembler()
        a.li('x1', 5)
        a.add('x2', 'x1', 'x1')
        a.fma('f1', 'f2', 'f3')
        a.lw('x3', 'x2', 8)
        a.sw('x3', 'x2', 8)
        a.beq('x1', 'x2', 0)
        a.vload('x4', 'x5', 0, 4, 1)
        a.frame_start('x8')
        a.remem()
        a.vissue(0)
        a.vend()
        a.pred_eq('x1', 'x2')
        a.vfma4('v1', 'v2', 'v3')
        a.csrr('x9', op.CSR_TID)
        a.halt()
        for inst in a.finish().instrs:
            text = disasm(inst)
            assert isinstance(text, str) and text

    def test_opcode_names_unique(self):
        assert op.name(op.ADD) == 'add'
        assert op.name(op.VLOAD) == 'vload'
        assert op.name(op.FRAME_START) == 'frame_start'

    @pytest.mark.parametrize('opcode', sorted(op.NAMES), ids=op.name)
    def test_text_names_exactly_the_slots_the_format_fills(self, opcode):
        """No phantom operand, no hidden one: a slot's (distinctive) value
        is in the text iff an assembler argument lands in that slot."""
        ex = (3, 4, VL_SELF, VL_PREFIX, True) if opcode == op.VLOAD else None
        text = disasm(Instr(opcode, rd=21, rs1=22, rs2=23, imm=77, ex=ex))
        filled = {'imm' if slot == 'label' else slot
                  for _, slot, _ in op.ROWS[opcode].fmt.params()}
        shown = {slot for slot, value in (('rd', '21'), ('rs1', '22'),
                                          ('rs2', '23'), ('imm', '77'))
                 if value in text}
        assert shown == filled, text
        assert text.split()[0] == op.name(opcode)
        if ex:
            assert text.endswith('off=3, w=4, self')

    def test_blocked_on_devec_shows_the_resume_pc(self):
        """The deadlock dump's "blocked-on" text is ``disasm``'s."""
        a = Assembler()
        a.devec('resume')
        a.nop()
        a.bind('resume')
        a.halt()
        fabric = Fabric(small_config())
        fabric.load_program(a.finish())
        assert fabric.tiles[0].blocked_instruction() == 'pc=0 <devec @2>'


#: What ``disasm`` printed at the recording commit was wrong for ten
#: opcodes: every format without its own arm fell through to
#: ``rd, rs1, rs2``.  Per opcode, the four probes' texts now (in
#: ``PATTERNS`` order); everything else in the golden file holds with ==.
#: (A regenerated file records these texts itself: empty this dict then.)
DISASM_FIXED = {
    # 'nop x0, x0, x0' etc.: no operands at all
    'nop': ['nop'] * 4,
    'halt': ['halt'] * 4,
    'barrier': ['barrier'] * 4,
    'vend': ['vend'] * 4,
    'remem': ['remem'] * 4,
    # 'devec x0, x0, x0' hid the resume PC
    'devec': ['devec @9'] * 4,
    # 'vconfig x0, x6, x0' / 'print x0, x6, x0': one source register
    'vconfig': ['vconfig x6', 'vconfig x6', 'vconfig x0', 'vconfig x5'],
    'print': ['print x6', 'print x6', 'print x0', 'print x5'],
    # 'fsqrt x5, x6, x0' / 'vote_any x5, x6, x0': no second source
    'fsqrt': ['fsqrt x5, x6', 'fsqrt x0, x6', 'fsqrt x5, x0',
              'fsqrt x5, x5'],
    'vote_any': ['vote_any x5, x6', 'vote_any x0, x6', 'vote_any x5, x0',
                 'vote_any x5, x5'],
}


class TestIsaGolden:
    def test_every_field_equals_the_recording(self):
        with open(GOLDEN_PATH) as f:
            want = json.load(f)
        for name, texts in DISASM_FIXED.items():
            for pattern, text in zip(PATTERNS, texts):
                was = want[name]['probes'][pattern]['disasm']
                assert was != text and was.startswith(name + ' x'), was
                want[name]['probes'][pattern]['disasm'] = text
        got = isa_record()
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name


class TestOneTable:
    """``opcodes.ROWS``/``FORMATS`` are the one statement of the ISA."""

    def test_one_row_per_opcode(self):
        rows = list(op.ROWS.values())
        assert len(rows) == 71
        assert len({r.number for r in rows}) == len(rows)
        assert len({r.mnemonic for r in rows}) == len(rows)
        for number, row in op.ROWS.items():
            assert row.number == number
            # the statically visible module constant is this row
            assert getattr(op, row.mnemonic.upper()) == number
        consts = {k for k, v in vars(op).items() if k.isupper()
                  and isinstance(v, int) and not k.startswith(('CSR_',
                                                               'SEQ_'))}
        assert consts == {r.mnemonic.upper() for r in rows}

    def test_formats_and_rows_name_each_other(self):
        used = {id(r.fmt) for r in op.ROWS.values()}
        declared = {id(f) for f in op.FORMATS.values()}
        assert used == declared
        assert len(op.FORMATS) == 24

    def test_methods_take_the_formats_arguments_in_order(self):
        for o, row in op.ROWS.items():
            params = inspect.signature(
                getattr(Assembler, method_name(o))).parameters
            want = row.fmt.params()
            if o == op.VLOAD:  # hand-written: the format's two registers,
                # then the immediates that travel in ``Instr.ex``
                assert list(params)[3:] == ['core_off', 'width', 'variant',
                                            'part']
                params = dict(list(params.items())[:3])
            assert list(params)[1:] == [p for p, _, _ in want], row.mnemonic
            for param, _, default in want:
                assert params[param].default == (
                    int(default) if default else inspect.Parameter.empty)

    def test_assembler_defines_only_plumbing_by_hand(self):
        """A mnemonic written by hand would be a second copy of its row."""
        by_hand = {name for name, f in vars(Assembler).items()
                   if inspect.isfunction(f) and not name.startswith('_')
                   and inspect.unwrap(f).__code__.co_filename.endswith(
                       'assembler.py')}
        assert by_hand == {'label', 'bind', 'here', 'finish', 'vload',
                           'for_count', 'for_range'}

    def test_docs_name_every_mnemonic_and_format(self):
        path = os.path.join(os.path.dirname(__file__), '..', 'docs',
                            'isa.md')
        with open(path) as f:
            text = f.read()
        words = set(re.findall(r'\w+', text))
        for row in op.ROWS.values():
            assert row.mnemonic in words, row.mnemonic
        # the operand-format table: one line per format, stating its
        # assembler arguments verbatim and listing exactly its opcodes
        table = {cells[1].strip('` '): cells for cells in
                 (line.split('|') for line in text.splitlines()
                  if line.startswith('| `'))}
        for name, fmt in op.FORMATS.items():
            cells = table[name]
            assert fmt.args == '' or f'`{fmt.args}`' in cells[2], name
            assert sorted(cells[-2].strip('` ').split()) == sorted(
                r.mnemonic for r in op.ROWS.values() if r.fmt is fmt), name


class TestForRange:
    def test_emits_loop_structure(self):
        a = Assembler()
        with a.for_range('x5', 0, 10):
            a.addi('x6', 'x6', 1)
        a.halt()
        prog = a.finish()
        ops = [i.op for i in prog.instrs]
        assert op.BGE in ops
        assert op.J in ops


if __name__ == '__main__':
    if sys.argv[1:] != ['--regenerate']:
        sys.exit(__doc__)
    rows = [f' {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}'
            for name, entry in sorted(isa_record().items())]
    with open(GOLDEN_PATH, 'w') as f:  # one line per opcode
        f.write('{\n' + ',\n'.join(rows) + '\n}\n')
    print(f'wrote {GOLDEN_PATH}')
