"""Differential testing: random programs vs a direct Python evaluation.

Hypothesis generates random straight-line arithmetic programs; the
simulator's architectural result must match a simple Python interpretation
of the same instructions.  This guards the ALU semantics (every opcode in
``repro.manycore.execute``'s table has a row here), the scoreboard
(results must not depend on latencies), and writeback ordering.
"""

import math
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.isa import Assembler, Program, opcodes as op
from repro.isa.decode import SEQ_FRAME
from repro.isa.instruction import Instr
from repro.manycore import Fabric, SimError, small_config
from repro.manycore.execute import EXECUTORS, bind_program

XREGS = [f'x{i}' for i in range(5, 12)]
SHAMT = 'x12'  # holds a small non-negative shift amount; never written
FREGS = [f'f{i}' for i in range(1, 9)]

# (mnemonic, destination file, source operands, reference lambda).  Source
# operand codes: x/f a register of that file, h the shift-amount register,
# i an immediate, k a shift immediate, d the destination's old value.
INT_OPS = [
    ('add', 'x', 'xx', lambda a, b: a + b),
    ('sub', 'x', 'xx', lambda a, b: a - b),
    ('mul', 'x', 'xx', lambda a, b: a * b),
    ('div', 'x', 'xx', lambda a, b: int(a / b) if b else -1),
    ('rem', 'x', 'xx', lambda a, b: a - int(a / b) * b if b else a),
    ('and_', 'x', 'xx', lambda a, b: a & b),
    ('or_', 'x', 'xx', lambda a, b: a | b),
    ('xor', 'x', 'xx', lambda a, b: a ^ b),
    ('sll', 'x', 'xh', lambda a, b: a << b),
    ('srl', 'x', 'xh', lambda a, b: a >> b),
    ('slt', 'x', 'xx', lambda a, b: int(a < b)),
    ('addi', 'x', 'xi', lambda a, i: a + i),
    ('andi', 'x', 'xi', lambda a, i: a & i),
    ('ori', 'x', 'xi', lambda a, i: a | i),
    ('xori', 'x', 'xi', lambda a, i: a ^ i),
    ('slli', 'x', 'xk', lambda a, k: a << k),
    ('srli', 'x', 'xk', lambda a, k: a >> k),
    ('slti', 'x', 'xi', lambda a, i: int(a < i)),
    ('li', 'x', 'i', lambda i: i),
    ('mv', 'x', 'x', lambda a: a),
]

FP_OPS = [
    ('fadd', 'f', 'ff', lambda a, b: a + b),
    ('fsub', 'f', 'ff', lambda a, b: a - b),
    ('fmul', 'f', 'ff', lambda a, b: a * b),
    ('fdiv', 'f', 'ff', lambda a, b: a / b),
    ('fsqrt', 'f', 'f', lambda a: a ** 0.5),
    ('fmin', 'f', 'ff', lambda a, b: min(a, b)),
    ('fmax', 'f', 'ff', lambda a, b: max(a, b)),
    ('fma', 'f', 'dff', lambda d, a, b: d + a * b),
    ('fabs', 'f', 'f', lambda a: abs(a)),
    ('fneg', 'f', 'f', lambda a: -a),
    ('flt', 'x', 'ff', lambda a, b: int(a < b)),
    ('fle', 'x', 'ff', lambda a, b: int(a <= b)),
    ('feq', 'x', 'ff', lambda a, b: int(a == b)),
    ('fcvt_ws', 'x', 'f', lambda a: int(a)),
    ('fcvt_sw', 'f', 'x', lambda a: float(a)),
]

# Per-core SIMD against plain Python lists.  Same row shape; v is a SIMD
# register, o a scratchpad word offset.  vl4/vs4 move four words between
# the scratchpad and a SIMD register (the reference does it with slices).
VREGS = [f'v{i}' for i in range(4)]
PCV_DATA = 32  # scratchpad words the program may load from / store to
PCV_OPS = [
    ('vadd4', 'v', 'vv', lambda a, b: [x + y for x, y in zip(a, b)]),
    ('vsub4', 'v', 'vv', lambda a, b: [x - y for x, y in zip(a, b)]),
    ('vmul4', 'v', 'vv', lambda a, b: [x * y for x, y in zip(a, b)]),
    ('vfma4', 'v', 'dvv',
     lambda d, a, b: [acc + x * y for acc, x, y in zip(d, a, b)]),
    ('vbcast', 'v', 'f', lambda s: [s] * 4),
    ('vredsum4', 'f', 'v', lambda a: sum(a)),
    ('vl4', 'v', 'o', None),
    ('vs4', 'o', 'v', None),
]

_OPERAND = {
    'x': st.sampled_from(XREGS + ['x0']),
    'f': st.sampled_from(FREGS),
    'h': st.just(SHAMT),
    'i': st.integers(-64, 64),
    'k': st.integers(0, 6),
    'd': st.none(),
    'v': st.sampled_from(VREGS),
    'o': st.integers(0, PCV_DATA - 4),
}


@st.composite
def programs(draw, table):
    """A random straight-line program over ``table``'s ops.

    ``x0`` is a legal source and destination: it reads 0 and drops writes.
    """
    init = {r: draw(st.integers(-100, 100)) for r in XREGS}
    init[SHAMT] = draw(st.integers(0, 6))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    init.update((r, draw(finite)) for r in FREGS)
    return init, draw(op_lists(table))


@st.composite
def op_lists(draw, table):
    rows = draw(st.lists(st.sampled_from(table), min_size=1, max_size=25))
    return [(row, draw(_OPERAND[row[1]]), [draw(_OPERAND[c]) for c in row[2]])
            for row in rows]


@st.composite
def pcv_programs(draw):
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    spad = draw(st.lists(finite, min_size=PCV_DATA, max_size=PCV_DATA))
    init = {r: draw(finite) for r in FREGS}
    return spad, init, draw(op_lists(PCV_OPS))


def run_program(init, ops, out_regs, spad=()):
    """Run on core 0; returns (out_regs' final values, core 0's scratchpad
    up to the dumped SIMD file).  ``spad`` preloads scratchpad words."""
    fabric = Fabric(small_config())
    out = fabric.alloc(len(out_regs))
    a = Assembler()
    a.csrr('x1', op.CSR_COREID)
    a.beq('x1', 'x0', 'main')
    a.halt()
    a.bind('main')
    for off, val in enumerate(spad):
        a.li('f31', val)
        a.swsp('f31', 'x0', off)
    for reg, val in init.items():
        a.li(reg, val)
    for (name, _, _, _), rd, srcs in ops:
        if name == 'vl4':
            a.vl4(rd, 'x0', srcs[0])
        elif name == 'vs4':
            a.vs4(srcs[0], 'x0', rd)
        else:
            getattr(a, name)(rd, *[s for s in srcs if s is not None])
    for i, v in enumerate(VREGS):  # dump the SIMD file behind the data
        a.vs4(v, 'x0', len(spad) + 4 * i)
    a.li('x30', out)
    for i, reg in enumerate(out_regs):
        a.sw(reg, 'x30', i)
    a.halt()
    fabric.load_program(a.finish())
    fabric.run()
    return (fabric.read_array(out, len(out_regs)),
            fabric.tiles[0].spad.data[:len(spad) + 4 * len(VREGS)])


def _in_domain(v) -> bool:
    """Where Python arithmetic means the same thing on both sides: no
    ints that overflow a float division, no NaN/inf, no complex roots."""
    return (isinstance(v, (int, float)) and math.isfinite(v)
            and abs(v) < 2 ** 64)


def reference(init, ops, spad=()):
    """Evaluate in plain Python; returns (register env, scratchpad)."""
    env = dict(init, x0=0)
    env.update((v, [0.0] * 4) for v in VREGS)
    spad = list(spad)
    for (name, _, sig, fn), rd, srcs in ops:
        if name == 'vl4':
            env[rd] = spad[srcs[0]:srcs[0] + 4]
            continue
        if name == 'vs4':
            spad[rd:rd + 4] = env[srcs[0]]
            continue
        args = [env[rd] if c == 'd' else env[s] if c in 'xfhv' else s
                for c, s in zip(sig, srcs)]
        try:
            v = fn(*args)
        except (ZeroDivisionError, OverflowError):
            assume(False)
        assume(all(map(_in_domain, v if isinstance(v, list) else [v])))
        if rd != 'x0':
            env[rd] = v
    for v in VREGS:
        spad += env.pop(v)
    return env, spad


class TestDifferential:
    @given(programs(INT_OPS))
    @settings(max_examples=60, deadline=None)
    def test_integer_programs_match_python(self, prog):
        init, ops = prog
        env, _ = reference(init, ops)
        regs = sorted(env)
        assert run_program(init, ops, regs)[0] == [env[r] for r in regs]

    @given(programs(INT_OPS + FP_OPS))
    @settings(max_examples=60, deadline=None)
    def test_fp_programs_match_python(self, prog):
        init, ops = prog
        env, _ = reference(init, ops)
        regs = sorted(env)
        assert run_program(init, ops, regs)[0] == [env[r] for r in regs]

    @given(pcv_programs())
    @settings(max_examples=40, deadline=None)
    def test_pcv_programs_match_python_lists(self, prog):
        spad, init, ops = prog
        env, want_spad = reference(init, ops, spad)
        regs = sorted(env)
        got, got_spad = run_program(init, ops, regs, spad)
        assert got == [env[r] for r in regs]
        assert got_spad == want_spad

    def test_x0_destination_still_evaluates_the_expression(self):
        """A write to x0 is dropped, but not the work: shifting by a
        negative amount raises whether or not the result is kept."""
        init = {'x5': 1, 'x6': -1}
        row = ('sll', 'x', 'xx', None)
        with pytest.raises(ValueError):
            run_program(init, [(row, 'x0', ['x5', 'x6'])], ['x0'])
        add = ('add', 'x', 'xx', None)
        assert run_program(init, [(add, 'x0', ['x5', 'x5'])],
                           ['x0', 'x5'])[0] == [0, 1]

    def test_print_reports_a_register_and_changes_nothing(self, capsys):
        """The one opcode whose effect is on stdout, not on the machine."""
        row = ('print', None, '', None)  # a.print('x5'): no destination
        got = run_program({'x5': 42, 'x6': 7},
                          [(row, 'x5', []), (row, 'x0', [])],
                          ['x0', 'x5', 'x6'])[0]
        assert got == [0, 42, 7]
        assert re.fullmatch(r'\[core 0 @ \d+\] r5 = 42\n'
                            r'\[core 0 @ \d+\] r0 = 0\n',
                            capsys.readouterr().out)

    @given(st.integers(-1000, 1000), st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_div_rem_identity(self, a_val, b_val):
        """C-style truncating division: a == b*(a/b) + a%b."""
        fabric = Fabric(small_config())
        out = fabric.alloc(2)
        asm = Assembler()
        asm.csrr('x1', op.CSR_COREID)
        asm.beq('x1', 'x0', 'main')
        asm.halt()
        asm.bind('main')
        asm.li('x5', a_val)
        asm.li('x6', b_val)
        asm.div('x7', 'x5', 'x6')
        asm.rem('x8', 'x5', 'x6')
        asm.li('x30', out)
        asm.sw('x7', 'x30', 0)
        asm.sw('x8', 'x30', 1)
        asm.halt()
        fabric.load_program(asm.finish())
        fabric.run()
        q, r = fabric.read_array(out, 2)
        assert b_val * q + r == a_val
        assert abs(r) < b_val
        assert q == int(a_val / b_val)

    @given(st.lists(st.floats(-100, 100, allow_nan=False,
                              allow_infinity=False),
                    min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_memory_roundtrip_preserves_values(self, values):
        """Store-then-load through the LLC returns exactly what went in."""
        fabric = Fabric(small_config())
        src = fabric.alloc(values)
        dst = fabric.alloc(len(values))
        a = Assembler()
        a.csrr('x1', op.CSR_COREID)
        a.beq('x1', 'x0', 'main')
        a.halt()
        a.bind('main')
        a.li('x5', src)
        a.li('x6', dst)
        with a.for_count('x7', len(values)):
            a.lw('f1', 'x5', 0)
            a.sw('f1', 'x6', 0)
            a.addi('x5', 'x5', 1)
            a.addi('x6', 'x6', 1)
        a.halt()
        fabric.load_program(a.finish())
        fabric.run()
        assert fabric.read_array(dst, len(values)) == values


def _decoded(opcode):
    return Program([Instr(opcode)], {}).instrs[0]


class TestExecutorCoverage:
    NO_EXECUTOR = [o for o in op.NAMES if o not in EXECUTORS]

    def test_every_opcode_has_exactly_one_home(self):
        """The execute table, the tile's sequencer, or the GPU only."""
        for o in op.NAMES:
            homes = (o in EXECUTORS, _decoded(o).seq > SEQ_FRAME,
                     op.is_gpu_only(o))
            assert sum(homes) == 1, (op.name(o), homes)

    @pytest.mark.parametrize('opcode', NO_EXECUTOR,
                             ids=[op.name(o) for o in NO_EXECUTOR])
    def test_unsupported_opcode_raises_when_executed(self, opcode):
        """Binding never fails (GPU programs assemble and load); running
        the instruction on a tile's datapath names what went wrong."""
        prog = Program([Instr(opcode)], {})
        bind_program(prog)
        tile = Fabric(small_config()).tiles[3]
        with pytest.raises(SimError, match=rf'cannot execute '
                           rf'{op.name(opcode)} here \(core 3, mode \d+\)'):
            prog.instrs[0].run(tile, 0)

    def test_gpu_only_opcode_loads_and_faults_at_issue(self):
        with pytest.raises(SimError, match=r'vote_any here \(core 0, mode'):
            run_program({'x6': 1}, [(('vote_any', 'x', 'x', None), 'x5',
                                     ['x6'])], ['x5'])
