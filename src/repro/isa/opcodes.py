"""The Rockcress mini-ISA, stated once: one row per opcode, one record per
operand format.

The ISA is an RV-G-like subset plus the software-defined vector (SDV)
extension from the paper (Section 2) and a small fixed-width per-core SIMD
(PCV) extension standing in for the RISC-V vector extension used in the
paper's PCV configurations.

A row (:class:`Op`) says what an opcode *is*: number, mnemonic, operand
format, Table 1a latency, ``CoreStats`` mix field, sequencer class and
three flags.  A :class:`Format` says how its operands are laid out:
assembler argument order onto the ``rd``/``rs1``/``rs2``/``imm`` slots,
which slots are read and written in each register file, and how the
instruction prints.  The ``Assembler`` mnemonic methods
(:mod:`repro.isa.assembler`), the static decode (:mod:`repro.isa.decode`),
``disasm`` (:mod:`repro.isa.instruction`) and the views at the bottom of
this module are all derived from these two tables.  What an opcode
*computes* is deliberately not here: the tile
(:mod:`repro.manycore.execute`), the GPU (:mod:`repro.gpu.machine`) and the
differential tests each keep their own semantics, as independent oracles.

Opcodes are plain integers (not Enum members): they key the decode and
execute tables, which are consulted once per ``Program`` — the simulator's
hot loop reads only the predecoded fields and the bound ``run`` closure.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple


# --- operand formats ---------------------------------------------------------
class Format(NamedTuple):
    """One operand layout.

    ``args`` lists the ``Assembler`` method's parameters in order, each
    ``name`` or ``name:slot`` (``slot`` defaults to ``name``; the slot
    ``label`` is ``imm`` given as a PC or a label) with an optional
    ``=default``.  ``reads``/``writes`` name the slots holding scalar
    registers and ``vreads``/``vwrites`` those holding SIMD registers, in
    scoreboard-check order.  ``text`` is the disassembly template:
    ``{rd}``/``{rs1}``/``{rs2}`` print a slot as a scalar register,
    ``{vrd}``/``{vrs1}``/``{vrs2}`` as a SIMD register, ``{imm}`` as is.
    """

    args: str
    text: str
    reads: str = ''
    writes: str = ''
    vreads: str = ''
    vwrites: str = ''

    def params(self) -> List[Tuple[str, str, str]]:
        """``(parameter, slot, default or '')`` per assembler argument."""
        out = []
        for arg in self.args.split():
            arg, _, default = arg.partition('=')
            name, _, slot = arg.partition(':')
            out.append((name, slot or name, default))
        return out


RRR = Format('rd rs1 rs2', '{rd}, {rs1}, {rs2}', 'rs1 rs2', 'rd')
RRR_ACC = Format('rd rs1 rs2', '{rd}, {rs1}, {rs2}', 'rs1 rs2 rd', 'rd')
RRI = Format('rd rs1 imm', '{rd}, {rs1}, {imm}', 'rs1', 'rd')
RR = Format('rd rs1', '{rd}, {rs1}', 'rs1', 'rd')
RI = Format('rd imm', '{rd}, {imm}', writes='rd')
DEST = Format('rd', '{rd}', writes='rd')
SRC1 = Format('rs1', '{rs1}', 'rs1')
SRC2 = Format('rs1 rs2', '{rs1}, {rs2}', 'rs1 rs2')
NONE = Format('', '')
LOAD = Format('rd rs1 imm=0', '{rd}, {imm}({rs1})', 'rs1', 'rd')
STORE = Format('rs2 rs1 imm=0', '{rs2}, {imm}({rs1})', 'rs1 rs2')
REMOTE_STORE = Format('value:rs1 core:rs2 offset:rd imm=0',
                      '{rs1} -> core[{rs2}].spad[{rd}+{imm}]', 'rd rs1 rs2')
BRANCH = Format('rs1 rs2 target:label', '{rs1}, {rs2}, @{imm}', 'rs1 rs2')
TARGET = Format('target:label', '@{imm}')
LINK = Format('rd target:label', '{rd}, @{imm}', writes='rd')
WRITE_CSR = Format('csr:imm rs1', 'csr{imm}, {rs1}', 'rs1')
READ_CSR = Format('rd csr:imm', '{rd}, csr{imm}', writes='rd')
#: vload: the registers only; ``core_off``/``width``/``variant``/``part``
#: travel in ``Instr.ex`` and ``Assembler.vload`` is written by hand
WIDE_LOAD = Format('spad_off:rs2 addr:rs1', 'spad[{rs2}], mem[{rs1}], '
                   'off={core_off}, w={width}, {variant}', 'rs1 rs2')
V_LOAD = Format('vrd:rd rs1 imm=0', '{vrd}, {imm}({rs1})', 'rs1',
                vwrites='rd')
V_STORE = Format('vrs:rd rs1 imm=0', '{vrd}, {imm}({rs1})', 'rs1',
                 vreads='rd')
VVV = Format('vrd:rd vrs1:rs1 vrs2:rs2', '{vrd}, {vrs1}, {vrs2}',
             vreads='rs1 rs2', vwrites='rd')
VVV_ACC = Format('vrd:rd vrs1:rs1 vrs2:rs2', '{vrd}, {vrs1}, {vrs2}',
                 vreads='rs1 rs2 rd', vwrites='rd')
V_SPLAT = Format('vrd:rd rs1', '{vrd}, {rs1}', 'rs1', vwrites='rd')
V_REDUCE = Format('rd vrs1:rs1', '{rd}, {vrs1}', writes='rd', vreads='rs1')

FORMATS: Dict[str, Format] = {k: v for k, v in list(vars().items())
                              if isinstance(v, Format)}

# --- sequencer classes -------------------------------------------------------
# What the tile's sequencer must do beyond the scoreboard check, ordered so
# that ``seq > SEQ_FRAME`` means "executed by the sequencer itself, never by
# a ``run`` closure".
SEQ_PLAIN = 0  # scoreboard check, then the datapath
SEQ_LOAD = 1  # also needs a free load-queue entry (frontend modes)
SEQ_FRAME = 2  # also needs the head frame ready (frame_start)
SEQ_SEND = 3  # vissue/devec: needs room in the successor's inet queue
SEQ_SYSTEM = 4  # halt/barrier/vconfig: changes the tile's run state
SEQ_CONTROL = 5  # branches and jumps


# --- opcode rows -------------------------------------------------------------
class Op(NamedTuple):
    """One opcode.

    ``lat`` is the Table 1a issue-to-writeback latency (None: one cycle, or
    timed by the memory system / frame queue); ``mix`` the ``CoreStats``
    instruction-mix field (None: an integer-ALU slot); ``seq`` one of the
    ``SEQ_*`` classes.  ``pred_exempt``: executes even when the predication
    flag is clear.  ``gpu_only``: assembled and decoded, but executed only
    by ``repro.gpu``.  ``forwards=False``: the expander keeps it to itself,
    as it does all control flow, instead of sending it down the inet.
    """

    number: int
    mnemonic: str
    fmt: Format
    lat: Optional[int] = None
    mix: Optional[str] = None
    seq: int = SEQ_PLAIN
    pred_exempt: bool = False
    gpu_only: bool = False
    forwards: bool = True


ROWS: Dict[int, Op] = {}


def _op(number: int, mnemonic: str, fmt: Format, **fields) -> int:
    assert number not in ROWS, f'opcode {number} declared twice'
    ROWS[number] = Op(number, mnemonic, fmt, **fields)
    return number


# integer ALU
ADD = _op(1, 'add', RRR)
SUB = _op(2, 'sub', RRR)
MUL = _op(3, 'mul', RRR, lat=2, mix='n_mul')
DIV = _op(4, 'div', RRR, lat=20, mix='n_div')
REM = _op(5, 'rem', RRR, lat=20, mix='n_div')
AND = _op(6, 'and', RRR)
OR = _op(7, 'or', RRR)
XOR = _op(8, 'xor', RRR)
SLL = _op(9, 'sll', RRR)
SRL = _op(10, 'srl', RRR)
SLT = _op(11, 'slt', RRR)
ADDI = _op(12, 'addi', RRI)
ANDI = _op(13, 'andi', RRI)
ORI = _op(14, 'ori', RRI)
XORI = _op(15, 'xori', RRI)
SLLI = _op(16, 'slli', RRI)
SRLI = _op(17, 'srli', RRI)
SLTI = _op(18, 'slti', RRI)
LI = _op(19, 'li', RI)
MV = _op(20, 'mv', RR)

# floating point
FADD = _op(30, 'fadd', RRR, lat=3, mix='n_fp')
FSUB = _op(31, 'fsub', RRR, lat=3, mix='n_fp')
FMUL = _op(32, 'fmul', RRR, lat=3, mix='n_fp')
FDIV = _op(33, 'fdiv', RRR, lat=20, mix='n_div')
FSQRT = _op(34, 'fsqrt', RR, lat=20, mix='n_div')
FMIN = _op(35, 'fmin', RRR, lat=3, mix='n_fp')
FMAX = _op(36, 'fmax', RRR, lat=3, mix='n_fp')
FMA = _op(37, 'fma', RRR_ACC, lat=3, mix='n_fp')  # rd = rs1 * rs2 + rd
FABS = _op(38, 'fabs', RR, lat=1, mix='n_fp')
FNEG = _op(39, 'fneg', RR, lat=1, mix='n_fp')
FLT = _op(40, 'flt', RRR, lat=3, mix='n_fp')  # int rd = (rs1 < rs2)
FLE = _op(41, 'fle', RRR, lat=3, mix='n_fp')
FEQ = _op(42, 'feq', RRR, lat=3, mix='n_fp')
FCVT_WS = _op(43, 'fcvt_ws', RR, lat=3, mix='n_fp')  # float -> int
FCVT_SW = _op(44, 'fcvt_sw', RR, lat=3, mix='n_fp')  # int -> float

# memory
# global load: rd <- mem[rs1 + imm]
LW = _op(50, 'lw', LOAD, mix='n_mem', seq=SEQ_LOAD)
# global store (non-blocking): mem[rs1 + imm] <- rs2
SW = _op(51, 'sw', STORE, mix='n_mem')
LWSP = _op(52, 'lwsp', LOAD, mix='n_mem')  # rd <- spad[rs1 + imm]
SWSP = _op(53, 'swsp', STORE, mix='n_mem')  # spad[rs1 + imm] <- rs2
# remote scratchpad store: core[rs2].spad[rd + imm] <- rs1
SWREM = _op(54, 'swrem', REMOTE_STORE, mix='n_mem')

# control flow
BEQ = _op(60, 'beq', BRANCH, mix='n_control', seq=SEQ_CONTROL)
BNE = _op(61, 'bne', BRANCH, mix='n_control', seq=SEQ_CONTROL)
BLT = _op(62, 'blt', BRANCH, mix='n_control', seq=SEQ_CONTROL)
BGE = _op(63, 'bge', BRANCH, mix='n_control', seq=SEQ_CONTROL)
J = _op(64, 'j', TARGET, mix='n_control', seq=SEQ_CONTROL)
JAL = _op(65, 'jal', LINK, mix='n_control', seq=SEQ_CONTROL)
JR = _op(66, 'jr', SRC1, mix='n_control', seq=SEQ_CONTROL)

# system
NOP = _op(70, 'nop', NONE, pred_exempt=True)
HALT = _op(71, 'halt', NONE, seq=SEQ_SYSTEM)
# barrier across all of the job's tiles (also a memory fence)
BARRIER = _op(72, 'barrier', NONE, seq=SEQ_SYSTEM)
CSRW = _op(73, 'csrw', WRITE_CSR)
CSRR = _op(74, 'csrr', READ_CSR)
PRINT = _op(75, 'print', SRC1)  # debug aid; no architectural effect

# software-defined vector extension
# enter/update vector mode from a group descriptor (rs1 = handle)
VCONFIG = _op(80, 'vconfig', SRC1, seq=SEQ_SYSTEM)
# scalar core: disband the group (broadcast the resume PC over the inet)
DEVEC = _op(81, 'devec', TARGET, seq=SEQ_SEND)
# scalar core: launch a microthread at absolute PC `imm`
VISSUE = _op(82, 'vissue', TARGET, seq=SEQ_SEND)
# terminates a microthread (executed by expander/vector cores)
VEND = _op(83, 'vend', NONE, pred_exempt=True, forwards=False)
# scalar core wide load; see Instr.ex layout in instruction.py
VLOAD = _op(84, 'vload', WIDE_LOAD, mix='n_mem')
# rd <- scratchpad offset of the (now ready) head frame
FRAME_START = _op(85, 'frame_start', DEST, seq=SEQ_FRAME, pred_exempt=True)
REMEM = _op(86, 'remem', NONE, pred_exempt=True)  # free the head frame
# per-core predication: flag <- (rs1 == rs2)
PRED_EQ = _op(87, 'pred_eq', SRC2, pred_exempt=True)
PRED_NEQ = _op(88, 'pred_neq', SRC2, pred_exempt=True)  # (rs1 != rs2)

# per-core SIMD (PCV) extension
VL4 = _op(90, 'vl4', V_LOAD, mix='n_simd')  # vrd <- spad[rs1 + imm : +4]
# spad[rs1 + imm : +4] <- vrs (held in rd slot)
VS4 = _op(91, 'vs4', V_STORE, mix='n_simd')
VADD4 = _op(92, 'vadd4', VVV, lat=3, mix='n_simd')
VSUB4 = _op(93, 'vsub4', VVV, lat=3, mix='n_simd')
VMUL4 = _op(94, 'vmul4', VVV, lat=3, mix='n_simd')
VFMA4 = _op(95, 'vfma4', VVV_ACC, lat=3, mix='n_simd')  # vrd += vrs1 * vrs2
VBCAST = _op(96, 'vbcast', V_SPLAT, lat=1, mix='n_simd')  # broadcast(rs1)
VREDSUM4 = _op(97, 'vredsum4', V_REDUCE, lat=3, mix='n_simd')  # sum(vrs1)

# GPU-only (SIMT)
# rd <- broadcast(any active lane has rs1 != 0); warp vote
VOTE_ANY = _op(98, 'vote_any', RR, gpu_only=True)

# CSR numbers ---------------------------------------------------------------
CSR_VCONFIG = 0
CSR_FRAME_CFG = 1  # packed (frame_size, num_frames) via assembler helper
CSR_TID = 2  # thread id within the vector group (0 for scalar)
CSR_GROUP_SIZE = 3  # number of execution lanes in the group
CSR_COREID = 4  # flat core id in the fabric
CSR_NCORES = 5  # number of active cores in this run
CSR_GROUP_ID = 6  # id of the vector group this core belongs to
CSR_NGROUPS = 7  # number of vector groups configured in the fabric

# --- views of the rows -------------------------------------------------------
NAMES = {o: row.mnemonic.upper() for o, row in ROWS.items()}
#: Execution latency (cycles from issue to writeback) per opcode, mirroring
#: Table 1a.  Opcodes not listed complete in 1 cycle or are handled specially
#: (memory ops, frame_start).
LATENCY = {o: row.lat for o, row in ROWS.items() if row.lat is not None}
#: ``CoreStats`` instruction-mix field per opcode (feeds the energy model).
#: Opcodes not listed, system ops included, count as integer-ALU slots.
MIX_FIELD = {o: row.mix for o, row in ROWS.items() if row.mix is not None}


def is_branch(op: int) -> bool:
    return op in ROWS and ROWS[op].fmt is BRANCH


def is_control(op: int) -> bool:
    return op in ROWS and ROWS[op].seq == SEQ_CONTROL


def is_pred_exempt(op: int) -> bool:
    return op in ROWS and ROWS[op].pred_exempt


def is_gpu_only(op: int) -> bool:
    return op in ROWS and ROWS[op].gpu_only


def name(op: int) -> str:
    """Human-readable mnemonic for an opcode int."""
    return NAMES.get(op, f'op{op}').lower()
