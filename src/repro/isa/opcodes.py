"""Opcode definitions for the Rockcress mini-ISA.

The ISA is an RV-G-like subset plus the software-defined vector (SDV)
extension from the paper (Section 2) and a small fixed-width per-core SIMD
(PCV) extension standing in for the RISC-V vector extension used in the
paper's PCV configurations.

Opcodes are plain integers (not Enum members): they key the decode
(:mod:`repro.isa.decode`) and execute (:mod:`repro.manycore.execute`)
tables, which are consulted once per ``Program`` — the simulator's hot
loop reads only the predecoded fields and the bound ``run`` closure.
"""

from __future__ import annotations

# --- integer ALU -----------------------------------------------------------
ADD = 1
SUB = 2
MUL = 3
DIV = 4
REM = 5
AND = 6
OR = 7
XOR = 8
SLL = 9
SRL = 10
SLT = 11
ADDI = 12
ANDI = 13
ORI = 14
XORI = 15
SLLI = 16
SRLI = 17
SLTI = 18
LI = 19
MV = 20

# --- floating point --------------------------------------------------------
FADD = 30
FSUB = 31
FMUL = 32
FDIV = 33
FSQRT = 34
FMIN = 35
FMAX = 36
FMA = 37  # rd = rs1 * rs2 + rd
FABS = 38
FNEG = 39
FLT = 40  # int rd = (rs1 < rs2)
FLE = 41
FEQ = 42
FCVT_WS = 43  # float -> int
FCVT_SW = 44  # int -> float

# --- memory ----------------------------------------------------------------
LW = 50  # global load: rd <- mem[rs1 + imm]
SW = 51  # global store (non-blocking): mem[rs1 + imm] <- rs2
LWSP = 52  # scratchpad load: rd <- spad[rs1 + imm]
SWSP = 53  # scratchpad store: spad[rs1 + imm] <- rs2
SWREM = 54  # remote scratchpad store: core[rs2].spad[rd + imm] <- rs1

# --- control flow ----------------------------------------------------------
BEQ = 60
BNE = 61
BLT = 62
BGE = 63
J = 64
JAL = 65
JR = 66

# --- system ----------------------------------------------------------------
NOP = 70
HALT = 71
BARRIER = 72  # global barrier across all active tiles
CSRW = 73
CSRR = 74
PRINT = 75  # debug aid; no architectural effect

# --- software-defined vector extension -------------------------------------
VCONFIG = 80  # enter/update vector mode from a group descriptor (rs1 = handle)
DEVEC = 81  # scalar core: disband the group (broadcast PC over inet)
VISSUE = 82  # scalar core: launch a microthread at absolute PC `imm`
VEND = 83  # terminates a microthread (executed by expander/vector cores)
VLOAD = 84  # scalar core wide load; see Instr.ex layout in instruction.py
FRAME_START = 85  # rd <- scratchpad offset of the (now ready) head frame
REMEM = 86  # free the head frame
PRED_EQ = 87  # per-core predication: flag <- (rs1 == rs2)
PRED_NEQ = 88  # flag <- (rs1 != rs2)

# --- per-core SIMD (PCV) extension -----------------------------------------
VL4 = 90  # vrd <- spad[rs1 + imm : +4]
VS4 = 91  # spad[rs1 + imm : +4] <- vrs (held in rd slot)
VADD4 = 92
VSUB4 = 93
VMUL4 = 94
VFMA4 = 95  # vrd += vrs1 * vrs2
VBCAST = 96  # vrd <- broadcast(rs1)
VREDSUM4 = 97  # rd <- sum(vrs1)

# --- GPU-only (SIMT) ---------------------------------------------------------
VOTE_ANY = 98  # rd <- broadcast(any active lane has rs1 != 0); warp vote

# CSR numbers ---------------------------------------------------------------
CSR_VCONFIG = 0
CSR_FRAME_CFG = 1  # packed (frame_size, num_frames) via assembler helper
CSR_TID = 2  # thread id within the vector group (0 for scalar)
CSR_GROUP_SIZE = 3  # number of execution lanes in the group
CSR_COREID = 4  # flat core id in the fabric
CSR_NCORES = 5  # number of active cores in this run
CSR_GROUP_ID = 6  # id of the vector group this core belongs to
CSR_NGROUPS = 7  # number of vector groups configured in the fabric

_INT_ALU = frozenset([ADD, SUB, AND, OR, XOR, SLL, SRL, SLT, ADDI, ANDI, ORI,
                      XORI, SLLI, SRLI, SLTI, LI, MV])
_FP_ALU = frozenset([FADD, FSUB, FMIN, FMAX, FABS, FNEG, FLT, FLE, FEQ,
                     FCVT_WS, FCVT_SW])
_FP_MUL = frozenset([FMUL, FMA])
_BRANCHES = frozenset([BEQ, BNE, BLT, BGE])
_JUMPS = frozenset([J, JAL, JR])
_SIMD = frozenset([VL4, VS4, VADD4, VSUB4, VMUL4, VFMA4, VBCAST, VREDSUM4])
_CONTROL = _BRANCHES | _JUMPS
#: Instructions that execute even when the predication flag is clear.
_PRED_EXEMPT = frozenset([PRED_EQ, PRED_NEQ, FRAME_START, REMEM, VEND, NOP])
#: Decoded by the assembler but executed only by ``repro.gpu``.
_GPU_ONLY = frozenset([VOTE_ANY])

#: Execution latency (cycles from issue to writeback) per opcode, mirroring
#: Table 1a.  Opcodes not listed complete in 1 cycle or are handled specially
#: (memory ops, frame_start).
LATENCY = {
    MUL: 2,
    DIV: 20,
    REM: 20,
    FADD: 3,
    FSUB: 3,
    FMIN: 3,
    FMAX: 3,
    FABS: 1,
    FNEG: 1,
    FLT: 3,
    FLE: 3,
    FEQ: 3,
    FCVT_WS: 3,
    FCVT_SW: 3,
    FMUL: 3,
    FMA: 3,
    FDIV: 20,
    FSQRT: 20,
    VADD4: 3,
    VSUB4: 3,
    VMUL4: 3,
    VFMA4: 3,
    VREDSUM4: 3,
    VBCAST: 1,
}

#: ``CoreStats`` instruction-mix field per opcode (feeds the energy model).
#: Opcodes not listed, system ops included, count as integer-ALU slots.
MIX_FIELD = {o: f for f, ops in (
    ('n_mem', (LW, SW, LWSP, SWSP, SWREM, VLOAD)),
    ('n_mul', (MUL,)),
    ('n_div', (DIV, REM, FDIV, FSQRT)),
    ('n_fp', _FP_ALU | _FP_MUL),
    ('n_simd', _SIMD),
    ('n_control', _CONTROL)) for o in ops}

NAMES = {v: k for k, v in list(globals().items())
         if isinstance(v, int) and k.isupper() and not k.startswith('CSR_')
         and not k.startswith('_')}


def is_branch(op: int) -> bool:
    return op in _BRANCHES


def is_control(op: int) -> bool:
    return op in _CONTROL


def is_pred_exempt(op: int) -> bool:
    return op in _PRED_EXEMPT


def is_gpu_only(op: int) -> bool:
    return op in _GPU_ONLY


def name(op: int) -> str:
    """Human-readable mnemonic for an opcode int."""
    return NAMES.get(op, f'op{op}').lower()
