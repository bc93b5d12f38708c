"""A cycle-approximate SIMT GPU model (paper Section 5.3).

Execution: each compute unit issues at most one wavefront instruction per
cycle, round-robin over its resident wavefronts; a vector ALU retires a
64-thread wavefront instruction in four cycles.  Wavefront registers are
numpy vectors (one element per thread), per-lane masking follows the same
predication ops as the SDV ISA, and control flow must be wavefront-uniform
(divergent branches are a modeling error — kernels use predication, the
same discipline the vector groups follow).

Memory: per-lane addresses coalesce into distinct cache lines.  Lines walk
the TCP (per-CU L1) -> TCC (shared L2) -> GPU LLC -> DRAM hierarchy; each
level serializes one line per cycle per port, the same contention treatment
the manycore model uses for its LLC banks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa import Program, opcodes as op
from ..isa.instruction import Instr
from ..manycore.probes import Probes
from .config import DEFAULT_GPU, GpuConfig

INF = 1 << 60


class GpuError(Exception):
    """Divergent control flow or an unsupported instruction on the GPU."""


def _trunc_div(a, b):
    with np.errstate(divide='ignore', invalid='ignore'):
        return np.nan_to_num(np.trunc(a / b))


#: ALU semantics, one numpy expression per opcode: ``rd <- expr`` under the
#: lane mask, ``valu_latency`` after issue.  ``a``/``b``/``d`` are the
#: ``rs1``/``rs2``/``rd`` wavefront registers (float vectors, one element
#: per thread).  This is the GPU's own column; docs/isa.md says where it
#: deliberately differs from the tile's (``repro.manycore.execute``).
_ALU_RESULT = {
    op.LI: 'np.full(len(d), float(imm))',
    op.MV: 'a',
    op.ADD: 'a + b',
    op.FADD: 'a + b',
    op.SUB: 'a - b',
    op.FSUB: 'a - b',
    op.MUL: 'a * b',
    op.FMUL: 'a * b',
    op.FMA: 'd + a * b',
    op.FDIV: 'a / b',
    op.DIV: '_trunc_div(a, b)',
    op.REM: 'a - _trunc_div(a, b) * b',
    op.FSQRT: 'np.sqrt(np.abs(a))',
    op.FMIN: 'np.minimum(a, b)',
    op.FMAX: 'np.maximum(a, b)',
    op.FABS: 'np.abs(a)',
    op.FNEG: '-a',
    op.ADDI: 'a + imm',
    op.SLT: '(a < b).astype(float)',
    op.SLTI: '(a < imm).astype(float)',
    op.FLT: '(a < b).astype(float)',
    op.FLE: '(a <= b).astype(float)',
    op.FEQ: '(a == b).astype(float)',
    op.AND: '(a.astype(int) & b.astype(int)).astype(float)',
    op.OR: '(a.astype(int) | b.astype(int)).astype(float)',
    op.FCVT_WS: 'np.trunc(a)',
    op.FCVT_SW: 'a.astype(float)',
}
_ALU = {o: eval(f'lambda a, b, d, imm: {expr}')
        for o, expr in _ALU_RESULT.items()}


class _TagArray:
    """Set-associative tag array with LRU and a 1-line/cycle port."""

    def __init__(self, capacity_bytes: int, ways: int, line_bytes: int,
                 hit_latency: int):
        lines = max(1, capacity_bytes // line_bytes)
        self.num_sets = max(1, lines // ways)
        self.ways = ways
        self.hit_latency = hit_latency
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._port_free = 0.0
        self.accesses = 0
        self.misses = 0

    def access(self, line: int, now: float) -> Tuple[bool, float]:
        """Returns (hit, time_after_this_level)."""
        start = max(now, self._port_free)
        self._port_free = start + 1.0
        self.accesses += 1
        s = self._sets[line % self.num_sets]
        if line in s:
            s.remove(line)
            s.insert(0, line)
            return True, start + self.hit_latency
        self.misses += 1
        if len(s) >= self.ways:
            s.pop()
        s.insert(0, line)
        return False, start + self.hit_latency


class GpuMemSystem:
    """TCP -> TCC -> LLC -> DRAM line pipeline."""

    def __init__(self, cfg: GpuConfig):
        self.cfg = cfg
        lb = cfg.cache_line_bytes
        self.tcp = [_TagArray(cfg.tcp_capacity_bytes, cfg.tcp_ways, lb,
                              cfg.tcp_hit_latency)
                    for _ in range(cfg.compute_units)]
        self.tcc = _TagArray(cfg.tcc_capacity_bytes, cfg.tcc_ways, lb,
                             cfg.tcc_hit_latency)
        self.llc = _TagArray(cfg.llc_capacity_bytes, cfg.llc_ways, lb,
                             cfg.llc_hit_latency)
        self._dram_free = 0.0
        self.dram_lines = 0

    def access_lines(self, cu: int, lines: Sequence[int],
                     now: int) -> float:
        """Service a coalesced set of lines; returns completion time."""
        done = float(now)
        for line in lines:
            hit, t = self.tcp[cu].access(line, now)
            if not hit:
                hit, t = self.tcc.access(line, t)
                if not hit:
                    hit, t = self.llc.access(line, t)
                    if not hit:
                        start = max(t, self._dram_free)
                        xfer = (self.cfg.line_words /
                                self.cfg.dram_bandwidth_words_per_cycle)
                        self._dram_free = start + xfer
                        self.dram_lines += 1
                        t = start + self.cfg.dram_latency + xfer
            done = max(done, t)
        return done


class Wavefront:
    """One 64-thread wavefront executing a kernel program."""

    def __init__(self, wid: int, cu: int, cfg: GpuConfig):
        self.wid = wid
        self.cu = cu
        self.cfg = cfg
        n = cfg.wavefront_size
        self.regs: List[np.ndarray] = [np.zeros(n) for _ in range(64)]
        self.mask = np.ones(n, dtype=bool)
        self.pc = 0
        self.done = False
        self.busy = [0.0] * 64  # scoreboard
        self.ready_at = 0.0
        self.instrs = 0


class GpuMachine:
    """The APU: compute units + memory hierarchy + flat global memory.

    Presents the same allocation interface as the manycore ``Fabric`` so
    benchmark ``setup``/``verify`` work unchanged.
    """

    def __init__(self, cfg: GpuConfig = DEFAULT_GPU):
        self.cfg = cfg
        self._alloc_list: List[float] = []
        self.memory: Optional[np.ndarray] = None
        self.mem = GpuMemSystem(cfg)
        self.cycle = 0
        self.total_instrs = 0
        self.probes = Probes()  # reports `gpu_mem` (see manycore.probes)

    # -- Fabric-compatible allocation ----------------------------------------
    def alloc(self, data_or_size) -> int:
        lw = self.cfg.line_words
        base = ((max(len(self._alloc_list), lw) + lw - 1) // lw) * lw
        if isinstance(data_or_size, int):
            values = [0.0] * data_or_size
        else:
            values = [float(v) for v in data_or_size]
        self._alloc_list.extend([0.0] * (base - len(self._alloc_list)))
        self._alloc_list.extend(values)
        pad = (lw - len(self._alloc_list) % lw) % lw + lw
        self._alloc_list.extend([0.0] * pad)
        return base

    def read_array(self, base: int, n: int) -> List[float]:
        return list(self.memory[base:base + n])

    def _freeze_memory(self) -> None:
        self.memory = np.array(self._alloc_list, dtype=float)

    # -- kernel execution -------------------------------------------------------
    def launch(self, program: Program, entry: int = 0) -> int:
        """Run one kernel to completion; returns cycles consumed."""
        if self.memory is None:
            self._freeze_memory()
        cfg = self.cfg
        wavefronts: List[Wavefront] = []
        wid = 0
        for cu in range(cfg.compute_units):
            for _ in range(cfg.wavefronts_per_cu):
                wf = Wavefront(wid, cu, cfg)
                wf.pc = entry
                base = wid * cfg.wavefront_size
                wf.tid = np.arange(base, base + cfg.wavefront_size,
                                   dtype=float)
                wavefronts.append(wf)
                wid += 1

        start = self.cycle + cfg.kernel_launch_overhead
        now = float(start)
        rr = [0] * cfg.compute_units
        per_cu = [[w for w in wavefronts if w.cu == c]
                  for c in range(cfg.compute_units)]
        live = set(range(len(wavefronts)))
        while live:
            progressed = False
            next_time = INF
            for cu in range(cfg.compute_units):
                wfs = per_cu[cu]
                issued = False
                for k in range(len(wfs)):
                    wf = wfs[(rr[cu] + k) % len(wfs)]
                    if wf.done:
                        continue
                    t = self._try_issue(wf, program, now)
                    if t is True:
                        rr[cu] = (rr[cu] + k + 1) % len(wfs)
                        issued = True
                        progressed = True
                        if wf.done:
                            live.discard(wf.wid)
                        break
                    next_time = min(next_time, t)
                if issued:
                    next_time = min(next_time, now + 1)
            if not live:
                break
            if progressed:
                now += 1.0
            else:
                if next_time >= INF:
                    raise GpuError('GPU deadlock: no wavefront can issue')
                now = max(now + 1.0, float(next_time))
        self.cycle = int(math.ceil(now))
        return self.cycle - start + cfg.kernel_launch_overhead

    # -- per-instruction execution ---------------------------------------------
    def _try_issue(self, wf: Wavefront, program: Program, now: float):
        """Issue wavefront's next instruction if ready.

        Returns True when issued, else the earliest cycle it could issue.
        """
        inst: Instr = program.instrs[wf.pc]
        worst = 0.0
        for r in inst.reads:
            worst = max(worst, wf.busy[r])
        for w in inst.writes:
            worst = max(worst, wf.busy[w])
        if worst > now:
            return worst
        self._execute(wf, inst, now)
        wf.instrs += 1
        self.total_instrs += 1
        return True

    def _writeback(self, wf: Wavefront, rd: int, value: np.ndarray,
                   at: float) -> None:
        if rd == 0:
            return
        old = wf.regs[rd]
        wf.regs[rd] = np.where(wf.mask, value, old)
        wf.busy[rd] = at

    def _mem_access(self, wf: Wavefront, lines, now: float) -> float:
        """Service one coalesced access; returns its completion time."""
        done = self.mem.access_lines(wf.cu, lines.tolist(), now)
        q = self.probes.gpu_mem
        if q is not None:
            q((now, done - now))
        return done

    def _execute(self, wf: Wavefront, inst: Instr, now: float) -> None:
        o = inst.op
        cfg = self.cfg
        regs = wf.regs
        wb = now + cfg.valu_latency
        rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

        alu = _ALU.get(o)
        if alu is not None:
            self._writeback(wf, rd, alu(regs[rs1], regs[rs2], regs[rd],
                                        inst.imm), wb)
        elif o == op.CSRR:
            if inst.imm == op.CSR_TID:
                self._writeback(wf, rd, wf.tid.copy(), wb)
            elif inst.imm == op.CSR_NCORES:
                self._writeback(wf, rd, np.full(cfg.wavefront_size,
                                                float(cfg.total_threads)),
                                wb)
            else:
                raise GpuError(f'unsupported CSR {inst.imm} on GPU')

        elif o == op.LW:
            addrs = (regs[rs1].astype(int) + inst.imm)
            active = wf.mask
            safe = np.clip(addrs, 0, len(self.memory) - 1)
            values = self.memory[safe]
            lines = np.unique(safe[active] // cfg.line_words) \
                if active.any() else np.empty(0, dtype=int)
            self._writeback(wf, rd, values,
                            self._mem_access(wf, lines, now))
        elif o == op.SW:
            addrs = (regs[rs1].astype(int) + inst.imm)
            active = wf.mask
            if active.any():
                safe = np.clip(addrs, 0, len(self.memory) - 1)
                self.memory[safe[active]] = regs[rs2][active]
                lines = np.unique(safe[active] // cfg.line_words)
                self._mem_access(wf, lines, now)

        elif o == op.VOTE_ANY:
            any_set = bool(np.any(wf.mask & (regs[rs1] != 0)))
            self._writeback(wf, rd,
                            np.full(cfg.wavefront_size, float(any_set)),
                            now + 1)
        elif o == op.PRED_EQ:
            wf.mask = regs[rs1] == regs[rs2]
        elif o == op.PRED_NEQ:
            wf.mask = regs[rs1] != regs[rs2]

        elif op.is_branch(o) or o == op.J:
            if o == op.J:
                wf.pc = inst.imm
                return
            a, b = regs[rs1], regs[rs2]
            if o == op.BEQ:
                taken = a == b
            elif o == op.BNE:
                taken = a != b
            elif o == op.BLT:
                taken = a < b
            else:
                taken = a >= b
            t0 = bool(taken[0])
            if not bool(np.all(taken == t0)):
                raise GpuError(f'divergent branch at pc {wf.pc}; GPU '
                               f'kernels must use predication')
            wf.pc = inst.imm if t0 else wf.pc + 1
            return
        elif o == op.HALT:
            wf.done = True
            return
        elif o == op.NOP:
            pass
        else:
            raise GpuError(f'opcode {op.name(o)} unsupported on the GPU')
        wf.pc += 1
