"""First-order dynamic energy model (paper Section 5.2).

The paper assigns energy costs to simulation statistics: CACTI access
energies for the SRAMs and a published per-component breakdown of the
Ariane RISC-V core for the pipeline.  We use constants of the same relative
magnitude (pJ, 32 nm-ish); the absolute scale is arbitrary but the *ratios*
carry the paper's conclusions:

* an inet forward (32-bit register read + write) costs far less than an
  I-cache hit plus frontend activity — this is the vector groups' saving;
* scratchpad staging costs real energy — this is why NV_PF burns more than
  NV (Figure 10c);
* a w-wide vector load costs the LLC as much as w scalar loads;
* SIMD instructions pay functional-unit and writeback energy per lane but
  amortize the rest of the pipeline.

Accounting rules from the paper:

* cores in vector mode omit fetch + I-cache energy (instructions executed
  minus instructions fetched = instructions received over the inet);
* MUL/DIV energy scales with their cycle counts;
* DRAM is off-chip and excluded from the "total on-chip energy" figure but
  reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..manycore.config import MachineConfig
from ..manycore.stats import RunStats


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies in picojoules."""

    frontend: float = 6.0       # fetch/decode pipeline, per fetched instr
    icache: float = 16.0        # I-cache hit, per fetch
    inet_forward: float = 1.5   # one inet hop: 32-bit reg read + write
    pipeline_base: float = 4.0  # issue/commit/regfile, per executed instr
    int_alu: float = 2.0
    mul: float = 5.0            # per cycle of multiplier activity
    div: float = 2.5            # per cycle of divider activity
    fp: float = 6.0
    mem_unit: float = 3.0       # AGU + LSQ per memory instruction
    spad_word: float = 6.0      # scratchpad access per word
    llc_word: float = 20.0      # LLC access per word
    noc_word_hop: float = 1.0   # moving one word one router hop
    dram_word: float = 120.0    # off-chip, reported separately
    mul_cycles: int = 2
    div_cycles: int = 20
    simd_lane_alu: float = 2.0  # per-lane FU+writeback adder for SIMD ops


@dataclass
class EnergyBreakdown:
    """Joules (well, picojoules) by component."""

    frontend: float = 0.0
    icache: float = 0.0
    inet: float = 0.0
    pipeline: float = 0.0
    alu: float = 0.0
    spad: float = 0.0
    llc: float = 0.0
    noc: float = 0.0
    dram: float = 0.0

    @property
    def on_chip_total(self) -> float:
        """The paper's "total on-chip energy" (Figure 10c) excludes DRAM."""
        return (self.frontend + self.icache + self.inet + self.pipeline +
                self.alu + self.spad + self.llc + self.noc)

    @property
    def total(self) -> float:
        return self.on_chip_total + self.dram

    def as_dict(self) -> Dict[str, float]:
        return {k: getattr(self, k) for k in
                ('frontend', 'icache', 'inet', 'pipeline', 'alu', 'spad',
                 'llc', 'noc', 'dram')}


class EnergyModel:
    """Turn run statistics into an energy breakdown."""

    def __init__(self, params: EnergyParams = EnergyParams()):
        self.p = params

    def compute(self, stats: RunStats,
                cfg: MachineConfig) -> EnergyBreakdown:
        p = self.p
        e = EnergyBreakdown()
        for cs in stats.cores.values():
            fetched = cs.icache_accesses
            executed = cs.instrs
            received = max(0, executed - fetched)  # arrived over the inet
            e.frontend += p.frontend * fetched
            e.icache += p.icache * fetched
            e.inet += p.inet_forward * (received + cs.inet_forwards)
            e.pipeline += p.pipeline_base * executed
            e.alu += (p.int_alu * cs.n_int_alu +
                      p.mul * p.mul_cycles * cs.n_mul +
                      p.div * p.div_cycles * cs.n_div +
                      p.fp * cs.n_fp +
                      p.int_alu * cs.n_control)
            # SIMD: per-lane FU + writeback, shared front/issue energy
            e.alu += ((p.simd_lane_alu * cfg.simd_width + p.fp) *
                      cs.n_simd)
            e.pipeline += p.mem_unit * cs.n_mem
            e.spad += p.spad_word * (cs.spad_reads + cs.spad_writes)
        m = stats.mem
        e.llc += p.llc_word * (m.llc_word_reads + m.llc_word_writes)
        e.llc += p.llc_word * 0.25 * m.llc_accesses  # tag/control overhead
        e.noc += p.noc_word_hop * stats.noc_word_hops
        e.dram += (p.dram_word * cfg.line_words *
                   (m.dram_lines_read + m.dram_lines_written))
        return e


def compute_energy(stats: RunStats, cfg: MachineConfig,
                   params: EnergyParams = EnergyParams()) -> EnergyBreakdown:
    """Convenience wrapper used by the harness."""
    return EnergyModel(params).compute(stats, cfg)
