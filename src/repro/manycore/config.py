"""Machine configuration for the manycore / Rockcress model.

Defaults mirror Table 1a of the paper.  Sizes are expressed in bytes in the
public fields (as in the paper) and converted to 4-byte words internally,
since the simulator is word-addressed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

WORD_BYTES = 4


@dataclass(frozen=True)
class MachineConfig:
    """Microarchitectural parameters (paper Table 1a)."""

    # fabric geometry
    mesh_width: int = 8
    mesh_height: int = 8

    # functional unit latencies (cycles)
    alu_latency: int = 1
    mul_latency: int = 2
    div_latency: int = 20
    fp_alu_latency: int = 3
    fp_mul_latency: int = 3

    # per-core SIMD (PCV)
    simd_width: int = 4
    simd_alu_latency: int = 3

    # queues
    load_queue_entries: int = 2
    inet_queue_entries: int = 2

    # caches / scratchpad
    cache_line_bytes: int = 64
    icache_capacity_bytes: int = 4096
    icache_hit_latency: int = 1
    icache_ways: int = 2
    spad_capacity_bytes: int = 4096
    spad_hit_latency: int = 2

    # network
    router_hop_latency: int = 1
    noc_width_words: int = 4

    # LLC
    llc_capacity_bytes: int = 256 * 1024
    llc_banks: int = 16
    llc_hit_latency: int = 1
    llc_ways: int = 4

    # DRAM (16 GB/s @ 1 GHz = 16 B/cycle = 4 words/cycle; 60 ns = 60 cycles)
    dram_latency: int = 60
    dram_bandwidth_words_per_cycle: float = 4.0

    # SDV / DAE parameters (paper Section 3.3)
    frame_counters: int = 5

    # pipeline constants used by the Section 4.2 synchronization bound
    pipeline_buf_total: int = 8  # sum of decode/rename/issue/commit buffers
    rob_entries: int = 8

    # modeling knobs (ablations)
    branch_bubble: int = 2
    expander_pause_on_branch: bool = True
    ideal_llc_ports: bool = False  # if True, no response-port serialization

    @property
    def num_cores(self) -> int:
        return self.mesh_width * self.mesh_height

    @property
    def line_words(self) -> int:
        return self.cache_line_bytes // WORD_BYTES

    @property
    def spad_words(self) -> int:
        return self.spad_capacity_bytes // WORD_BYTES

    @property
    def llc_sets_per_bank(self) -> int:
        lines = self.llc_capacity_bytes // self.cache_line_bytes
        per_bank = max(1, lines // self.llc_banks)
        return max(1, per_bank // self.llc_ways)

    def scaled(self, **overrides) -> 'MachineConfig':
        """Return a copy with some fields overridden (for sweeps)."""
        return replace(self, **overrides)


#: The paper's Table 1a machine.
DEFAULT_CONFIG = MachineConfig()


def small_config(mesh: int = 4, **overrides) -> MachineConfig:
    """A shrunken machine for unit tests: 4x4 mesh, small caches."""
    base = dict(
        mesh_width=mesh,
        mesh_height=mesh,
        llc_capacity_bytes=16 * 1024,
        llc_banks=4,
    )
    base.update(overrides)
    return MachineConfig(**base)
