"""The benchmark configuration registry (paper Table 3).

==============  =====  =====  ======  ====  =====
config          group  SIMD   wide    DAE   long
name            size   words  access        lines
==============  =====  =====  ======  ====  =====
NV              1      1
NV_PF           1      1      x
PCV_PF          1      4      x
V4              4      1      x       x
V16             16     1      x       x
V4_PCV          4      4      x       x
V16_PCV         16     4      x       x
V4_LL_PCV       4      4      x       x     x
V16_LL          16     1      x       x     x
V16_LL_PCV      16     4      x       x     x
BEST_V          4/16   1      x       x     ?
BEST_V_PCV      4/16   4      x       x     ?
GPU             --     16
==============  =====  =====  ======  ====  =====

``BEST_V``/``BEST_V_PCV`` are meta-configurations: the harness runs the
member configurations and keeps the fastest, as the paper does
(Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..manycore import DEFAULT_CONFIG, MachineConfig

#: cache line used by the long-lines (LL) experiments.  The paper uses
#: 1024 B; our scaled inputs use 256 B to keep chunk spans smaller than
#: the (scaled) rows.  See EXPERIMENTS.md.
LONG_LINE_BYTES = 256


@dataclass(frozen=True)
class Config:
    """One runnable configuration."""

    name: str
    kind: str  # 'mimd' | 'vector' | 'gpu'
    prefetch: bool = False
    pcv: bool = False
    lanes: int = 0
    long_lines: bool = False

    def machine(self, base: Optional[MachineConfig] = None) -> MachineConfig:
        cfg = base or DEFAULT_CONFIG
        if self.long_lines:
            cfg = cfg.scaled(cache_line_bytes=LONG_LINE_BYTES)
        return cfg


@dataclass(frozen=True)
class MetaConfig:
    """Pick the fastest among member configurations (BEST_V style)."""

    name: str
    members: Tuple[str, ...]


NV = Config('NV', 'mimd')
NV_PF = Config('NV_PF', 'mimd', prefetch=True)
PCV_PF = Config('PCV_PF', 'mimd', prefetch=True, pcv=True)
V4 = Config('V4', 'vector', lanes=4)
V16 = Config('V16', 'vector', lanes=16)
V4_PCV = Config('V4_PCV', 'vector', lanes=4, pcv=True)
V16_PCV = Config('V16_PCV', 'vector', lanes=16, pcv=True)
V4_LL = Config('V4_LL', 'vector', lanes=4, long_lines=True)
V4_LL_PCV = Config('V4_LL_PCV', 'vector', lanes=4, pcv=True,
                   long_lines=True)
V16_LL = Config('V16_LL', 'vector', lanes=16, long_lines=True)
V16_LL_PCV = Config('V16_LL_PCV', 'vector', lanes=16, pcv=True,
                    long_lines=True)
GPU = Config('GPU', 'gpu')

BEST_V = MetaConfig('BEST_V', ('V4', 'V16'))
BEST_V_LL = MetaConfig('BEST_V_LL', ('V4', 'V16', 'V16_LL'))
BEST_V_PCV = MetaConfig('BEST_V_PCV', ('V4_PCV', 'V16_PCV'))

CONFIGS = {c.name: c for c in [NV, NV_PF, PCV_PF, V4, V16, V4_PCV,
                               V16_PCV, V4_LL, V4_LL_PCV, V16_LL,
                               V16_LL_PCV, GPU]}
META_CONFIGS = {m.name: m for m in [BEST_V, BEST_V_LL, BEST_V_PCV]}


def get(name: str):
    if name in CONFIGS:
        return CONFIGS[name]
    if name in META_CONFIGS:
        return META_CONFIGS[name]
    raise KeyError(f'unknown configuration {name!r}')
