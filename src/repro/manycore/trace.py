"""Instruction tracing for debugging kernels on the fabric.

Attach a :class:`Tracer` to a fabric before ``run()`` to record every
issued instruction (optionally filtered by core or cycle window), then
render the interleaved trace:

>>> fabric = Fabric(small_config())          # doctest: +SKIP
>>> tracer = Tracer(cores=[0, 1], limit=200)  # doctest: +SKIP
>>> tracer.attach(fabric)                     # doctest: +SKIP
>>> fabric.run()                              # doctest: +SKIP
>>> print(tracer.render())                    # doctest: +SKIP

The tracer is a consumer of the probe plane's ``issue`` fact: attached,
every issued instruction costs one queued tuple and the filters run when
the plane drains; detached, the issue site pays one attribute read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.vgroup import ROLE_NAMES
from ..isa.instruction import disasm
from .probes import Consumer


@dataclass
class TraceEntry:
    cycle: int
    core: int
    mode: int
    text: str

    def __str__(self):
        role = ROLE_NAMES.get(self.mode, '?')[0].upper()
        return f'{self.cycle:8d} c{self.core:02d}[{role}] {self.text}'


class Tracer(Consumer):
    """Collects issued instructions from selected cores."""

    facts = ('issue',)

    def __init__(self, cores: Optional[Sequence[int]] = None,
                 start: int = 0, stop: int = 1 << 60,
                 limit: int = 100_000):
        self.cores = set(cores) if cores is not None else None
        self.start = start
        self.stop = stop
        self.limit = limit
        self.entries: List[TraceEntry] = []
        self.dropped = 0   # hit the entry limit
        self.filtered = 0  # failed the core/cycle filters

    def attach(self, fabric) -> 'Tracer':
        fabric.probes.attach(self)
        return self

    def fold(self, batches) -> None:
        for cycle, core, inst, mode in batches.get('issue', ()):
            if self.cores is not None and core not in self.cores:
                self.filtered += 1
            elif not self.start <= cycle < self.stop:
                self.filtered += 1
            elif len(self.entries) >= self.limit:
                self.dropped += 1
            else:
                self.entries.append(
                    TraceEntry(cycle, core, mode, disasm(inst)))

    def render(self, last: Optional[int] = None) -> str:
        entries = self.entries[-last:] if last else self.entries
        lines = [str(e) for e in entries]
        if self.dropped:
            lines.append(f'... {self.dropped} entries dropped (limit '
                         f'{self.limit})')
        if self.filtered:
            lines.append(f'... {self.filtered} entries filtered '
                         f'(core/cycle filters)')
        return '\n'.join(lines)

    def per_core(self, core: int) -> List[TraceEntry]:
        return [e for e in self.entries if e.core == core]

    def __len__(self):
        return len(self.entries)
