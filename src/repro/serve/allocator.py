"""First-fit region allocator over the mesh serpentine.

Vector groups need mesh-adjacent tile runs (the inet is a static
neighbour network), and any contiguous run of the serpentine walk is
mesh-adjacent — so the allocator's universe is the serpentine order of
:func:`repro.core.vgroup.serpentine_order`, and a *region* is a
contiguous interval of serpentine positions.  This turns rectangular
carving into one-dimensional first-fit with exact fragmentation
accounting: a request can be blocked either because the fabric is
genuinely full or because the free tiles exist but no run is long
enough (external fragmentation), and the two are counted separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.vgroup import serpentine_order


@dataclass(frozen=True)
class Region:
    """A leased run of the serpentine: ``positions`` are serpentine
    indices, ``core_ids`` the tile ids in path (adjacency) order."""

    start: int
    length: int
    core_ids: Tuple[int, ...]

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass
class AllocStats:
    """Cumulative allocator accounting for the serving report."""

    allocs: int = 0
    frees: int = 0
    #: alloc attempts that failed although enough tiles were free in
    #: total — the external-fragmentation signature
    frag_failures: int = 0
    #: alloc attempts that failed with genuinely too few free tiles
    capacity_failures: int = 0
    peak_tiles_busy: int = 0


class RegionAllocator:
    """First-fit contiguous carving of a ``width x height`` mesh."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.order = serpentine_order(width, height)
        self.num_tiles = width * height
        # free intervals as (start, length), sorted by start, coalesced
        self._free: List[Tuple[int, int]] = [(0, self.num_tiles)]
        self.stats = AllocStats()

    # ------------------------------------------------------------- accounting
    @property
    def free_tiles(self) -> int:
        return sum(n for _, n in self._free)

    @property
    def busy_tiles(self) -> int:
        return self.num_tiles - self.free_tiles

    @property
    def largest_free_run(self) -> int:
        return max((n for _, n in self._free), default=0)

    def fragmentation(self) -> float:
        """1 - largest_run / free_total; 0 when free space is one run."""
        free = self.free_tiles
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_run / free

    # ------------------------------------------------------------- allocation
    def alloc(self, n: int) -> Optional[Region]:
        """Lease the first free run of at least ``n`` tiles, or None."""
        if n <= 0:
            raise ValueError(f'cannot allocate {n} tiles')
        for i, (start, length) in enumerate(self._free):
            if length >= n:
                if length == n:
                    del self._free[i]
                else:
                    self._free[i] = (start + n, length - n)
                self.stats.allocs += 1
                busy = self.busy_tiles
                if busy > self.stats.peak_tiles_busy:
                    self.stats.peak_tiles_busy = busy
                cores = tuple(self.order[start:start + n])
                return Region(start, n, cores)
        if self.free_tiles >= n:
            self.stats.frag_failures += 1
        else:
            self.stats.capacity_failures += 1
        return None

    def free(self, region: Region) -> None:
        """Return a leased region; adjacent free intervals coalesce."""
        start, length = region.start, region.length
        for s, n in self._free:
            if start < s + n and s < start + length:
                raise ValueError(f'double free of serpentine run '
                                 f'[{start}, {start + length})')
        self._free.append((start, length))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for s, n in self._free:
            if merged and merged[-1][0] + merged[-1][1] == s:
                merged[-1] = (merged[-1][0], merged[-1][1] + n)
            else:
                merged.append((s, n))
        self._free = merged
        self.stats.frees += 1

    def snapshot(self) -> dict:
        """Point-in-time view for reports and debugging."""
        return {'free_tiles': self.free_tiles,
                'busy_tiles': self.busy_tiles,
                'largest_free_run': self.largest_free_run,
                'fragmentation': self.fragmentation(),
                'free_runs': [list(iv) for iv in self._free]}
