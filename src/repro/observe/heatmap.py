"""Grid-shaped congestion heatmaps with ASCII rendering.

Three fabric surfaces get spatial views:

* **NoC link utilization** — words moved per mesh link, accumulated by
  walking each memory request/response's XY dimension-ordered route at
  drain time (the hot path only records *which* request moved; routes
  are recomputed lazily from the static topology).
* **LLC bank occupancy** — resident lines per bank, pulled from
  ``bank.resident_lines()`` at snapshot boundaries.
* **Inet backpressure** — per-tile sender-stall cycles, read from the
  per-core stall taxonomy at snapshot boundaries.

A :class:`Heatmap` is just a dense ``width x height`` float grid plus a
title; :meth:`render` shades cells with a 10-step ASCII ramp normalized
to the hottest cell, which is enough to spot a hot bank column or a
congested mesh quadrant from a terminal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: dark -> hot shading ramp (index 0 is "no traffic")
RAMP = ' .:-=+*#%@'


class Heatmap:
    """A dense ``width x height`` grid of non-negative intensities."""

    __slots__ = ('title', 'width', 'height', 'cells', 'unit')

    def __init__(self, title: str, width: int, height: int,
                 unit: str = ''):
        self.title = title
        self.width = width
        self.height = height
        self.unit = unit
        self.cells = [[0.0] * width for _ in range(height)]

    def add(self, x: int, y: int, v: float = 1.0) -> None:
        self.cells[y][x] += v

    def set(self, x: int, y: int, v: float) -> None:
        self.cells[y][x] = v

    def clear(self) -> None:
        for row in self.cells:
            for x in range(self.width):
                row[x] = 0.0

    def peak(self) -> float:
        return max((v for row in self.cells for v in row), default=0.0)

    def total(self) -> float:
        return sum(v for row in self.cells for v in row)

    def to_dict(self) -> dict:
        return {'title': self.title, 'width': self.width,
                'height': self.height, 'unit': self.unit,
                'peak': self.peak(), 'total': self.total(),
                'cells': [[round(v, 3) for v in row]
                          for row in self.cells]}

    def render(self, indent: str = '  ') -> str:
        """Shaded ASCII grid, normalized to the hottest cell."""
        peak = self.peak()
        lines = [f'{self.title}  (peak {peak:.0f}'
                 f'{" " + self.unit if self.unit else ""})']
        hi = len(RAMP) - 1
        for row in self.cells:
            chars = []
            for v in row:
                if peak <= 0 or v <= 0:
                    chars.append(RAMP[0])
                else:
                    chars.append(RAMP[max(1, round(v / peak * hi))])
            lines.append(indent + ' '.join(chars))
        return '\n'.join(lines)


class LinkHeatmap:
    """Per-link NoC word counts, projected onto a per-node grid.

    Links are undirected ``(node_a, node_b)`` pairs where a node is a
    mesh coordinate ``(col, row)``; LLC banks sit on virtual rows ``-1``
    (top edge) and ``height`` (bottom edge).  The grid view charges each
    link's words to both endpoints that lie inside the mesh, which makes
    congested routers visually hot without needing per-edge glyphs.
    """

    __slots__ = ('width', 'height', 'links')

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.links: Dict[Tuple[Tuple[int, int], Tuple[int, int]],
                         float] = {}

    def add_route(self, links, words: float) -> None:
        for a, b in links:
            key = (a, b) if a <= b else (b, a)
            self.links[key] = self.links.get(key, 0.0) + words

    def clear(self) -> None:
        self.links.clear()

    def to_grid(self) -> Heatmap:
        hm = Heatmap('noc link utilization', self.width, self.height,
                     unit='words')
        for (a, b), words in self.links.items():
            for col, row in (a, b):
                if 0 <= row < self.height:
                    hm.add(col, row, words)
        return hm

    def top_links(self, n: int = 5) -> List[dict]:
        ranked = sorted(self.links.items(),
                        key=lambda kv: (-kv[1], kv[0]))[:n]
        return [{'a': list(a), 'b': list(b), 'words': round(w, 1)}
                for (a, b), w in ranked]

    def to_dict(self) -> dict:
        return {'n_links': len(self.links),
                'total_words': round(sum(self.links.values()), 1),
                'top_links': self.top_links(),
                'grid': self.to_grid().to_dict()}
