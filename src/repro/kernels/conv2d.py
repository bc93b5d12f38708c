"""2dconv: 3x3 convolution over an image (PolyBench/GPU coefficients).

Row chunks arrive as GROUP loads; the shifted (j±1) taps use the unaligned
vload pair.  Boundary columns/rows are masked with predication (vector) or
branches (MIMD).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import Benchmark, Workspace
from .vector_templates import StencilSection


def conv2d_sections(base: int, stride: int):
    sections: List[StencilSection] = []
    coeffs: List[float] = []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            sections.append(StencilSection(base, stride, di, dj))
            coeffs.append(float(refs.C2D[di + 1, dj + 1]))
    return sections, coeffs


class Conv2d(Benchmark):
    name = '2dconv'
    test_params = {'n': 8, 'm': 16}
    bench_params = {'n': 16, 'm': 64}

    def setup(self, fabric: Fabric, params) -> Workspace:
        n, m = params['n'], params['m']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((n, m)))
        self.alloc_zeros(fabric, ws, 'B', n * m)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        return {'B': refs.conv2d(ws.inputs['A'])}

    def phases(self, ws: Workspace, params):
        n, m = params['n'], params['m']
        sections, coeffs = conv2d_sections(ws.base('A'), m)
        return [('stencil', dict(
            name='conv2d', n_out_rows=n - 2, row0=1, ncols=m,
            sections=sections, coeffs=coeffs, out_base=ws.base('B'),
            out_stride=m, jlo=1, jhi=m - 1, fit_rows=n - 2))]

    def footprint_words(self, params, lanes: int) -> int:
        return 2 * params['n'] * params['m']
