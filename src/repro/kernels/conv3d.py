"""3dconv: 27-tap convolution over a volume.

The (plane, row) output space is flattened so the 2D row-stencil templates
apply: output "row" r = p*N + i, and an input tap at (p+dp, i+di) is just a
row shift of dp*N + di.  Boundary planes/rows are masked via the templates'
``row_valid`` modular check.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import Benchmark, Workspace
from .vector_templates import StencilSection


def conv3d_sections(base: int, n: int, m: int):
    sections: List[StencilSection] = []
    coeffs: List[float] = []
    for dp in (-1, 0, 1):
        w = float(refs.PLANE3D[dp + 1])
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                sections.append(StencilSection(base, m, dp * n + di, dj))
                coeffs.append(w * float(refs.C2D[di + 1, dj + 1]))
    return sections, coeffs


class Conv3d(Benchmark):
    name = '3dconv'
    test_params = {'p': 4, 'n': 4, 'm': 16}
    bench_params = {'p': 6, 'n': 8, 'm': 32}

    def setup(self, fabric: Fabric, params) -> Workspace:
        p, n, m = params['p'], params['n'], params['m']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((p, n, m)))
        self.alloc_zeros(fabric, ws, 'B', p * n * m)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        return {'B': refs.conv3d(ws.inputs['A'])}

    def phases(self, ws: Workspace, params):
        p, n, m = params['p'], params['n'], params['m']
        sections, coeffs = conv3d_sections(ws.base('A'), n, m)
        row0 = n + 1                        # first interior (plane 1, row 1)
        last = (p - 1) * n - 2              # last interior (plane p-2, n-2)
        n_out = last - row0 + 1
        return [('stencil', dict(
            name='conv3d', n_out_rows=n_out, row0=row0, ncols=m,
            sections=sections, coeffs=coeffs, out_base=ws.base('B'),
            out_stride=m, jlo=1, jhi=m - 1, row_valid=(n, 1, n - 1),
            fit_rows=n_out))]
