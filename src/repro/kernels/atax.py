"""atax: y = A^T (A x).

Kernel 1 (tmp = A.x) uses the cooperative row-dot division with GROUP
loads plus a MIMD partial-sum reduction; kernel 2 (y = A^T tmp) uses the
paper's loop reordering so A is still streamed row-contiguously.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import MAX_LANES, Benchmark, Workspace
from .vector_templates import MatTerm


class Atax(Benchmark):
    name = 'atax'
    test_params = {'n': 16}
    bench_params = {'n': 64}

    def setup(self, fabric: Fabric, params) -> Workspace:
        n = params['n']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((n, n)))
        self.alloc_np(fabric, ws, 'x', g.random(n))
        self.alloc_zeros(fabric, ws, 'tmp', n)
        self.alloc_zeros(fabric, ws, 'y', n)
        self.alloc_zeros(fabric, ws, 'p0', n * MAX_LANES)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        tmp, y = refs.atax(ws.inputs['A'], ws.inputs['x'])
        return {'tmp': tmp, 'y': y}

    def phases(self, ws: Workspace, params):
        n = params['n']
        return [
            ('rowdot', dict(
                name='atax_r', nrows=n, ncols=n, mats=[(ws.base('A'), n)],
                vec_base=ws.base('x'), partials_bases=[ws.base('p0')],
                coeffs=[1.0], out_base=ws.base('tmp'))),
            ('matmul', dict(
                name='atax_m', ni=1, nj=n, nk=n,
                terms=[MatTerm(ws.base('tmp'), 0, ws.base('A'), n)],
                out_base=ws.base('y'), out_stride=n)),
        ]

    def footprint_words(self, params, lanes: int) -> int:
        n = params['n']
        return n * n + 6 * n + n * lanes
