"""mvt: x1 += A.y1 ; x2 += A^T.y2."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import MAX_LANES, Benchmark, Workspace
from .vector_templates import MatTerm


class Mvt(Benchmark):
    name = 'mvt'
    test_params = {'n': 16}
    bench_params = {'n': 64}

    def setup(self, fabric: Fabric, params) -> Workspace:
        n = params['n']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((n, n)))
        self.alloc_np(fabric, ws, 'x1', g.random(n))
        self.alloc_np(fabric, ws, 'x2', g.random(n))
        self.alloc_np(fabric, ws, 'y1', g.random(n))
        self.alloc_np(fabric, ws, 'y2', g.random(n))
        self.alloc_zeros(fabric, ws, 'p1', n * MAX_LANES)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        x1, x2 = refs.mvt(ws.inputs['A'], ws.inputs['x1'], ws.inputs['x2'],
                          ws.inputs['y1'], ws.inputs['y2'])
        return {'x1': x1, 'x2': x2}

    def phases(self, ws: Workspace, params):
        n = params['n']
        return [
            ('rowdot', dict(
                name='mvt_r', nrows=n, ncols=n, mats=[(ws.base('A'), n)],
                vec_base=ws.base('y1'), partials_bases=[ws.base('p1')],
                coeffs=[1.0], out_base=ws.base('x1'), accumulate=True)),
            ('matmul', dict(
                name='mvt_m', ni=1, nj=n, nk=n,
                terms=[MatTerm(ws.base('y2'), 0, ws.base('A'), n)],
                out_base=ws.base('x2'), out_stride=n, beta=1.0)),
        ]

    def footprint_words(self, params, lanes: int) -> int:
        n = params['n']
        return n * n + 6 * n + n * lanes
