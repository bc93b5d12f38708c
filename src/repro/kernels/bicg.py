"""bicg: s = A^T r ; q = A p (the BiCG kernel's two matvecs)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import MAX_LANES, Benchmark, Workspace
from .vector_templates import MatTerm


class Bicg(Benchmark):
    name = 'bicg'
    test_params = {'n': 16}
    bench_params = {'n': 64}

    def setup(self, fabric: Fabric, params) -> Workspace:
        n = params['n']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((n, n)))
        self.alloc_np(fabric, ws, 'r', g.random(n))
        self.alloc_np(fabric, ws, 'p', g.random(n))
        self.alloc_zeros(fabric, ws, 's', n)
        self.alloc_zeros(fabric, ws, 'q', n)
        self.alloc_zeros(fabric, ws, 'pq', n * MAX_LANES)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        s, q = refs.bicg(ws.inputs['A'], ws.inputs['r'], ws.inputs['p'])
        return {'s': s, 'q': q}

    def phases(self, ws: Workspace, params):
        n = params['n']
        return [
            ('matmul', dict(
                name='bicg_m', ni=1, nj=n, nk=n,
                terms=[MatTerm(ws.base('r'), 0, ws.base('A'), n)],
                out_base=ws.base('s'), out_stride=n)),
            ('rowdot', dict(
                name='bicg_r', nrows=n, ncols=n, mats=[(ws.base('A'), n)],
                vec_base=ws.base('p'), partials_bases=[ws.base('pq')],
                coeffs=[1.0], out_base=ws.base('q'))),
        ]

    def footprint_words(self, params, lanes: int) -> int:
        n = params['n']
        return n * n + 6 * n + n * lanes
