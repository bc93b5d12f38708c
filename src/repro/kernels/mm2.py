"""2mm: two chained matrix multiplies (tmp = A.B ; E = tmp.C)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import Benchmark, Workspace
from .vector_templates import MatTerm


class Mm2(Benchmark):
    name = '2mm'
    test_params = {'ni': 8, 'nj': 16, 'nk': 8, 'nl': 16}
    bench_params = {'ni': 32, 'nj': 32, 'nk': 16, 'nl': 32}

    def setup(self, fabric: Fabric, params) -> Workspace:
        ni, nj, nk, nl = (params[k] for k in ('ni', 'nj', 'nk', 'nl'))
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((ni, nk)))
        self.alloc_np(fabric, ws, 'B', g.random((nk, nj)))
        self.alloc_np(fabric, ws, 'C', g.random((nj, nl)))
        self.alloc_zeros(fabric, ws, 'tmp', ni * nj)
        self.alloc_zeros(fabric, ws, 'E', ni * nl)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        tmp, e = refs.mm2(ws.inputs['A'], ws.inputs['B'], ws.inputs['C'])
        return {'tmp': tmp, 'E': e}

    def phases(self, ws: Workspace, params):
        ni, nj, nk, nl = (params[k] for k in ('ni', 'nj', 'nk', 'nl'))
        return [
            ('matmul', dict(
                name='mm2_0', ni=ni, nj=nj, nk=nk,
                terms=[MatTerm(ws.base('A'), nk, ws.base('B'), nj)],
                out_base=ws.base('tmp'), out_stride=nj)),
            ('matmul', dict(
                name='mm2_1', ni=ni, nj=nl, nk=nj,
                terms=[MatTerm(ws.base('tmp'), nj, ws.base('C'), nl)],
                out_base=ws.base('E'), out_stride=nl)),
        ]
