"""3mm: three matrix multiplies (E = A.B ; F = C.D ; G = E.F)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import Benchmark, Workspace
from .vector_templates import MatTerm


class Mm3(Benchmark):
    name = '3mm'
    test_params = {'n': 16}
    bench_params = {'n': 32}

    def setup(self, fabric: Fabric, params) -> Workspace:
        n = params['n']
        g = refs.rng(self.name)
        ws = Workspace()
        for name in 'ABCD':
            self.alloc_np(fabric, ws, name, g.random((n, n)))
        for name in 'EFG':
            self.alloc_zeros(fabric, ws, name, n * n)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        e, f, g = refs.mm3(ws.inputs['A'], ws.inputs['B'], ws.inputs['C'],
                           ws.inputs['D'])
        return {'E': e, 'F': f, 'G': g}

    def phases(self, ws: Workspace, params):
        n = params['n']
        pairs = [('A', 'B', 'E'), ('C', 'D', 'F'), ('E', 'F', 'G')]
        return [('matmul', dict(
            name=f'mm3_{i}', ni=n, nj=n, nk=n,
            terms=[MatTerm(ws.base(x), n, ws.base(y), n)],
            out_base=ws.base(o), out_stride=n))
            for i, (x, y, o) in enumerate(pairs)]
