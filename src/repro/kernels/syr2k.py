"""syr2k: symmetric rank-2K update, C = beta*C + alpha*(A.B^T + B.A^T).

Two product terms per output element; both transposes are materialized by
a MIMD pre-kernel (paper's transpose memory optimization).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import Benchmark, Workspace
from .vector_templates import MatTerm

ALPHA = 1.5
BETA = 1.2


class Syr2k(Benchmark):
    name = 'syr2k'
    test_params = {'n': 16, 'm': 8}
    bench_params = {'n': 64, 'm': 12}  # n % 64 == 0 for long lines

    def setup(self, fabric: Fabric, params) -> Workspace:
        n, m = params['n'], params['m']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((n, m)))
        self.alloc_np(fabric, ws, 'B', g.random((n, m)))
        self.alloc_np(fabric, ws, 'C', g.random((n, n)))
        self.alloc_zeros(fabric, ws, 'AT', m * n)
        self.alloc_zeros(fabric, ws, 'BT', m * n)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        c = refs.syr2k(ws.inputs['A'], ws.inputs['B'], ws.inputs['C'],
                       ALPHA, BETA)
        return {'C': c}

    def phases(self, ws: Workspace, params):
        n, m = params['n'], params['m']
        return [
            ('transpose', dict(src=ws.base('A'), dst=ws.base('AT'),
                               n=n, m=m)),
            ('transpose', dict(src=ws.base('B'), dst=ws.base('BT'),
                               n=n, m=m)),
            ('matmul', dict(
                name='syr2k', ni=n, nj=n, nk=m,
                terms=[MatTerm(ws.base('A'), m, ws.base('BT'), n),
                       MatTerm(ws.base('B'), m, ws.base('AT'), n)],
                out_base=ws.base('C'), out_stride=n,
                alpha=ALPHA, beta=BETA)),
        ]

    def footprint_words(self, params, lanes: int) -> int:
        n, m = params['n'], params['m']
        return 6 * n * m + 2 * n * n
