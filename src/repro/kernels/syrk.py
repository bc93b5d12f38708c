"""syrk: symmetric rank-K update, C = beta*C + alpha*A.A^T.

Memory opt (paper Table 2): transpose — a MIMD pre-kernel materializes A^T
so the main kernel streams the group operand row-contiguously.
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


class Syrk(Benchmark):
    name = 'syrk'
    test_params = {'n': 16, 'm': 8}
    bench_params = {'n': 64, 'm': 16}  # n % 64 == 0 for long lines

    def setup(self, fabric: Fabric, params) -> Workspace:
        n, m = params['n'], params['m']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((n, m)))
        self.alloc_np(fabric, ws, 'C', g.random((n, n)))
        self.alloc_zeros(fabric, ws, 'AT', m * n)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        return {'C': refs.syrk(ws.inputs['A'], ws.inputs['C'], ALPHA, BETA)}

    def phases(self, ws: Workspace, params):
        n, m = params['n'], params['m']
        return [
            ('transpose', dict(src=ws.base('A'), dst=ws.base('AT'),
                               n=n, m=m)),
            ('matmul', dict(
                name='syrk', ni=n, nj=n, nk=m,
                terms=[MatTerm(ws.base('A'), m, ws.base('AT'), n)],
                out_base=ws.base('C'), out_stride=n,
                alpha=ALPHA, beta=BETA)),
        ]

    def footprint_words(self, params, lanes: int) -> int:
        n, m = params['n'], params['m']
        return 3 * n * m + 2 * n * n
