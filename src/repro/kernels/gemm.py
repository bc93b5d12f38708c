"""gemm: C = alpha*A.B + beta*C (paper Table 2, 256x256 inputs).

Algorithm opt (paper): tiled outer product; each lane owns FLEN columns of
an output row and the scalar core streams rows of B with GROUP loads while
broadcasting A[i][k] chunks with SINGLE loads.
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


class Gemm(Benchmark):
    name = 'gemm'
    test_params = {'ni': 8, 'nj': 16, 'nk': 8}
    bench_params = {'ni': 32, 'nj': 32, 'nk': 24}

    def setup(self, fabric: Fabric, params: Dict[str, int]) -> Workspace:
        ni, nj, nk = params['ni'], params['nj'], params['nk']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((ni, nk)))
        self.alloc_np(fabric, ws, 'B', g.random((nk, nj)))
        self.alloc_np(fabric, ws, 'C', g.random((ni, nj)))
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        c = refs.gemm(ws.inputs['A'], ws.inputs['B'], ws.inputs['C'],
                      ALPHA, BETA)
        return {'C': c}

    def phases(self, ws: Workspace, params):
        ni, nj, nk = params['ni'], params['nj'], params['nk']
        return [('matmul', dict(
            name='gemm', ni=ni, nj=nj, nk=nk,
            terms=[MatTerm(bcast_base=ws.base('A'), bcast_stride=nk,
                           group_base=ws.base('B'), group_stride=nj)],
            out_base=ws.base('C'), out_stride=nj, alpha=ALPHA, beta=BETA))]

    def footprint_words(self, params, lanes: int) -> int:
        ni, nj, nk = params['ni'], params['nj'], params['nk']
        return ni * nk + nk * nj + 2 * ni * nj

    def mt_body_estimate(self, params, lanes: int) -> int:
        flen = 16 // lanes if lanes <= 16 else 1
        return 4 * (1 + 2 * flen) + 3
