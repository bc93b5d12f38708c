"""corr and covar: column statistics + a D^T.D product.

Both compute per-column statistics in MIMD pre-kernels (the reductions are
column-strided and small compared to the O(n^2 m) product), materialize the
transpose (the paper's "Transpose" memory opt), and run the product with
the matmul-like template.  corr additionally normalizes columns and pins
the diagonal to 1 (PolyBench semantics); both use the paper's "kernel
fusion" idea by folding centering/scaling into one pass.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import Benchmark, Workspace
from .vector_templates import MatTerm


class _CorrBase(Benchmark):
    scale = True  # corr scales, covar only centers

    def setup(self, fabric: Fabric, params) -> Workspace:
        m, n = params['m'], params['n']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'data', g.random((m, n)) * 3.0)
        self.alloc_zeros(fabric, ws, 'DT', n * m)
        self.alloc_zeros(fabric, ws, 'out', n * n)
        return ws

    def phases(self, ws: Workspace, params):
        m, n = params['m'], params['n']
        data, dt, out = ws.base('data'), ws.base('DT'), ws.base('out')
        records = [
            ('column_stats', dict(data=data, m=m, n=n, scale=self.scale)),
            ('transpose', dict(src=data, dst=dt, n=m, m=n)),
            ('matmul', dict(name=self.name, ni=n, nj=n, nk=m,
                            terms=[MatTerm(dt, m, data, n)],
                            out_base=out, out_stride=n)),
        ]
        if self.scale:
            records.append(('fix_diagonal', dict(out=out, n=n)))
        return records


class Corr(_CorrBase):
    name = 'corr'
    scale = True
    test_params = {'m': 12, 'n': 16}
    bench_params = {'m': 24, 'n': 32}

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        return {'out': refs.correlation(ws.inputs['data'])}


class Covar(_CorrBase):
    name = 'covar'
    scale = False
    test_params = {'m': 12, 'n': 16}
    bench_params = {'m': 24, 'n': 32}

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        return {'out': refs.covariance(ws.inputs['data'])}
