"""gesummv: y = alpha*A.x + beta*B.x — two fused matvecs per row."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import MAX_LANES, Benchmark, Workspace

ALPHA = 1.5
BETA = 1.2


class Gesummv(Benchmark):
    name = 'gesummv'
    test_params = {'n': 16}
    bench_params = {'n': 64}

    def setup(self, fabric: Fabric, params) -> Workspace:
        n = params['n']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((n, n)))
        self.alloc_np(fabric, ws, 'B', g.random((n, n)))
        self.alloc_np(fabric, ws, 'x', g.random(n))
        self.alloc_zeros(fabric, ws, 'y', n)
        self.alloc_zeros(fabric, ws, 'pA', n * MAX_LANES)
        self.alloc_zeros(fabric, ws, 'pB', n * MAX_LANES)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        y = refs.gesummv(ws.inputs['A'], ws.inputs['B'], ws.inputs['x'],
                         ALPHA, BETA)
        return {'y': y}

    def phases(self, ws: Workspace, params):
        n = params['n']
        return [('rowdot', dict(
            name='gesummv', nrows=n, ncols=n,
            mats=[(ws.base('A'), n), (ws.base('B'), n)],
            vec_base=ws.base('x'),
            partials_bases=[ws.base('pA'), ws.base('pB')],
            coeffs=[ALPHA, BETA], out_base=ws.base('y')))]

    def footprint_words(self, params, lanes: int) -> int:
        n = params['n']
        return 2 * n * n + 4 * n + 2 * n * lanes
