"""fdtd-2d: finite-difference time-domain over tmax timesteps.

Each timestep runs four kernels separated by global barriers: the fict
boundary row, the ey and ex half-steps, and the hz update.  The ex kernel's
j-1 tap exercises the unaligned vload pair; the time loop is a run-time
loop around re-formed vector groups (the paper forms groups per kernel).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..manycore import Fabric
from . import refs
from .base import Benchmark, Workspace
from .vector_templates import StencilSection


class Fdtd2d(Benchmark):
    name = 'fdtd-2d'
    test_params = {'n': 8, 'm': 16, 'tmax': 2}
    bench_params = {'n': 16, 'm': 64, 'tmax': 3}

    def setup(self, fabric: Fabric, params) -> Workspace:
        n, m, tmax = params['n'], params['m'], params['tmax']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'ex', g.random((n, m)))
        self.alloc_np(fabric, ws, 'ey', g.random((n, m)))
        self.alloc_np(fabric, ws, 'hz', g.random((n, m)))
        self.alloc_np(fabric, ws, 'fict', g.random(tmax))
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        ex, ey, hz = refs.fdtd2d(ws.inputs['ex'], ws.inputs['ey'],
                                 ws.inputs['hz'], ws.inputs['fict'],
                                 params['tmax'])
        return {'ex': ex, 'ey': ey, 'hz': hz}

    def phases(self, ws: Workspace, params):
        n, m = params['n'], params['m']
        ex, ey, hz = ws.base('ex'), ws.base('ey'), ws.base('hz')

        def stencil(name, **kw):
            # one FLEN for the whole time step: all three stencils are
            # fitted to the grid height, not to their own row counts
            return ('stencil', dict(name='fdtd_' + name, ncols=m,
                                    out_stride=m, out_coeff_old=1.0,
                                    fit_rows=n, **kw))

        return [('loop', dict(count=params['tmax'], phases=[
            ('fict', dict(fict=ws.base('fict'), ey=ey, m=m)),
            stencil('ey', n_out_rows=n - 1, row0=1,
                    sections=[StencilSection(hz, m, 0, 0),
                              StencilSection(hz, m, -1, 0)],
                    coeffs=[-0.5, 0.5], out_base=ey, jlo=0, jhi=m),
            stencil('ex', n_out_rows=n, row0=0,
                    sections=[StencilSection(hz, m, 0, 0),
                              StencilSection(hz, m, 0, -1)],
                    coeffs=[-0.5, 0.5], out_base=ex, jlo=1, jhi=m),
            stencil('hz', n_out_rows=n - 1, row0=0,
                    sections=[StencilSection(ex, m, 0, 1),
                              StencilSection(ex, m, 0, 0),
                              StencilSection(ey, m, 1, 0),
                              StencilSection(ey, m, 0, 0)],
                    coeffs=[-0.7, 0.7, -0.7, 0.7], out_base=hz,
                    jlo=0, jhi=m - 1),
        ]))]

    def footprint_words(self, params, lanes: int) -> int:
        n, m, tmax = params['n'], params['m'], params['tmax']
        return 3 * n * m + m + tmax
