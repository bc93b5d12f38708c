"""bfs: breadth-first search over a CSR digraph (paper Section 6.6).

The irregular counter-example: per-vertex degrees vary, so lockstep vector
execution must pad every vertex to the maximum degree and predicate away
the slack, while plain MIMD cores just loop each vertex's real edge list.
The paper measures the manycore (NV) 2.9x faster than either vector
configuration — the benchmark exists to show when *not* to form groups.

Level-synchronous vertex-scan formulation: depth[w] updates race benignly
(every writer stores the same ``level + 1``), and the level count is the
graph's eccentricity from the source, known from the reference run.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..isa import Assembler, Program, opcodes as op
from ..manycore import Fabric
from . import refs
from .base import Benchmark, VectorParams, Workspace
from .codegen import MimdKernelBuilder, strided_loop


class Bfs(Benchmark):
    name = 'bfs'
    test_params = {'v': 48, 'deg': 3}
    bench_params = {'v': 256, 'deg': 4}

    def setup(self, fabric: Fabric, params) -> Workspace:
        v, deg = params['v'], params['deg']
        row_ptr, col_idx = refs.synthetic_graph(v, deg)
        depth0 = [-1] * v
        depth0[0] = 0
        ws = Workspace()
        ws.bases['rp'] = fabric.alloc([float(x) for x in row_ptr])
        ws.bases['col'] = fabric.alloc([float(x) for x in col_idx])
        ws.bases['depth'] = fabric.alloc([float(x) for x in depth0])
        ws.meta['row_ptr'] = row_ptr
        ws.meta['col_idx'] = col_idx
        ws.meta['depths'] = refs.bfs_depths(row_ptr, col_idx)
        ws.meta['levels'] = max(ws.meta['depths']) + 1
        ws.meta['maxdeg'] = max(row_ptr[i + 1] - row_ptr[i]
                                for i in range(v))
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        return {'depth': np.array(ws.meta['depths'], dtype=float)}

    def build_mimd(self, fabric, ws, params, *, prefetch, pcv=False):
        v = params['v']
        rp, col, depth = ws.bases['rp'], ws.bases['col'], ws.bases['depth']
        mb = MimdKernelBuilder()

        def explore(a: Assembler):
            with strided_loop(a, v):
                skip = a.label()
                a.li('x5', depth)
                a.add('x5', 'x5', 'x3')
                a.lw('x6', 'x5', 0)
                a.bne('x6', 'x19', skip.name)   # depth[v] == level?
                a.li('x7', rp)
                a.add('x7', 'x7', 'x3')
                a.lw('x8', 'x7', 0)             # edge range [x8, x9)
                a.lw('x9', 'x7', 1)
                etop = a.label()
                edone = a.label()
                a.bind(etop)
                a.bge('x8', 'x9', edone.name)
                a.li('x10', col)
                a.add('x10', 'x10', 'x8')
                a.lw('x11', 'x10', 0)           # w
                a.li('x12', depth)
                a.add('x12', 'x12', 'x11')
                a.lw('x13', 'x12', 0)           # depth[w]
                visited = a.label()
                a.bge('x13', 'x0', visited.name)
                a.addi('x14', 'x19', 1)
                a.sw('x14', 'x12', 0)
                a.bind(visited)
                a.addi('x8', 'x8', 1)
                a.j(etop.name)
                a.bind(edone)
                a.bind(skip)

        with mb.loop(ws.meta['levels']):
            mb.add_kernel(explore)
        return mb.build()

    def build_vector(self, fabric, ws, params, vp: VectorParams) -> Program:
        v = params['v']
        rp, col, depth = ws.bases['rp'], ws.bases['col'], ws.bases['depth']
        maxdeg = ws.meta['maxdeg']
        b = self.make_vector_builder(fabric, vp, params)
        total_lanes = len(b.groups) * b.lanes
        vtrips = (v + total_lanes - 1) // total_lanes
        p = b.program()
        with p.loop(ws.meta['levels']):
            p.vector_phase(lambda a, g: a.vissue('.bfs_level'),
                           frame_size=4)

        def microthreads(a: Assembler):
            a.bind('.bfs_level')
            a.csrr('x29', op.CSR_TID)
            a.csrr('x5', op.CSR_GROUP_ID)
            a.li('x6', b.lanes)
            a.mul('x5', 'x5', 'x6')
            a.add('x3', 'x5', 'x29')            # vertex = global lane id
            for _ in range(vtrips):
                # active = (v in range) && (depth[v] == level)
                a.li('x31', v)
                a.slt('x4', 'x3', 'x31')        # in range
                a.mul('x27', 'x3', 'x4')        # clamp: vertex 0 when not
                a.li('x5', depth)
                a.add('x5', 'x5', 'x27')
                a.lw('x6', 'x5', 0)
                a.slt('x7', 'x6', 'x19')
                a.slt('x12', 'x19', 'x6')
                a.or_('x7', 'x7', 'x12')
                a.slti('x7', 'x7', 1)           # depth[v] == level
                a.and_('x4', 'x4', 'x7')
                a.li('x8', rp)
                a.add('x8', 'x8', 'x27')
                a.lw('x9', 'x8', 0)             # rs
                a.lw('x10', 'x8', 1)            # re
                # lockstep edge scan padded to the max degree
                for e in range(maxdeg):
                    a.addi('x11', 'x9', e)
                    a.slt('x12', 'x11', 'x10')  # e within this vertex?
                    a.and_('x12', 'x12', 'x4')
                    a.mul('x11', 'x11', 'x12')  # clamp edge index
                    a.li('x13', col)
                    a.add('x13', 'x13', 'x11')
                    a.lw('x14', 'x13', 0)       # w
                    a.li('x15', depth)
                    a.add('x15', 'x15', 'x14')
                    a.lw('x16', 'x15', 0)       # depth[w]
                    a.slt('x17', 'x16', 'x0')   # unvisited?
                    a.and_('x12', 'x12', 'x17')
                    a.addi('x26', 'x19', 1)
                    a.pred_neq('x12', 'x0')
                    a.sw('x26', 'x15', 0)
                    a.pred_eq('x0', 'x0')
                a.li('x7', total_lanes)
                a.add('x3', 'x3', 'x7')
            a.vend()

        return p.finish(microthreads)
