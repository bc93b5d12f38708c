"""gramschm: classic Gram-Schmidt QR decomposition.

The k-loop is sequential; within one k, the orthogonalization of trailing
columns is parallelized column-wise.  The column-major access pattern
cannot use wide vector loads (paper Section 6.3: "gramschm is not able to
take advantage of vector loads due to its access pattern and must resort to
scalar loads"), so the vector version's microthreads gather with ordinary
word loads — which is exactly why it shows no DAE benefit.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..isa import Assembler, Program, opcodes as op
from ..manycore import Fabric
from . import refs
from .base import Benchmark, VectorParams, Workspace
from .codegen import MimdKernelBuilder, strided_loop
from .vector_templates import emit_fp_zero


class Gramschm(Benchmark):
    name = 'gramschm'
    test_params = {'m': 8, 'n': 8}
    bench_params = {'m': 20, 'n': 20}

    def setup(self, fabric: Fabric, params) -> Workspace:
        m, n = params['m'], params['n']
        g = refs.rng(self.name)
        ws = Workspace()
        self.alloc_np(fabric, ws, 'A', g.random((m, n)) + 0.5)
        self.alloc_zeros(fabric, ws, 'Q', m * n)
        self.alloc_zeros(fabric, ws, 'R', n * n)
        self.alloc_zeros(fabric, ws, 'pd', 64)      # per-core dot partials
        self.alloc_zeros(fabric, ws, 'nrm', 1)
        return ws

    def expected(self, ws: Workspace, params) -> Dict[str, np.ndarray]:
        q, r, a2 = refs.gramschmidt(ws.inputs['A'])
        return {'Q': q, 'R': r, 'A': a2}

    # -- per-k MIMD sub-kernels (shared by both builds) ------------------------
    def _dot_col_k(self, ws, params):
        m, n = params['m'], params['n']
        A, pd = ws.base('A'), ws.base('pd')

        def body(a: Assembler):
            # pd[tid] = sum over strided i of A[i][k]^2   (k in x19)
            emit_fp_zero(a, 'f8')
            with strided_loop(a, m):
                a.li('x5', n)
                a.mul('x5', 'x5', 'x3')
                a.add('x5', 'x5', 'x19')
                a.li('x6', A)
                a.add('x5', 'x5', 'x6')
                a.lw('f1', 'x5', 0)
                a.fma('f8', 'f1', 'f1')
            a.li('x7', pd)
            a.add('x7', 'x7', 'x1')
            a.sw('f8', 'x7', 0)

        return body

    def _reduce_norm(self, ws, params):
        n = params['n']
        pd, R, nrm = ws.base('pd'), ws.base('R'), ws.base('nrm')

        def body(a: Assembler):
            skip = a.label()
            a.bne('x1', 'x0', skip.name)  # core 0 only
            emit_fp_zero(a, 'f8')
            a.li('x5', pd)
            a.li('x6', 0)
            top = a.label()
            done = a.label()
            a.bind(top)
            a.bge('x6', 'x2', done.name)
            a.lw('f1', 'x5', 0)
            a.fadd('f8', 'f8', 'f1')
            a.addi('x5', 'x5', 1)
            a.addi('x6', 'x6', 1)
            a.j(top.name)
            a.bind(done)
            a.fsqrt('f9', 'f8')
            # R[k][k] = nrm ; nrm_slot = nrm
            a.li('x7', n + 1)
            a.mul('x7', 'x7', 'x19')
            a.li('x8', R)
            a.add('x7', 'x7', 'x8')
            a.sw('f9', 'x7', 0)
            a.li('x9', nrm)
            a.sw('f9', 'x9', 0)
            a.bind(skip)

        return body

    def _normalize(self, ws, params):
        m, n = params['m'], params['n']
        A, Q, nrm = ws.base('A'), ws.base('Q'), ws.base('nrm')

        def body(a: Assembler):
            a.li('x9', nrm)
            a.lw('f9', 'x9', 0)
            with strided_loop(a, m):
                a.li('x5', n)
                a.mul('x5', 'x5', 'x3')
                a.add('x5', 'x5', 'x19')
                a.li('x6', A)
                a.add('x6', 'x6', 'x5')
                a.li('x7', Q)
                a.add('x7', 'x7', 'x5')
                a.lw('f1', 'x6', 0)
                a.fdiv('f1', 'f1', 'f9')
                a.sw('f1', 'x7', 0)

        return body

    def _emit_update_column(self, a: Assembler, ws, params, j_reg: str,
                            pred_reg: str = None):
        """R[k][j] = Q[:,k].A[:,j]; A[:,j] -= R[k][j]*Q[:,k] (j in j_reg).

        When ``pred_reg`` is given (vector mode), only the stores are
        predicated: loop bookkeeping must keep running on masked lanes,
        since predication cannot skip control flow (paper Section 2.4).
        """
        m, n = params['m'], params['n']
        A, Q, R = ws.base('A'), ws.base('Q'), ws.base('R')

        def guarded_sw(val, addr, imm=0):
            if pred_reg is not None:
                a.pred_neq(pred_reg, 'x0')
            a.sw(val, addr, imm)
            if pred_reg is not None:
                a.pred_eq('x0', 'x0')
        # x8 = &Q[0][k], x9 = &A[0][j]
        a.li('x8', Q)
        a.add('x8', 'x8', 'x19')
        a.li('x9', A)
        a.add('x9', 'x9', j_reg)
        emit_fp_zero(a, 'f8')
        a.mv('x10', 'x8')
        a.mv('x11', 'x9')
        with a.for_range('x12', 0, m):
            a.lw('f1', 'x10', 0)
            a.lw('f2', 'x11', 0)
            a.fma('f8', 'f1', 'f2')
            a.addi('x10', 'x10', n)
            a.addi('x11', 'x11', n)
        # R[k][j] = dot
        a.li('x13', n)
        a.mul('x13', 'x13', 'x19')
        a.add('x13', 'x13', j_reg)
        a.li('x14', R)
        a.add('x13', 'x13', 'x14')
        guarded_sw('f8', 'x13', 0)
        # A[:,j] -= dot * Q[:,k]
        a.mv('x10', 'x8')
        a.mv('x11', 'x9')
        with a.for_range('x12', 0, m):
            a.lw('f1', 'x10', 0)
            a.lw('f2', 'x11', 0)
            a.fmul('f1', 'f1', 'f8')
            a.fsub('f2', 'f2', 'f1')
            guarded_sw('f2', 'x11', 0)
            a.addi('x10', 'x10', n)
            a.addi('x11', 'x11', n)

    def build_mimd(self, fabric, ws, params, *, prefetch, pcv=False):
        n = params['n']
        mb = MimdKernelBuilder()
        with mb.loop(n):
            mb.add_kernel(self._dot_col_k(ws, params))
            mb.add_kernel(self._reduce_norm(ws, params))
            mb.add_kernel(self._normalize(ws, params))

            def update(a: Assembler):
                # for j = k+1+tid ; j < n ; j += ncores
                a.addi('x3', 'x19', 1)
                a.add('x3', 'x3', 'x1')
                top = a.label()
                done = a.label()
                a.bind(top)
                a.li('x31', n)
                a.bge('x3', 'x31', done.name)
                self._emit_update_column(a, ws, params, 'x3')
                a.add('x3', 'x3', 'x2')
                a.j(top.name)
                a.bind(done)

            mb.add_kernel(update)
        return mb.build()

    def build_vector(self, fabric, ws, params, vp: VectorParams) -> Program:
        n = params['n']
        b = self.make_vector_builder(fabric, vp, params)
        total_lanes = len(b.groups) * b.lanes
        trips = (n + total_lanes - 1) // total_lanes
        p = b.program()
        with p.loop(n):
            p.mimd_phase(self._dot_col_k(ws, params))
            p.mimd_phase(self._reduce_norm(ws, params))
            p.mimd_phase(self._normalize(ws, params))

            def scalar_stream(a, g):
                a.vissue('.gs_update')

            p.vector_phase(scalar_stream, frame_size=4)

        def microthreads(a: Assembler):
            a.bind('.gs_update')
            # global lane id -> columns j = k+1+gl, step total_lanes
            a.csrr('x29', op.CSR_TID)
            a.csrr('x5', op.CSR_GROUP_ID)
            a.li('x6', b.lanes)
            a.mul('x5', 'x5', 'x6')
            a.add('x5', 'x5', 'x29')
            a.addi('x3', 'x19', 1)
            a.add('x3', 'x3', 'x5')
            for _ in range(trips):
                # mask lanes whose column ran past n: clamp the address
                # and predicate only the stores (loop bookkeeping must run
                # on masked lanes; predication cannot skip control flow)
                a.li('x31', n)
                a.slt('x4', 'x3', 'x31')
                a.mul('x27', 'x3', 'x4')
                self._emit_update_column(a, ws, params, 'x27',
                                         pred_reg='x4')
                a.li('x7', total_lanes)
                a.add('x3', 'x3', 'x7')
            a.vend()

        return p.finish(microthreads)
