"""SIMT kernels for every benchmark (the paper's HIP ports, Section 6.1).

Kernels follow the standard GPU mapping: one thread per output element,
with a compile-time grid-stride when the problem exceeds the machine's
resident thread count.  Because the machine model requires wavefront-
uniform control flow, per-lane conditions (grid bounds, stencil borders,
bfs visitation) are handled with predication around the stores and clamped
gather addresses — the same discipline the SDV kernels use.

Each benchmark produces a list of kernel launches ``(program, entry)``;
sequentially-dependent algorithms (gramschm's k loop, bfs levels, fdtd
timesteps) become sequences of launches and pay the per-launch overhead,
which is exactly why they do poorly on the GPU.

:func:`build_launches` walks the kernel's own phase list
(:meth:`repro.kernels.base.Benchmark.phases`) through ``GPU_EMITTERS``,
one launch per phase with loops unrolled; only the two kernels without a
phase list (gramschm, bfs) have a hand-written launch builder here.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..isa import Assembler, Program, opcodes as op
from ..kernels import registry
from ..kernels.base import Workspace, emitter_for
from ..kernels.vector_templates import (MatTerm, StencilSection,
                                        emit_fconst)
from .config import GpuConfig

Launch = Tuple[Program, int]


def each_item(a: Assembler, total: int, nthreads: int,
              body: Callable[[Assembler], None]) -> None:
    """Emit ``body`` once per grid-stride trip (x3 = item, x7 = in-range).

    Wavefronts with no in-range lanes skip the body through a warp vote +
    uniform branch — the standard ``if (i < n)`` early exit, which is what
    lets surplus wavefronts on over-provisioned launches retire instantly.
    """
    trips = math.ceil(total / nthreads)
    for t in range(trips):
        a.li('x4', t * nthreads)
        a.add('x3', 'x1', 'x4')
        a.li('x31', total)
        a.slt('x7', 'x3', 'x31')
        skip = a.label()
        a.vote_any('x6', 'x7')
        a.beq('x6', 'x0', skip.name)
        body(a)
        a.bind(skip)


def pred_store(a: Assembler, value: str, addr: str, imm: int = 0,
               flag: str = 'x7') -> None:
    a.pred_neq(flag, 'x0')
    a.sw(value, addr, imm)
    a.pred_eq('x0', 'x0')


def _kernel(build: Callable[[Assembler], None]) -> Launch:
    a = Assembler()
    a.csrr('x1', op.CSR_TID)
    a.csrr('x2', op.CSR_NCORES)
    build(a)
    a.halt()
    return a.finish(), 0


# --------------------------------------------------------------- matmul-like
def k_matmul(cfg: GpuConfig, *, ni: int, nj: int, nk: int,
             terms: Sequence[MatTerm], out_base: int, out_stride: int,
             alpha: float = 1.0, beta: float = 0.0) -> Launch:
    """Thread per output element; k-loop inner (classic GPU gemm mapping)."""

    def build(a: Assembler):
        if alpha != 1.0:
            emit_fconst(a, 'f10', alpha)
        if beta and beta != 1.0:
            emit_fconst(a, 'f11', beta)

        def body(a: Assembler):
            a.li('x31', nj)
            a.div('x5', 'x3', 'x31')    # i
            a.rem('x6', 'x3', 'x31')    # j
            emit_fconst(a, 'f8', 0.0)
            # per-term base addresses
            for t, term in enumerate(terms):
                a.li('x31', term.bcast_stride)
                a.mul(f'x{8 + t}', 'x5', 'x31')
                a.li('x31', term.bcast_base)
                a.add(f'x{8 + t}', f'x{8 + t}', 'x31')
                a.li('x31', term.group_base)
                a.add(f'x{10 + t}', 'x6', 'x31')
            with a.for_range('x12', 0, nk):
                for t, term in enumerate(terms):
                    a.lw('f1', f'x{8 + t}', 0)
                    a.lw('f2', f'x{10 + t}', 0)
                    a.fma('f8', 'f1', 'f2')
                    a.addi(f'x{8 + t}', f'x{8 + t}', 1)
                    a.li('x31', term.group_stride)
                    a.add(f'x{10 + t}', f'x{10 + t}', 'x31')
            a.li('x31', out_stride)
            a.mul('x13', 'x5', 'x31')
            a.add('x13', 'x13', 'x6')
            a.li('x31', out_base)
            a.add('x13', 'x13', 'x31')
            if alpha != 1.0:
                a.fmul('f8', 'f8', 'f10')
            if beta:
                a.lw('f2', 'x13', 0)
                if beta != 1.0:
                    a.fmul('f2', 'f2', 'f11')
                a.fadd('f8', 'f8', 'f2')
            pred_store(a, 'f8', 'x13')

        each_item(a, ni * nj, cfg.total_threads, body)

    return _kernel(build)


def k_transpose(cfg: GpuConfig, *, src: int, dst: int, n: int,
                m: int) -> Launch:
    def build(a: Assembler):
        def body(a: Assembler):
            a.li('x31', m)
            a.div('x5', 'x3', 'x31')    # i
            a.rem('x6', 'x3', 'x31')    # j
            a.li('x31', m)
            a.mul('x8', 'x5', 'x31')
            a.add('x8', 'x8', 'x6')
            a.li('x31', src)
            a.add('x8', 'x8', 'x31')
            a.lw('f1', 'x8', 0)
            a.li('x31', n)
            a.mul('x9', 'x6', 'x31')
            a.add('x9', 'x9', 'x5')
            a.li('x31', dst)
            a.add('x9', 'x9', 'x31')
            pred_store(a, 'f1', 'x9')

        each_item(a, n * m, cfg.total_threads, body)

    return _kernel(build)


# ------------------------------------------------------------------- rowdot
def k_rowdot(cfg: GpuConfig, *, nrows: int, ncols: int,
             mats: Sequence[Tuple[int, int]], vec_base: int, out_base: int,
             coeffs: Sequence[float], accumulate: bool = False) -> Launch:
    """Thread per output row (the PolyBench/GPU matvec mapping; row-major
    matrix accesses are uncoalesced across threads, as on the real GPU)."""

    def build(a: Assembler):
        for t, c in enumerate(coeffs):
            if c != 1.0:
                emit_fconst(a, f'f{10 + t}', c)

        def body(a: Assembler):
            for t, (base, stride) in enumerate(mats):
                a.li('x31', stride)
                a.mul(f'x{8 + t}', 'x3', 'x31')
                a.li('x31', base)
                a.add(f'x{8 + t}', f'x{8 + t}', 'x31')
                emit_fconst(a, f'f{20 + t}', 0.0)  # accumulator
            a.li('x10', vec_base)
            with a.for_range('x12', 0, ncols):
                a.lw('f1', 'x10', 0)
                for t in range(len(mats)):
                    a.lw('f2', f'x{8 + t}', 0)
                    a.fma(f'f{20 + t}', 'f1', 'f2')
                    a.addi(f'x{8 + t}', f'x{8 + t}', 1)
                a.addi('x10', 'x10', 1)
            emit_fconst(a, 'f8', 0.0)
            for t, c in enumerate(coeffs):
                if c != 1.0:
                    a.fmul(f'f{20 + t}', f'f{20 + t}', f'f{10 + t}')
                a.fadd('f8', 'f8', f'f{20 + t}')
            a.li('x13', out_base)
            a.add('x13', 'x13', 'x3')
            if accumulate:
                a.lw('f2', 'x13', 0)
                a.fadd('f8', 'f8', 'f2')
            pred_store(a, 'f8', 'x13')

        each_item(a, nrows, cfg.total_threads, body)

    return _kernel(build)


# ------------------------------------------------------------------- stencil
def k_stencil(cfg: GpuConfig, *, n_out_rows: int, row0: int, ncols: int,
              sections: Sequence[StencilSection], coeffs: Sequence[float],
              out_base: int, out_stride: int, jlo: int, jhi: int,
              out_coeff_old=None, row_valid=None) -> Launch:
    def build(a: Assembler):
        def body(a: Assembler):
            a.li('x31', ncols)
            a.div('x5', 'x3', 'x31')    # row offset
            a.rem('x6', 'x3', 'x31')    # j
            # refine the store flag with column and row bounds
            a.slti('x8', 'x6', jlo)
            a.li('x31', jhi - 1)
            a.slt('x9', 'x31', 'x6')
            a.or_('x8', 'x8', 'x9')
            if row_valid is not None:
                mod, rlo, rhi = row_valid
                a.addi('x10', 'x5', row0)
                a.li('x31', mod)
                a.rem('x10', 'x10', 'x31')
                a.slti('x11', 'x10', rlo)
                a.or_('x8', 'x8', 'x11')
                a.li('x31', rhi - 1)
                a.slt('x11', 'x31', 'x10')
                a.or_('x8', 'x8', 'x11')
            a.slti('x8', 'x8', 1)       # invert: 1 = interior
            a.and_('x7', 'x7', 'x8')
            emit_fconst(a, 'f8', 0.0)
            for sec, c in zip(sections, coeffs):
                a.li('x31', sec.stride)
                a.mul('x12', 'x5', 'x31')
                a.add('x12', 'x12', 'x6')
                a.li('x31', sec.base + (row0 + sec.di) * sec.stride +
                     sec.dj)
                a.add('x12', 'x12', 'x31')
                a.lw('f1', 'x12', 0)
                emit_fconst(a, 'f6', c)
                a.fma('f8', 'f1', 'f6')
            a.li('x31', out_stride)
            a.mul('x13', 'x5', 'x31')
            a.add('x13', 'x13', 'x6')
            a.li('x31', out_base + row0 * out_stride)
            a.add('x13', 'x13', 'x31')
            if out_coeff_old is not None:
                a.lw('f2', 'x13', 0)
                if out_coeff_old != 1.0:
                    emit_fconst(a, 'f6', out_coeff_old)
                    a.fmul('f2', 'f2', 'f6')
                a.fadd('f8', 'f8', 'f2')
            pred_store(a, 'f8', 'x13')

        each_item(a, n_out_rows * ncols, cfg.total_threads, body)

    return _kernel(build)


# ------------------------------------------------------------- SPMD fix-ups
def _k_fict(cfg: GpuConfig, t: int, *, fict: int, ey: int, m: int) -> Launch:
    """fdtd-2d's boundary row for unrolled time step ``t``."""
    def build(a: Assembler):
        def body(a: Assembler):
            a.li('x5', fict + t)
            a.lw('f1', 'x5', 0)
            a.li('x31', ey)
            a.add('x6', 'x3', 'x31')
            pred_store(a, 'f1', 'x6')

        each_item(a, m, cfg.total_threads, body)

    return _kernel(build)


def _k_column_stats(cfg, *, data: int, m: int, n: int,
                    scale: bool) -> Launch:
    def build(a: Assembler):
        emit_fconst(a, 'f12', float(m))
        if scale:
            emit_fconst(a, 'f13', 0.1)
            emit_fconst(a, 'f14', 1.0)
            emit_fconst(a, 'f15', float(np.sqrt(float(m))))

        def body(a: Assembler):
            a.li('x31', data)
            a.add('x5', 'x3', 'x31')
            emit_fconst(a, 'f8', 0.0)
            emit_fconst(a, 'f9', 0.0)
            a.mv('x6', 'x5')
            with a.for_range('x12', 0, m):
                a.lw('f1', 'x6', 0)
                a.fadd('f8', 'f8', 'f1')
                if scale:
                    a.fma('f9', 'f1', 'f1')
                a.addi('x6', 'x6', n)
            a.fdiv('f10', 'f8', 'f12')
            if scale:
                a.fdiv('f9', 'f9', 'f12')
                a.fmul('f2', 'f10', 'f10')
                a.fsub('f9', 'f9', 'f2')
                a.fsqrt('f11', 'f9')
                # branchless epsilon guard (per-lane condition)
                a.fle('f3', 'f11', 'f13')       # 1.0 if std <= 0.1
                a.fsub('f4', 'f14', 'f3')       # 1 - cond
                a.fmul('f11', 'f11', 'f4')
                a.fadd('f11', 'f11', 'f3')      # std or 1.0
                a.fmul('f11', 'f11', 'f15')
            a.mv('x6', 'x5')
            with a.for_range('x12', 0, m):
                a.lw('f1', 'x6', 0)
                a.fsub('f1', 'f1', 'f10')
                if scale:
                    a.fdiv('f1', 'f1', 'f11')
                pred_store(a, 'f1', 'x6')
                a.addi('x6', 'x6', n)

        each_item(a, n, cfg.total_threads, body)

    return _kernel(build)


def _k_fix_diag(cfg, *, out: int, n: int) -> Launch:
    def build(a: Assembler):
        emit_fconst(a, 'f14', 1.0)

        def body(a: Assembler):
            a.li('x31', n + 1)
            a.mul('x5', 'x3', 'x31')
            a.li('x31', out)
            a.add('x5', 'x5', 'x31')
            pred_store(a, 'f14', 'x5')

        each_item(a, n, cfg.total_threads, body)

    return _kernel(build)


# ---------------------------------------------- hand-written launch builders
def _gramschm(ws, p, cfg):
    m, n = p['m'], p['n']
    A, Q, R = ws.base('A'), ws.base('Q'), ws.base('R')
    launches = []
    for k in range(n):
        launches.append(_k_gs_norm(cfg, A=A, R=R, m=m, n=n, k=k))
        launches.append(_k_gs_normalize(cfg, A=A, Q=Q, R=R, m=m, n=n, k=k))
        launches.append(_k_gs_update(cfg, A=A, Q=Q, R=R, m=m, n=n, k=k))
    return launches


def _k_gs_norm(cfg, *, A, R, m, n, k) -> Launch:
    """Thread 0 computes ||A[:,k]|| and writes R[k][k]."""

    def build(a: Assembler):
        def body(a: Assembler):
            a.slti('x8', 'x3', 1)
            a.and_('x7', 'x7', 'x8')
            emit_fconst(a, 'f8', 0.0)
            a.li('x5', A + k)
            with a.for_range('x12', 0, m):
                a.lw('f1', 'x5', 0)
                a.fma('f8', 'f1', 'f1')
                a.addi('x5', 'x5', n)
            a.fsqrt('f9', 'f8')
            a.li('x6', R + k * n + k)
            pred_store(a, 'f9', 'x6')

        each_item(a, 1, cfg.total_threads, body)

    return _kernel(build)


def _k_gs_normalize(cfg, *, A, Q, R, m, n, k) -> Launch:
    """Thread per row: Q[i][k] = A[i][k] / R[k][k]."""

    def build(a: Assembler):
        def body(a: Assembler):
            a.li('x6', R + k * n + k)
            a.lw('f9', 'x6', 0)
            a.li('x31', n)
            a.mul('x5', 'x3', 'x31')
            a.li('x31', A + k)
            a.add('x5', 'x5', 'x31')
            a.lw('f1', 'x5', 0)
            a.fdiv('f1', 'f1', 'f9')
            a.li('x31', Q - A)
            a.add('x6', 'x5', 'x31')
            pred_store(a, 'f1', 'x6')

        each_item(a, m, cfg.total_threads, body)

    return _kernel(build)


def _k_gs_update(cfg, *, A, Q, R, m, n, k) -> Launch:
    """Thread per trailing column j in (k, n)."""

    def build(a: Assembler):
        def body(a: Assembler):
            a.addi('x5', 'x3', k + 1)   # j
            a.li('x31', n)
            a.slt('x8', 'x5', 'x31')
            a.and_('x7', 'x7', 'x8')
            a.li('x31', n - 1)
            # clamp j for loads
            a.slt('x9', 'x31', 'x5')
            a.li('x10', n - 1)
            a.mul('x9', 'x9', 'x10')
            a.slti('x10', 'x9', 1)
            a.mul('x5', 'x5', 'x10')
            a.add('x5', 'x5', 'x9')
            emit_fconst(a, 'f8', 0.0)
            a.li('x11', Q + k)
            a.li('x12', A)
            a.add('x12', 'x12', 'x5')
            with a.for_range('x13', 0, m):
                a.lw('f1', 'x11', 0)
                a.lw('f2', 'x12', 0)
                a.fma('f8', 'f1', 'f2')
                a.addi('x11', 'x11', n)
                a.addi('x12', 'x12', n)
            a.li('x31', R + k * n)
            a.add('x14', 'x31', 'x5')
            pred_store(a, 'f8', 'x14')
            a.li('x11', Q + k)
            a.li('x12', A)
            a.add('x12', 'x12', 'x5')
            with a.for_range('x13', 0, m):
                a.lw('f1', 'x11', 0)
                a.lw('f2', 'x12', 0)
                a.fmul('f1', 'f1', 'f8')
                a.fsub('f2', 'f2', 'f1')
                pred_store(a, 'f2', 'x12')
                a.addi('x11', 'x11', n)
                a.addi('x12', 'x12', n)

        each_item(a, n, cfg.total_threads, body)

    return _kernel(build)


def _bfs(ws, p, cfg):
    v = p['v']
    rp, col, depth = ws.bases['rp'], ws.bases['col'], ws.bases['depth']
    maxdeg = ws.meta['maxdeg']
    launches = []
    for level in range(ws.meta['levels']):
        launches.append(_k_bfs_level(cfg, v=v, rp=rp, col=col, depth=depth,
                                     maxdeg=maxdeg, level=level))
    return launches


def _k_bfs_level(cfg, *, v, rp, col, depth, maxdeg, level) -> Launch:
    def build(a: Assembler):
        def body(a: Assembler):
            a.li('x5', depth)
            a.add('x5', 'x5', 'x3')
            a.lw('x6', 'x5', 0)
            a.li('x31', level)
            # active = in-range && depth[v] == level
            a.slt('x8', 'x6', 'x31')
            a.slt('x9', 'x31', 'x6')
            a.or_('x8', 'x8', 'x9')
            a.slti('x8', 'x8', 1)
            a.and_('x7', 'x7', 'x8')
            a.li('x10', rp)
            a.add('x10', 'x10', 'x3')
            a.lw('x11', 'x10', 0)
            a.lw('x12', 'x10', 1)
            for e in range(maxdeg):
                a.addi('x13', 'x11', e)
                a.slt('x14', 'x13', 'x12')
                a.and_('x14', 'x14', 'x7')
                a.mul('x13', 'x13', 'x14')
                a.li('x31', col)
                a.add('x15', 'x31', 'x13')
                a.lw('x16', 'x15', 0)
                a.li('x31', depth)
                a.add('x17', 'x31', 'x16')
                a.lw('x26', 'x17', 0)      # depth[w]
                a.slt('x27', 'x26', 'x0')  # unvisited
                a.and_('x14', 'x14', 'x27')
                a.li('x26', level + 1)
                pred_store(a, 'x26', 'x17', flag='x14')

        each_item(a, v, cfg.total_threads, body)

    return _kernel(build)


# ----------------------------------------------------------- the phase walk
#: ``emit(cfg, t, **kwargs) -> Launch``; ``t`` is the unrolled iteration
#: of the enclosing ``loop`` (None outside one) — a launch starts with
#: fresh registers, so it cannot read a run-time loop index as x19
GPU_EMITTERS = {
    'matmul': lambda cfg, t, *, name, **kw: k_matmul(cfg, **kw),
    'rowdot': lambda cfg, t, *, name, partials_bases, **kw: k_rowdot(
        cfg, **kw),
    'stencil': lambda cfg, t, *, name, fit_rows, **kw: k_stencil(cfg, **kw),
    'transpose': lambda cfg, t, **kw: k_transpose(cfg, **kw),
    'fict': _k_fict,
    'column_stats': lambda cfg, t, **kw: _k_column_stats(cfg, **kw),
    'fix_diagonal': lambda cfg, t, **kw: _k_fix_diag(cfg, **kw),
}

#: the kernels that declare no phase list
_HANDWRITTEN = {'gramschm': _gramschm, 'bfs': _bfs}


def _unrolled(records, t=None):
    """``(kind, kwargs, t)`` in launch order, loops unrolled."""
    for kind, kw in records:
        if kind == 'loop':
            for i in range(kw['count']):
                yield from _unrolled(kw['phases'], i)
        else:
            yield kind, kw, t


def build_launches(bench_name: str, ws: Workspace, params: dict,
                   cfg: GpuConfig) -> List[Launch]:
    """GPU kernel-launch sequence for one benchmark."""
    build = _HANDWRITTEN.get(bench_name)
    if build is not None:
        return build(ws, params, cfg)
    records = registry.make(bench_name).phases(ws, params)
    return [emitter_for(GPU_EMITTERS, bench_name, kind, 'GPU')(cfg, t, **kw)
            for kind, kw, t in _unrolled(records)]
