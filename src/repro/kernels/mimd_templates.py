"""MIMD kernel templates: the NV / NV_PF / PCV_PF configurations.

These mirror :mod:`repro.kernels.vector_templates` for independent-mode
execution (paper Table 3):

* **NV** — plain word loads through the 2-entry load queue (loads are
  interleaved in pairs so the baseline exploits what MLP the queue allows).
* **NV_PF** — the competitive baseline: SELF ``vload``s prefetch full cache
  lines into the core's own frame queue, approximating Celerity's
  non-blocking loads (paper Section 6.2).
* **PCV** — adds the per-core 4-wide SIMD unit to the PF variants.

All templates expect ``x1 = tid`` / ``x2 = ncores`` (as emitted by
``MimdKernelBuilder`` or ``VectorProgram.mimd_phase``) and partition work by
flattened strided tiles.  Register budget: x3..x17 template-internal,
f1..f7 scratch, f8..f23 accumulators, f24..f27 constants.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..isa import Assembler, VL_SELF, opcodes as op
from .codegen import SelfDaeStream, pack_frame_cfg, strided_loop
from .vector_templates import (MatTerm, StencilSection, emit_fconst,
                               emit_fp_zero)


def _emit_tile_coords(a: Assembler, njc: int) -> None:
    """x4 = i = t // njc ; x5 = jc_idx = t % njc, for t in x3."""
    a.li('x31', njc)
    a.div('x4', 'x3', 'x31')
    a.rem('x5', 'x3', 'x31')


def _setup_consts(a: Assembler, alpha: float, beta: float) -> None:
    if alpha != 1.0:
        emit_fconst(a, 'f24', alpha)
    if beta and beta != 1.0:
        emit_fconst(a, 'f25', beta)


def _combine_and_store(a: Assembler, cw: int, out_addr: str, alpha: float,
                       beta: float) -> None:
    """out[f] = alpha*acc[f] + beta*old[f] for f in [0, cw); acc[f] is
    register f(8+f)."""
    for f in range(cw):
        acc = f'f{8 + f}'
        if alpha != 1.0:
            a.fmul(acc, acc, 'f24')
        if beta:
            a.lw('f1', out_addr, f)
            if beta != 1.0:
                a.fmul('f1', 'f1', 'f25')
            a.fadd(acc, acc, 'f1')
        a.sw(acc, out_addr, f)


# ------------------------------------------------------------------- transpose
def mimd_transpose(a: Assembler, *, src: int, dst: int, n: int,
                   m: int) -> None:
    """dst[j][i] = src[i][j] for an n x m source (the paper's "Transpose"
    memory optimization, run as a MIMD pre-kernel)."""
    with strided_loop(a, n):
        # x3 = source row i
        a.li('x4', m)
        a.mul('x4', 'x4', 'x3')
        a.li('x5', src)
        a.add('x4', 'x4', 'x5')      # &src[i][0]
        a.li('x6', dst)
        a.add('x6', 'x6', 'x3')      # &dst[0][i]
        with a.for_range('x7', 0, m):
            a.lw('f1', 'x4', 0)
            a.sw('f1', 'x6', 0)
            a.addi('x4', 'x4', 1)
            a.addi('x6', 'x6', n)


# ------------------------------------------------------------------ matmul-like
def mimd_matmul_like(a: Assembler, *, ni: int, nj: int, nk: int,
                     terms: Sequence[MatTerm], out_base: int,
                     out_stride: int, alpha: float = 1.0, beta: float = 0.0,
                     cfg=None, prefetch: bool = False, pcv: bool = False,
                     kb: int = 4) -> None:
    """out[i][j] = alpha*sum_k sum_t bcast_t[i][k]*group_t[k][j] + beta*old.

    Each core owns strided (i, column-chunk) tiles; chunk width is one
    cache line.  ``prefetch`` selects the NV_PF frame pipeline; ``pcv``
    additionally uses the 4-wide SIMD unit for the inner products.
    """
    cw = cfg.line_words
    sw = cfg.simd_width
    if nj % cw or nk % kb:
        raise ValueError(f'matmul: nj={nj} %% {cw} or nk={nk} %% {kb} != 0')
    njc = nj // cw
    total = ni * njc
    nterms = len(terms)
    g_sec = kb * cw
    b_sec = nterms * g_sec
    _setup_consts(a, alpha, beta)

    stream = None
    if prefetch:
        frame_words = nterms * (g_sec + kb)
        slots = max(cfg.frame_counters, cfg.spad_words // (2 * frame_words))
        slots = min(slots, 8)
        stream = SelfDaeStream(frame_words, slots, cfg.frame_counters - 2)
        stream.emit_config(a)

    with strided_loop(a, total):
        _emit_tile_coords(a, njc)
        # x6+t = group stream addr; x10+t = bcast stream addr
        a.li('x30', cw)
        a.mul('x30', 'x30', 'x5')
        for t, term in enumerate(terms):
            a.li(f'x{6 + t}', term.group_base)
            a.add(f'x{6 + t}', f'x{6 + t}', 'x30')
            a.li(f'x{10 + t}', term.bcast_base)
            if term.bcast_stride:
                a.li('x31', term.bcast_stride)
                a.mul('x31', 'x31', 'x4')
                a.add(f'x{10 + t}', f'x{10 + t}', 'x31')
        if pcv:
            for v in range(cw // sw):
                a.vbcast(f'v{v}', 'x0')  # zero accumulators
        else:
            emit_fp_zero(a, 'f1')
            for f in range(cw):
                a.mv(f'f{8 + f}', 'f1')

        if not prefetch:
            # NV: word loads, paired for what MLP the load queue allows
            with a.for_count('x14', nk):
                for t, term in enumerate(terms):
                    a.lw('f2', f'x{10 + t}', 0)
                    for f in range(0, cw, 2):
                        a.lw('f3', f'x{6 + t}', f)
                        a.lw('f4', f'x{6 + t}', f + 1)
                        a.fma(f'f{8 + f}', 'f2', 'f3')
                        a.fma(f'f{8 + f + 1}', 'f2', 'f4')
                    a.addi(f'x{10 + t}', f'x{10 + t}', 1)
                    a.li('x31', term.group_stride)
                    a.add(f'x{6 + t}', f'x{6 + t}', 'x31')
        else:
            def emit_loads(a):
                for t, term in enumerate(terms):
                    for k in range(kb):
                        a.addi('x24', 'x22', t * g_sec + k * cw)
                        a.vload('x24', f'x{6 + t}', 0, cw, VL_SELF)
                        a.addi(f'x{6 + t}', f'x{6 + t}',
                               term.group_stride)
                    a.addi('x24', 'x22', b_sec + t * kb)
                    a.vload('x24', f'x{10 + t}', 0, kb, VL_SELF)

            def emit_advance(a):
                for t in range(nterms):
                    a.addi(f'x{10 + t}', f'x{10 + t}', kb)

            def emit_consume(a):
                a.frame_start('x28')
                for kk in range(kb):
                    for t in range(nterms):
                        a.lwsp('f2', 'x28', b_sec + t * kb + kk)
                        if pcv:
                            a.vbcast('v7', 'f2')
                            for v in range(cw // sw):
                                a.addi('x30', 'x28',
                                       t * g_sec + kk * cw + v * sw)
                                a.vl4('v6', 'x30', 0)
                                a.vfma4(f'v{v}', 'v7', 'v6')
                        else:
                            # two-deep load rotation hides spad latency
                            base_off = t * g_sec + kk * cw
                            a.lwsp('f3', 'x28', base_off)
                            for f in range(cw):
                                if f + 1 < cw:
                                    a.lwsp(f'f{3 + (f + 1) % 2}', 'x28',
                                           base_off + f + 1)
                                a.fma(f'f{8 + f}', 'f2',
                                      f'f{3 + f % 2}')
                a.remem()

            from .codegen import self_dae_loop
            self_dae_loop(a, stream, nk // kb, emit_loads, emit_advance,
                          emit_consume)

        # fini: write the tile back
        a.li('x15', out_stride)
        a.mul('x15', 'x15', 'x4')
        a.li('x31', cw)
        a.mul('x31', 'x31', 'x5')
        a.add('x15', 'x15', 'x31')
        a.li('x31', out_base)
        a.add('x15', 'x15', 'x31')
        if pcv:
            # spill SIMD accumulators through the scratchpad
            spill = stream.frame_size * stream.num_slots if stream else 0
            for v in range(cw // sw):
                a.li('x30', spill + v * sw)
                a.vs4(f'v{v}', 'x30', 0)
            for f in range(cw):
                a.li('x30', spill + f)
                a.lwsp(f'f{8 + f}', 'x30', 0)
        _combine_and_store(a, cw, 'x15', alpha, beta)


# ---------------------------------------------------------------------- rowdot
def mimd_rowdot(a: Assembler, *, nrows: int, ncols: int,
                mats: Sequence[tuple], vec_base: int, out_base: int,
                coeffs: Sequence[float], accumulate: bool = False,
                cfg=None, prefetch: bool = False, pcv: bool = False) -> None:
    """out[r] (+)= sum_t coeff_t * dot(mat_t[r][:], vec) — matvec kernels."""
    cw = cfg.line_words
    sw = cfg.simd_width
    if ncols % cw:
        raise ValueError(f'rowdot: ncols={ncols} not a multiple of {cw}')
    nterms = len(mats)
    for t, c in enumerate(coeffs):
        if c != 1.0:
            emit_fconst(a, f'f{24 + t}', c)

    stream = None
    if prefetch:
        frame_words = (nterms + 1) * cw
        slots = max(cfg.frame_counters, cfg.spad_words // (2 * frame_words))
        slots = min(slots, 8)
        stream = SelfDaeStream(frame_words, slots, cfg.frame_counters - 2)
        stream.emit_config(a)

    with strided_loop(a, nrows):
        # x4+t = matrix row address; x9 = vec address
        for t, (base, stride) in enumerate(mats):
            a.li('x31', stride)
            a.mul('x31', 'x31', 'x3')
            a.li(f'x{4 + t}', base)
            a.add(f'x{4 + t}', f'x{4 + t}', 'x31')
        a.li('x9', vec_base)
        for t in range(nterms):
            if prefetch and not pcv:
                for j in range(4):
                    emit_fp_zero(a, f'f{8 + t * 4 + j}')
            else:
                emit_fp_zero(a, f'f{8 + t}')

        if not prefetch:
            with a.for_count('x14', ncols // 2):
                a.lw('f1', 'x9', 0)
                a.lw('f2', 'x9', 1)
                for t in range(nterms):
                    a.lw('f3', f'x{4 + t}', 0)
                    a.lw('f4', f'x{4 + t}', 1)
                    a.fma(f'f{8 + t}', 'f1', 'f3')
                    a.fma(f'f{8 + t}', 'f2', 'f4')
                    a.addi(f'x{4 + t}', f'x{4 + t}', 2)
                a.addi('x9', 'x9', 2)
        else:
            def emit_loads(a):
                for t in range(nterms):
                    if t:
                        a.addi('x24', 'x22', t * cw)
                        off = 'x24'
                    else:
                        off = 'x22'
                    a.vload(off, f'x{4 + t}', 0, cw, VL_SELF)
                a.addi('x24', 'x22', nterms * cw)
                a.vload('x24', 'x9', 0, cw, VL_SELF)

            def emit_advance(a):
                for t in range(nterms):
                    a.addi(f'x{4 + t}', f'x{4 + t}', cw)
                a.addi('x9', 'x9', cw)

            def emit_consume(a):
                a.frame_start('x28')
                if pcv:
                    for i, v0 in enumerate(range(0, cw, sw)):
                        a.addi('x30', 'x28', nterms * cw + v0)
                        a.vl4('v7', 'x30', 0)
                        for t in range(nterms):
                            a.addi('x30', 'x28', t * cw + v0)
                            a.vl4('v6', 'x30', 0)
                            a.vfma4(f'v{t * 2 + i % 2}', 'v7', 'v6')
                else:
                    # rotate accumulators (4 per term) and loads (2-deep)
                    a.lwsp('f1', 'x28', nterms * cw)
                    for f in range(cw):
                        if f + 1 < cw:
                            a.lwsp(f'f{1 + (f + 1) % 2}', 'x28',
                                   nterms * cw + f + 1)
                        vec = f'f{1 + f % 2}'
                        for t in range(nterms):
                            a.lwsp(f'f{4 + t}', 'x28', t * cw + f)
                            a.fma(f'f{8 + t * 4 + f % 4}', vec,
                                  f'f{4 + t}')
                a.remem()

            if pcv:
                for t in range(2 * nterms):
                    a.vbcast(f'v{t}', 'x0')
            from .codegen import self_dae_loop
            self_dae_loop(a, stream, ncols // cw, emit_loads, emit_advance,
                          emit_consume)
            if pcv:
                for t in range(nterms):
                    a.vadd4(f'v{t * 2}', f'v{t * 2}', f'v{t * 2 + 1}')
                    a.vredsum4(f'f{8 + t}', f'v{t * 2}')
            else:
                for t in range(nterms):
                    for j in range(1, 4):
                        a.fadd(f'f{8 + t * 4}', f'f{8 + t * 4}',
                               f'f{8 + t * 4 + j}')
                    if t:
                        a.mv(f'f{8 + t}', f'f{8 + t * 4}')

        # combine terms and store out[r]
        emit_fp_zero(a, 'f20')
        for t, c in enumerate(coeffs):
            if c != 1.0:
                a.fmul(f'f{8 + t}', f'f{8 + t}', f'f{24 + t}')
            a.fadd('f20', 'f20', f'f{8 + t}')
        a.li('x15', out_base)
        a.add('x15', 'x15', 'x3')
        if accumulate:
            a.lw('f2', 'x15', 0)
            a.fadd('f20', 'f20', 'f2')
        a.sw('f20', 'x15', 0)


# --------------------------------------------------------------------- stencil
def mimd_stencil_rows(a: Assembler, *, n_out_rows: int, row0: int,
                      ncols: int, sections: Sequence[StencilSection],
                      coeffs: Sequence[float], out_base: int,
                      out_stride: int, jlo: int, jhi: int,
                      out_coeff_old: Optional[float] = None,
                      row_valid=None, cfg=None,
                      prefetch: bool = False, pcv: bool = False) -> None:
    """Row stencil on independent cores (see emit_stencil_rows)."""
    cw = cfg.line_words
    if prefetch:
        # shrink the chunk when many sections would blow the frame budget
        nsec_frame = len(sections) + (1 if out_coeff_old is not None else 0)
        while cw > 1 and nsec_frame * cw * cfg.frame_counters > \
                cfg.spad_words:
            cw //= 2
    if ncols % cw:
        raise ValueError(f'stencil: ncols={ncols} not a multiple of {cw}')
    njc = ncols // cw
    total = n_out_rows * njc
    nsec = len(sections)
    old_sec = nsec * cw
    consts = []
    for c in list(coeffs) + ([out_coeff_old] if out_coeff_old not in
                             (None, 1.0) else []):
        if c not in consts:
            consts.append(c)
    inline_consts = len(consts) > 12
    creg = {} if inline_consts else {c: f'f{8 + i}' for i, c in
                                     enumerate(consts)}
    for c, reg in creg.items():
        emit_fconst(a, reg, c)

    def coef_reg(c):
        if inline_consts:
            emit_fconst(a, 'f6', c)
            return 'f6'
        return creg[c]

    stream = None
    if prefetch:
        frame_words = old_sec + (cw if out_coeff_old is not None else 0)
        slots = max(cfg.frame_counters, cfg.spad_words // (2 * frame_words))
        slots = min(slots, 8)
        stream = SelfDaeStream(frame_words, slots, cfg.frame_counters - 2)
        stream.emit_config(a)

    # one address root per distinct source array: root = base +
    # (row0 + x4)*stride + j0; each tap is root + (di*stride + dj), a
    # compile-time immediate
    roots = []
    for sec in sections:
        if (sec.base, sec.stride) not in roots:
            roots.append((sec.base, sec.stride))
    if len(roots) > 8:
        raise ValueError('too many distinct stencil source arrays')
    root_reg = {bs: f'x{7 + i}' for i, bs in enumerate(roots)}

    def tap_addr(sec):
        return (root_reg[(sec.base, sec.stride)],
                sec.di * sec.stride + sec.dj)

    with strided_loop(a, total):
        _emit_tile_coords(a, njc)  # x4 = row offset, x5 = jc index
        a.li('x6', cw)
        a.mul('x6', 'x6', 'x5')  # j0 of this chunk
        for (base, stride), reg in root_reg.items():
            a.li('x31', stride)
            a.mul('x31', 'x31', 'x4')
            a.add('x31', 'x31', 'x6')
            a.li(reg, base + row0 * stride)
            a.add(reg, reg, 'x31')
        # x16 = output address
        a.li('x16', out_stride)
        a.mul('x16', 'x16', 'x4')
        a.add('x16', 'x16', 'x6')
        a.li('x31', out_base + row0 * out_stride)
        a.add('x16', 'x16', 'x31')
        if row_valid is not None:
            mod, rlo, rhi = row_valid
            a.addi('x30', 'x4', row0)
            a.li('x31', mod)
            a.rem('x30', 'x30', 'x31')
            a.slti('x26', 'x30', rlo)
            a.li('x31', rhi - 1)
            a.slt('x27', 'x31', 'x30')
            a.or_('x26', 'x26', 'x27')

        if prefetch:
            from ..isa import VL_PREFIX, VL_SUFFIX
            for s, sec in enumerate(sections):
                a.addi('x24', 'x22', s * cw)
                reg, off = tap_addr(sec)
                a.addi('x25', reg, off)
                if sec.dj != 0:
                    a.vload('x24', 'x25', 0, cw, VL_SELF, VL_PREFIX)
                    a.vload('x24', 'x25', 0, cw, VL_SELF, VL_SUFFIX)
                else:
                    a.vload('x24', 'x25', 0, cw, VL_SELF)
            if out_coeff_old is not None:
                a.addi('x24', 'x22', old_sec)
                a.vload('x24', 'x16', 0, cw, VL_SELF)
            a.frame_start('x28')

        for f in range(cw):
            emit_fp_zero(a, 'f20')
            if prefetch:
                nacc = min(3, nsec)
                for j in range(1, nacc):
                    emit_fp_zero(a, f'f{20 + j}')
                a.lwsp('f4', 'x28', f)
                for s, c in enumerate(coeffs):
                    if s + 1 < nsec:
                        a.lwsp(f'f{4 + (s + 1) % 2}', 'x28',
                               (s + 1) * cw + f)
                    a.fma(f'f{20 + s % nacc}', f'f{4 + s % 2}',
                          coef_reg(c))
                for j in range(1, nacc):
                    a.fadd('f20', 'f20', f'f{20 + j}')
                if out_coeff_old is not None:
                    a.lwsp('f2', 'x28', old_sec + f)
                    if out_coeff_old != 1.0:
                        a.fmul('f2', 'f2', coef_reg(out_coeff_old))
                    a.fadd('f20', 'f20', 'f2')
            else:
                for s0 in range(0, nsec, 2):
                    r0, o0 = tap_addr(sections[s0])
                    a.lw('f1', r0, o0 + f)
                    if s0 + 1 < nsec:
                        r1, o1 = tap_addr(sections[s0 + 1])
                        a.lw('f2', r1, o1 + f)
                    a.fma('f20', 'f1', coef_reg(coeffs[s0]))
                    if s0 + 1 < nsec:
                        a.fma('f20', 'f2', coef_reg(coeffs[s0 + 1]))
                if out_coeff_old is not None:
                    a.lw('f2', 'x16', f)
                    if out_coeff_old != 1.0:
                        a.fmul('f2', 'f2', coef_reg(out_coeff_old))
                    a.fadd('f20', 'f20', 'f2')
            # skip boundary columns with a branch (MIMD mode may
            # diverge); emit only the checks this kernel needs
            skip = a.label()
            if row_valid is not None:
                a.bne('x26', 'x0', skip.name)
            if jlo > 0 or jhi < ncols:
                a.addi('x30', 'x6', f)
            if jlo > 0:
                a.slti('x17', 'x30', jlo)
                a.bne('x17', 'x0', skip.name)
            if jhi < ncols:
                a.li('x31', jhi)
                a.bge('x30', 'x31', skip.name)
            a.sw('f20', 'x16', f)
            a.bind(skip)
        if prefetch:
            a.remem()
            stream.emit_advance_slot(a)


# ------------------------------------------------------------- SPMD fix-ups
# Small per-kernel bodies that are no template: they run unchanged as a
# MIMD kernel and as a ``mimd_phase`` between vector phases.
def mimd_fict_row(a: Assembler, *, fict: int, ey: int, m: int) -> None:
    """fdtd-2d's boundary row: ey[0][j] = fict[t] for all j (t in x19)."""
    a.li('x5', fict)
    a.add('x5', 'x5', 'x19')
    a.lw('f1', 'x5', 0)
    with strided_loop(a, m):
        a.li('x6', ey)
        a.add('x6', 'x6', 'x3')
        a.sw('f1', 'x6', 0)


def mimd_column_stats(a: Assembler, *, data: int, m: int, n: int,
                      scale: bool) -> None:
    """Center (and for corr: scale) every column of an m x n matrix.

    covar: D[k][j] -= mean_j.
    corr:  D[k][j] = (D[k][j] - mean_j) / (sqrt(m) * std_j), with the
    PolyBench epsilon guard (std <= 0.1 -> 1.0).
    """
    emit_fconst(a, 'f12', float(m))
    if scale:
        emit_fconst(a, 'f13', 0.1)
        emit_fconst(a, 'f14', 1.0)
        emit_fconst(a, 'f15', float(np.sqrt(float(m))))
    with strided_loop(a, n):
        # x3 = column j; walk addresses with stride n
        a.li('x5', data)
        a.add('x5', 'x5', 'x3')
        emit_fp_zero(a, 'f8')   # sum
        emit_fp_zero(a, 'f9')   # sum of squares
        a.mv('x6', 'x5')
        with a.for_count('x7', m):
            a.lw('f1', 'x6', 0)
            a.fadd('f8', 'f8', 'f1')
            if scale:
                a.fma('f9', 'f1', 'f1')
            a.addi('x6', 'x6', n)
        a.fdiv('f10', 'f8', 'f12')          # mean
        if scale:
            a.fdiv('f9', 'f9', 'f12')       # E[x^2]
            a.fmul('f2', 'f10', 'f10')
            a.fsub('f9', 'f9', 'f2')        # variance
            a.fsqrt('f11', 'f9')            # std
            skip = a.label()
            a.flt('x8', 'f13', 'f11')       # std > 0.1 ?
            a.bne('x8', 'x0', skip.name)
            a.mv('f11', 'f14')              # epsilon guard
            a.bind(skip)
            a.fmul('f11', 'f11', 'f15')     # sqrt(m) * std
        a.mv('x6', 'x5')
        with a.for_count('x7', m):
            a.lw('f1', 'x6', 0)
            a.fsub('f1', 'f1', 'f10')
            if scale:
                a.fdiv('f1', 'f1', 'f11')
            a.sw('f1', 'x6', 0)
            a.addi('x6', 'x6', n)


def mimd_fix_diagonal(a: Assembler, *, out: int, n: int) -> None:
    """corr[i][i] = 1.0 (PolyBench sets the diagonal explicitly)."""
    emit_fconst(a, 'f14', 1.0)
    with strided_loop(a, n):
        a.li('x5', n + 1)
        a.mul('x5', 'x5', 'x3')
        a.li('x6', out)
        a.add('x6', 'x6', 'x5')
        a.sw('f14', 'x6', 0)
