"""Reusable vector-kernel templates for the PolyBench benchmarks.

Three templates cover nearly the whole suite (mirroring the "algorithm
opt" column of the paper's Table 2):

* :func:`emit_matmul_like` — "tiled outer-product" kernels: gemm, 2mm, 3mm,
  syrk, syr2k, corr, covar, and transposed matvecs (atax's second kernel,
  bicg's first, mvt's second).  Lanes own FLEN output columns; the scalar
  core streams rows of the *group* operand with GROUP vloads and broadcasts
  the shared operand with per-lane SINGLE vloads.
* :func:`emit_rowdot` — matvec dot products: atax, bicg, mvt, gesummv.  All
  lanes cooperate on one output row using only GROUP loads (the paper's
  preferred division for these kernels, Section 2.3.2); per-row partial
  sums are combined by :func:`emit_rowdot_reduce` in a MIMD phase.
* :func:`emit_stencil_rows` — row stencils: 2dconv, fdtd-2d and (layered)
  3dconv.  Each needed ``(input row, column shift)`` pair becomes a frame
  section loaded with a GROUP vload — unaligned pairs (paper Section 2.3.2)
  when the shift is nonzero — and boundary output columns are masked with
  predication.

Every template emits both the scalar stream and the matching microthreads.
Work division across groups is a flattened strided partition; lanes mirror
the scalar core's tile-walk incrementally so they can compute their own
output addresses (the paper keeps equivalent per-microthread state, e.g.
``vec_i`` in Figure 8).

Floating-point constants are materialized once into dedicated registers
(f8-f15) by each template's ``init`` microthread; f1-f7 are scratch, f20+
hold accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..isa import Assembler, VL_GROUP, VL_SINGLE, opcodes as op
from .codegen import GroupCtx, VectorKernelBuilder, VectorProgram, \
    emit_fp_zero, strided_loop


def emit_fconst(a: Assembler, freg: str, value: float) -> None:
    """Materialize a float constant.

    Modeled as a single constant-pool load (one instruction); the simulator
    carries the exact double so results match the numpy references bit-wise.
    """
    a.li(freg, float(value))


@dataclass(frozen=True)
class MatTerm:
    """One product term ``bcast[i][k] * group[k][j]`` of a matmul-like sum.

    ``bcast_stride`` is the row stride of the broadcast operand (0 when it
    is a vector indexed by k only); ``group_stride`` is the row stride of
    the group operand (indexed ``[k][j]``).
    """

    bcast_base: int
    bcast_stride: int
    group_base: int
    group_stride: int


def _advance_tile(a: Assembler, jc_reg: str, i_reg: str, step: int,
                  njc: int,
                  on_row_advance: Callable[[Assembler], None]) -> None:
    """jc_idx += step; while jc_idx >= njc: jc_idx -= njc; i += 1."""
    a.addi(jc_reg, jc_reg, step)
    top = a.label()
    done = a.label()
    a.bind(top)
    a.li('x31', njc)
    a.blt(jc_reg, 'x31', done.name)
    a.addi(jc_reg, jc_reg, -njc)
    a.addi(i_reg, i_reg, 1)
    on_row_advance(a)
    a.j(top.name)
    a.bind(done)


def _emit_group_span(b: VectorKernelBuilder, a: Assembler, addr_reg: str,
                     flen: int, within: int, unaligned: bool = False) -> None:
    """GROUP-load a full w = flen*lanes span, splitting at line boundaries.

    A single GROUP vload is limited to one cache line (paper Section 2.3.2),
    so spans wider than a line become several vloads at stepped core
    offsets.
    """
    line = b.fabric.cfg.line_words
    lanes = b.lanes
    w = flen * lanes
    lanes_per_load = max(1, min(lanes, line // flen))
    for c in range(0, lanes, lanes_per_load):
        words_before = c * flen
        if words_before:
            a.li('x30', words_before)
            a.add('x30', addr_reg, 'x30')
            addr = 'x30'
        else:
            addr = addr_reg
        if within:
            a.addi('x24', 'x22', within)
            off = 'x24'
        else:
            off = 'x22'
        b.emit_vload_at(a, off, addr, flen, VL_GROUP, core_off=c,
                        unaligned=unaligned)


def emit_matmul_like(p: VectorProgram, *, name: str, ni: int, nj: int,
                     nk: int, terms: Sequence[MatTerm], out_base: int,
                     out_stride: int, alpha: float = 1.0, beta: float = 0.0,
                     kb: int = 4, flen: Optional[int] = None,
                     pcv: bool = False) -> None:
    """Emit one matmul-like vector phase plus its microthreads.

    Computes, for ``i in [0, ni)`` and ``j in [0, nj)``:

        out[i][j] = alpha * sum_k sum_t bcast_t[i][k] * group_t[k][j]
                    + beta * out_old[i][j]

    ``flen`` (output columns per lane) defaults to one cache line spread
    over the group.  ``nj`` must be a multiple of ``flen * lanes`` and
    ``nk`` a multiple of ``kb``.
    """
    b = p.b
    lanes = b.lanes
    sw = b.fabric.cfg.simd_width
    if flen is None:
        flen = sw if pcv else max(1, b.fabric.cfg.line_words // lanes)
    if pcv and flen % sw:
        raise ValueError(f'{name}: pcv needs flen multiple of {sw}')
    w = flen * lanes
    if nj % w or nk % kb:
        raise ValueError(f'{name}: nj={nj} %% {w} or nk={nk} %% {kb} != 0')
    njc = nj // w
    nterms = len(terms)
    g_section = kb * flen          # per-term group words per lane
    b_section = nterms * g_section  # start of the broadcast section
    frame_words = nterms * g_section + nterms * kb
    frames_per_tile = nk // kb
    total_tiles = ni * njc
    ngroups = len(b.groups)

    # ------------------------------------------------------------ scalar side
    def scalar_stream(a: Assembler, g: GroupCtx):
        ntiles = (total_tiles - g.group_id + ngroups - 1) // ngroups
        if ntiles <= 0:
            return
        a.vissue(f'.{name}_init')
        # x9 = jc_idx, x10 = i; x5+t = bcast row base; x7+t = group stream
        # address; x12+t = bcast stream address (both walk k inside a tile).
        a.li('x9', g.group_id % njc)
        a.li('x10', g.group_id // njc)
        for t, term in enumerate(terms):
            a.li(f'x{5 + t}', term.bcast_base)
            if term.bcast_stride:
                a.li('x30', term.bcast_stride)
                a.mul('x30', 'x30', 'x10')
                a.add(f'x{5 + t}', f'x{5 + t}', 'x30')

        def tile_body(a):
            a.vissue(f'.{name}_tile')
            a.li('x30', w)
            a.mul('x30', 'x30', 'x9')
            for t, term in enumerate(terms):
                a.li(f'x{7 + t}', term.group_base)
                a.add(f'x{7 + t}', f'x{7 + t}', 'x30')
                a.mv(f'x{12 + t}', f'x{5 + t}')

            def emit_loads(a):
                for t, term in enumerate(terms):
                    for k in range(kb):
                        _emit_group_span(b, a, f'x{7 + t}', flen,
                                         t * g_section + k * flen)
                        a.addi(f'x{7 + t}', f'x{7 + t}',
                               term.group_stride)
                for t in range(nterms):
                    a.addi('x24', 'x22', b_section + t * kb)
                    for lane in range(lanes):
                        a.vload('x24', f'x{12 + t}', lane, kb, VL_SINGLE)

            def emit_advance(a):
                for t in range(nterms):
                    a.addi(f'x{12 + t}', f'x{12 + t}', kb)

            b.dae_loop(a, frames_per_tile, emit_loads, emit_advance,
                       f'.{name}_body')
            a.vissue(f'.{name}_fini')

        def on_row_advance(a):
            for t, term in enumerate(terms):
                if term.bcast_stride:
                    a.addi(f'x{5 + t}', f'x{5 + t}', term.bcast_stride)

        if ntiles > 1:
            with a.for_count('x21', ntiles - 1):
                tile_body(a)
                _advance_tile(a, 'x9', 'x10', ngroups, njc, on_row_advance)
        tile_body(a)

    p.vector_phase(scalar_stream, frame_size=frame_words)

    # ----------------------------------------------------------- microthreads
    def microthreads(a: Assembler):
        def on_pre(a):
            a.li('x31', ngroups * w)
            a.add('x13', 'x13', 'x31')

        def on_wrap(a):
            a.li('x31', out_stride - njc * w)
            a.add('x13', 'x13', 'x31')

        a.bind(f'.{name}_init')
        a.csrr('x29', op.CSR_TID)
        a.csrr('x9', op.CSR_GROUP_ID)
        a.li('x11', njc)
        a.div('x10', 'x9', 'x11')   # i
        a.rem('x9', 'x9', 'x11')    # jc_idx
        # x13 = &out[i][jc_idx*w + tid*flen], maintained incrementally
        a.li('x13', out_stride)
        a.mul('x13', 'x13', 'x10')
        a.li('x31', w)
        a.mul('x31', 'x31', 'x9')
        a.add('x13', 'x13', 'x31')
        a.li('x31', flen)
        a.mul('x31', 'x31', 'x29')
        a.add('x13', 'x13', 'x31')
        a.li('x31', out_base)
        a.add('x13', 'x13', 'x31')
        if alpha != 1.0:
            emit_fconst(a, 'f8', alpha)
        if beta and beta != 1.0:
            emit_fconst(a, 'f9', beta)
        a.vend()

        # Rotating accumulators break the FMA RAW chain when few output
        # words live per lane (the dependent-FMA latency is 3 cycles);
        # two-deep load rotation hides the 2-cycle scratchpad latency.
        # This is ordinary -O3-style scheduling, matching the paper's
        # compiled kernels.
        ka = 1 if pcv else max(1, 4 // flen)
        nv = flen // sw if pcv else 0
        kav = 2 if (pcv and nv == 1) else 1

        def acc(f):
            return f'f{20 + f * ka}'

        a.bind(f'.{name}_tile')
        if pcv:
            for v in range(nv * kav):
                a.vbcast(f'v{v}', 'x0')
        else:
            for f in range(flen * ka):
                emit_fp_zero(a, f'f{20 + f}')
        a.vend()

        a.bind(f'.{name}_body')
        a.frame_start('x28')
        for kk in range(kb):
            for t in range(nterms):
                a.lwsp('f1', 'x28', b_section + t * kb + kk)
                if pcv:
                    a.vbcast('v7', 'f1')
                    for v in range(nv):
                        a.addi('x30', 'x28',
                               t * g_section + kk * flen + v * sw)
                        a.vl4('v6', 'x30', 0)
                        vacc = v * kav + (kk % kav)
                        a.vfma4(f'v{vacc}', 'v7', 'v6')
                else:
                    base_off = t * g_section + kk * flen
                    a.lwsp('f2', 'x28', base_off)
                    for f in range(flen):
                        if f + 1 < flen:
                            a.lwsp(f'f{2 + (f + 1) % 2}', 'x28',
                                   base_off + f + 1)
                        dest = f'f{20 + f * ka + kk % ka}'
                        a.fma(dest, 'f1', f'f{2 + f % 2}')
        a.remem()
        a.vend()

        a.bind(f'.{name}_fini')
        if ka > 1:
            for f in range(flen):
                for j in range(1, ka):
                    a.fadd(acc(f), acc(f), f'f{20 + f * ka + j}')
        if pcv and kav > 1:
            for v in range(nv):
                a.vadd4(f'v{v * kav}', f'v{v * kav}', f'v{v * kav + 1}')
        spill = b.fabric.cfg.spad_words - 2 * flen
        if pcv:
            # spill the SIMD accumulators through the scratchpad top
            for v in range(nv):
                a.li('x30', spill + v * sw)
                a.vs4(f'v{v * kav}', 'x30', 0)

        def acc_in(f, dest):
            """Fetch accumulator f into a register (spad when spilled)."""
            if pcv:
                a.li('x30', spill + f)
                a.lwsp(dest, 'x30', 0)
                return dest
            return acc(f)

        for f in range(flen):
            areg = acc_in(f, 'f3')
            if alpha != 1.0:
                a.fmul(areg, areg, 'f8')
            if beta:
                a.lw('f1', 'x13', f)
                if beta != 1.0:
                    a.fmul('f2', 'f1', 'f9')
                else:
                    a.mv('f2', 'f1')
                a.fadd(areg, areg, 'f2')
            a.sw(areg, 'x13', f)
        on_pre(a)
        _advance_tile(a, 'x9', 'x10', ngroups, njc, on_wrap)
        a.vend()

    p.add_microthreads(microthreads)


def emit_rowdot(p: VectorProgram, *, name: str, nrows: int, ncols: int,
                mats: Sequence[Tuple[int, int]], vec_base: int,
                partials_bases: Sequence[int],
                flen: Optional[int] = None, pcv: bool = False) -> None:
    """Emit a matvec phase: for each row r, lanes cooperatively compute
    per-term partial dot products ``sum_j mat_t[r][j] * vec[j]`` and store
    them to ``partials_t[r*lanes + tid]``.

    ``mats`` is a list of ``(base, row_stride)``.  Combine the partials with
    :func:`emit_rowdot_reduce` in a following MIMD phase.
    """
    b = p.b
    lanes = b.lanes
    sw = b.fabric.cfg.simd_width
    if flen is None:
        flen = sw if pcv else max(1, b.fabric.cfg.line_words // lanes)
    if pcv and flen % sw:
        # spans too narrow for a SIMD word degrade to scalar bodies (wide
        # groups on short rows; the paper finds SIMD-in-groups negligible)
        pcv = False
    w = flen * lanes
    if ncols % w:
        raise ValueError(f'{name}: ncols={ncols} not a multiple of {w}')
    nterms = len(mats)
    frame_words = (nterms + 1) * flen
    frames_per_row = ncols // w
    ngroups = len(b.groups)

    def scalar_stream(a: Assembler, g: GroupCtx):
        my_rows = list(range(g.group_id, nrows, ngroups))
        if not my_rows:
            return
        a.vissue(f'.{name}_init')
        for t, (base, stride) in enumerate(mats):
            a.li(f'x{5 + t}', base + my_rows[0] * stride)

        def row_body(a):
            a.vissue(f'.{name}_row')
            a.li('x9', vec_base)
            for t in range(nterms):
                a.mv(f'x{12 + t}', f'x{5 + t}')

            def emit_loads(a):
                for t in range(nterms):
                    _emit_group_span(b, a, f'x{12 + t}', flen, t * flen)
                _emit_group_span(b, a, 'x9', flen, nterms * flen)

            def emit_advance(a):
                for t in range(nterms):
                    a.addi(f'x{12 + t}', f'x{12 + t}', w)
                a.addi('x9', 'x9', w)

            b.dae_loop(a, frames_per_row, emit_loads, emit_advance,
                       f'.{name}_body')
            a.vissue(f'.{name}_fini')
            for t, (base, stride) in enumerate(mats):
                a.li('x31', stride * ngroups)
                a.add(f'x{5 + t}', f'x{5 + t}', 'x31')

        if len(my_rows) > 1:
            with a.for_count('x21', len(my_rows) - 1):
                row_body(a)
        row_body(a)

    p.vector_phase(scalar_stream, frame_size=frame_words)

    def microthreads(a: Assembler):
        a.bind(f'.{name}_init')
        a.csrr('x29', op.CSR_TID)
        a.csrr('x10', op.CSR_GROUP_ID)  # current row
        a.vend()

        # per-term accumulators rotate over 4 registers to break the
        # dependent-FMA chain (3-cycle latency); loads rotate two-deep to
        # hide the scratchpad latency — ordinary -O3-style scheduling.
        ka = 4

        a.bind(f'.{name}_row')
        if pcv:
            for t in range(2 * nterms):
                a.vbcast(f'v{t}', 'x0')
        else:
            for t in range(nterms * ka):
                emit_fp_zero(a, f'f{20 + t}')
        a.vend()

        a.bind(f'.{name}_body')
        a.frame_start('x28')
        if pcv:
            for i, v0 in enumerate(range(0, flen, sw)):
                a.addi('x30', 'x28', nterms * flen + v0)
                a.vl4('v7', 'x30', 0)
                for t in range(nterms):
                    a.addi('x30', 'x28', t * flen + v0)
                    a.vl4('v6', 'x30', 0)
                    a.vfma4(f'v{t * 2 + i % 2}', 'v7', 'v6')
        else:
            a.lwsp('f1', 'x28', nterms * flen)
            for f in range(flen):
                if f + 1 < flen:
                    a.lwsp(f'f{1 + (f + 1) % 2}', 'x28',
                           nterms * flen + f + 1)
                vec = f'f{1 + f % 2}'
                for t in range(nterms):
                    a.lwsp(f'f{4 + t}', 'x28', t * flen + f)
                    a.fma(f'f{20 + t * ka + f % ka}', vec, f'f{4 + t}')
        a.remem()
        a.vend()

        a.bind(f'.{name}_fini')
        if pcv:
            for t in range(nterms):
                a.vadd4(f'v{t * 2}', f'v{t * 2}', f'v{t * 2 + 1}')
                a.vredsum4(f'f{20 + t}', f'v{t * 2}')
        else:
            for t in range(nterms):
                for j in range(1, ka):
                    a.fadd(f'f{20 + t * ka}', f'f{20 + t * ka}',
                           f'f{20 + t * ka + j}')
                if t and ka > 1:
                    a.mv(f'f{20 + t}', f'f{20 + t * ka}')
        a.li('x13', lanes)
        a.mul('x13', 'x13', 'x10')
        a.add('x13', 'x13', 'x29')
        for t, base in enumerate(partials_bases):
            a.li('x31', base)
            a.add('x31', 'x31', 'x13')
            a.sw(f'f{20 + t}', 'x31', 0)
        a.addi('x10', 'x10', ngroups)
        a.vend()

    p.add_microthreads(microthreads)


def emit_rowdot_reduce(p: VectorProgram, *, nrows: int, lanes: int,
                       partials_bases: Sequence[int],
                       coeffs: Sequence[float], out_base: int,
                       accumulate: bool = False) -> None:
    """MIMD phase: ``out[r] (+)= sum_t coeff_t * sum_l partials_t[r*L+l]``."""

    def body(a: Assembler):
        for t, c in enumerate(coeffs):
            if c != 1.0:
                emit_fconst(a, f'f{8 + t}', c)
        with strided_loop(a, nrows):
            a.li('x5', lanes)
            a.mul('x5', 'x5', 'x3')
            emit_fp_zero(a, 'f20')
            for t, base in enumerate(partials_bases):
                a.li('x6', base)
                a.add('x6', 'x6', 'x5')
                emit_fp_zero(a, 'f21')
                for lane in range(lanes):
                    a.lw('f1', 'x6', lane)
                    a.fadd('f21', 'f21', 'f1')
                if coeffs[t] != 1.0:
                    a.fmul('f21', 'f21', f'f{8 + t}')
                a.fadd('f20', 'f20', 'f21')
            a.li('x7', out_base)
            a.add('x7', 'x7', 'x3')
            if accumulate:
                a.lw('f2', 'x7', 0)
                a.fadd('f20', 'f20', 'f2')
            a.sw('f20', 'x7', 0)

    p.mimd_phase(body)


@dataclass(frozen=True)
class StencilSection:
    """One frame section: ``array[(i + di)*stride + j + dj]`` row chunks."""

    base: int
    stride: int
    di: int
    dj: int


def emit_stencil_rows(p: VectorProgram, *, name: str, n_out_rows: int,
                      row0: int, ncols: int,
                      sections: Sequence[StencilSection],
                      coeffs: Sequence[float], out_base: int,
                      out_stride: int, jlo: int, jhi: int,
                      out_coeff_old: Optional[float] = None,
                      row_valid: Optional[Tuple[int, int, int]] = None,
                      flen: Optional[int] = None) -> None:
    """Emit a row-stencil phase.

    For output rows ``i in [row0, row0 + n_out_rows)`` and columns
    ``j in [jlo, jhi)``:

        out[i][j] = sum_s coeffs[s] * sections[s][(i+di)*stride + j + dj]
                    (+ out_coeff_old * out_old[i][j] when given)

    Every section is GROUP-loaded into the frame; sections with ``dj != 0``
    use the unaligned instruction pair.  Output columns outside
    ``[jlo, jhi)`` are masked with predication; the halo words a shifted
    load pulls from adjacent rows only feed those masked columns.
    """
    b = p.b
    lanes = b.lanes
    if flen is None:
        flen = max(1, b.fabric.cfg.line_words // lanes)
    # shrink the per-lane span until the frame fits the counter window's
    # scratchpad budget (tap-heavy stencils like 3dconv need this)
    cfg = b.fabric.cfg
    nsec_frame = len(sections) + (1 if out_coeff_old is not None else 0)
    while flen > 1 and             nsec_frame * flen * cfg.frame_counters > cfg.spad_words:
        flen //= 2
    w = flen * lanes
    if ncols % w:
        raise ValueError(f'{name}: ncols={ncols} not a multiple of {w}')
    nsec = len(sections)
    old_section = nsec * flen
    frame_words = old_section + (flen if out_coeff_old is not None else 0)
    njc = ncols // w
    total_tiles = n_out_rows * njc
    ngroups = len(b.groups)

    # distinct constants -> registers f8..f15 (deduplicated); kernels with
    # more than 8 distinct coefficients (e.g. 3dconv) materialize them
    # inline (one li per tap) instead
    consts = []
    for c in coeffs:
        if c not in consts:
            consts.append(c)
    if out_coeff_old is not None and out_coeff_old not in (1.0,):
        if out_coeff_old not in consts:
            consts.append(out_coeff_old)
    inline_consts = len(consts) > 8
    if inline_consts:
        creg = {}
    else:
        creg = {c: f'f{8 + i}' for i, c in enumerate(consts)}

    def coef_reg(a, c):
        if inline_consts:
            emit_fconst(a, 'f6', c)
            return 'f6'
        return creg[c]

    def scalar_stream(a: Assembler, g: GroupCtx):
        ntiles = (total_tiles - g.group_id + ngroups - 1) // ngroups
        if ntiles <= 0:
            return
        a.vissue(f'.{name}_init')
        a.li('x9', g.group_id % njc)    # jc index
        a.li('x10', g.group_id // njc)  # output-row offset

        def tile_body(a):
            a.li('x26', w)
            a.mul('x26', 'x26', 'x9')   # jc word offset
            for s, sec in enumerate(sections):
                a.li('x31', sec.stride)
                a.mul('x31', 'x31', 'x10')
                a.add('x31', 'x31', 'x26')
                a.li('x25', sec.base + (row0 + sec.di) * sec.stride + sec.dj)
                a.add('x25', 'x25', 'x31')
                _emit_group_span(b, a, 'x25', flen, s * flen,
                                 unaligned=(sec.dj != 0))
            if out_coeff_old is not None:
                a.li('x31', out_stride)
                a.mul('x31', 'x31', 'x10')
                a.add('x31', 'x31', 'x26')
                a.li('x25', out_base + row0 * out_stride)
                a.add('x25', 'x25', 'x31')
                _emit_group_span(b, a, 'x25', flen, old_section)
            b.emit_advance_slot(a)
            a.vissue(f'.{name}_body')

        with a.for_count('x21', ntiles):
            tile_body(a)
            _advance_tile(a, 'x9', 'x10', ngroups, njc, lambda a: None)

    p.vector_phase(scalar_stream, frame_size=frame_words)

    def microthreads(a: Assembler):
        # Lane-side addressing is fully incremental: the init microthread
        # pays the divides once, then every tile advance adjusts the output
        # pointer (x14), the column base (x13) and the row-validity phase
        # (x15) with adds only — the paper's microthreads keep the same
        # style of persistent per-lane state (Figure 8's vec_i).
        def on_pre(a):
            a.li('x31', ngroups * w)
            a.add('x13', 'x13', 'x31')
            a.add('x14', 'x14', 'x31')

        def on_wrap(a):
            a.li('x31', njc * w)
            a.sub('x13', 'x13', 'x31')
            a.li('x31', out_stride - njc * w)
            a.add('x14', 'x14', 'x31')
            if row_valid is not None:
                mod = row_valid[0]
                a.addi('x15', 'x15', 1)
                wrap = a.label()
                a.li('x31', mod)
                a.blt('x15', 'x31', wrap.name)
                a.li('x15', 0)
                a.bind(wrap)

        a.bind(f'.{name}_init')
        a.csrr('x29', op.CSR_TID)
        a.csrr('x9', op.CSR_GROUP_ID)
        a.li('x11', njc)
        a.div('x10', 'x9', 'x11')
        a.rem('x9', 'x9', 'x11')
        # x13 = lane's first output column j0 = jc*w + tid*flen
        a.li('x13', w)
        a.mul('x13', 'x13', 'x9')
        a.li('x31', flen)
        a.mul('x31', 'x31', 'x29')
        a.add('x13', 'x13', 'x31')
        # x14 = &out[row0 + x10][j0]
        a.li('x14', out_stride)
        a.mul('x14', 'x14', 'x10')
        a.add('x14', 'x14', 'x13')
        a.li('x31', out_base + row0 * out_stride)
        a.add('x14', 'x14', 'x31')
        if row_valid is not None:
            # x15 = (row0 + x10) % mod, maintained incrementally
            mod = row_valid[0]
            a.addi('x15', 'x10', row0)
            a.li('x31', mod)
            a.rem('x15', 'x15', 'x31')
        if not inline_consts:
            for c, reg in creg.items():
                emit_fconst(a, reg, c)
        a.vend()

        a.bind(f'.{name}_body')
        a.frame_start('x28')
        if row_valid is not None:
            # x26 = 1 when the flattened row index is a boundary row
            mod, rlo, rhi = row_valid
            a.slti('x26', 'x15', rlo)
            a.li('x31', rhi - 1)
            a.slt('x4', 'x31', 'x15')
            a.or_('x26', 'x26', 'x4')
        nacc = min(3, len(coeffs))
        for f in range(flen):
            for j in range(nacc):
                emit_fp_zero(a, f'f{20 + j}')
            # taps rotate over up to 3 accumulators and 2 load registers
            a.lwsp('f4', 'x28', f)
            for s, c in enumerate(coeffs):
                if s + 1 < len(coeffs):
                    a.lwsp(f'f{4 + (s + 1) % 2}', 'x28',
                           (s + 1) * flen + f)
                a.fma(f'f{20 + s % nacc}', f'f{4 + s % 2}',
                      coef_reg(a, c))
            for j in range(1, nacc):
                a.fadd('f20', 'f20', f'f{20 + j}')
            if out_coeff_old is not None:
                a.lwsp('f2', 'x28', old_section + f)
                if out_coeff_old != 1.0:
                    a.fmul('f2', 'f2', coef_reg(a, out_coeff_old))
                a.fadd('f20', 'f20', 'f2')
            # mask boundary columns, emitting only the checks this
            # kernel actually needs (full-width kernels skip them all)
            need_lo = jlo > 0
            need_hi = jhi < ncols
            need_row = row_valid is not None
            if not (need_lo or need_hi or need_row):
                a.sw('f20', 'x14', f)
            else:
                have_flag = False
                if need_lo or need_hi:
                    a.addi('x30', 'x13', f)
                if need_lo:
                    a.slti('x3', 'x30', jlo)
                    have_flag = True
                if need_hi:
                    a.li('x31', jhi - 1)
                    a.slt('x4', 'x31', 'x30')
                    if have_flag:
                        a.or_('x3', 'x3', 'x4')
                    else:
                        a.mv('x3', 'x4')
                    have_flag = True
                if need_row:
                    if have_flag:
                        a.or_('x3', 'x3', 'x26')
                    else:
                        a.mv('x3', 'x26')
                a.pred_eq('x3', 'x0')
                a.sw('f20', 'x14', f)
                a.pred_eq('x0', 'x0')
        a.remem()
        on_pre(a)
        _advance_tile(a, 'x9', 'x10', ngroups, njc, on_wrap)
        a.vend()

    p.add_microthreads(microthreads)
