"""Closed-form per-kernel workload descriptions.

:func:`build_workload` walks a modeled benchmark's own phase list
(:meth:`repro.kernels.base.Benchmark.phases`, handed a base-less
workspace: no program is assembled and no fabric touched) and costs each
phase with the geometry of its vector template
(:mod:`repro.kernels.vector_templates`): how many tiles the work divides
into, how many DAE frames each tile consumes, how many scalar-stream and
microthread instructions one frame costs, and how many response packets
the LLC must emit to fill it.  FLEN and k-block come from the benchmark's
``matmul_shape`` / ``rowdot_shape`` / ``stencil_shape`` — the same calls
the vector code generator makes — so the modeled frame shapes match what
would actually be emitted for the same machine.

Counts here are first-order estimates: exact for the structural
quantities (tiles, frames, frame words, packets) and approximate for
instruction counts (the calibration fit in
:mod:`repro.model.calibrate` absorbs per-kernel CPI and constant
factors).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

from ..kernels import registry
from ..kernels.base import Benchmark, Workspace, emitter_for
from ..manycore.config import MachineConfig


class WorkloadError(ValueError):
    """The kernel/config/machine combination cannot be code-generated."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _span_vloads(lanes: int, flen: int, line_words: int,
                 unaligned: bool = False) -> int:
    """vload instructions for one full ``flen * lanes`` GROUP span.

    Mirrors ``_emit_group_span``: a single GROUP vload covers at most one
    cache line, so wide spans split into several stepped vloads;
    unaligned sections use the prefix/suffix instruction pair.
    """
    lanes_per_load = max(1, min(lanes, line_words // max(1, flen)))
    splits = _ceil_div(lanes, lanes_per_load)
    return splits * (2 if unaligned else 1)


@dataclass(frozen=True)
class VectorPhase:
    """One vector phase (group formation -> scalar stream -> barrier)."""

    name: str
    tiles: int                 # total units of group work across the machine
    frames_per_tile: int
    frame_words: int           # per-lane frame footprint in words
    flen: int
    pcv: bool
    scalar_per_frame: int      # scalar-stream instrs per frame
    scalar_per_tile: int       # scalar instrs per tile outside the DAE loop
    mt_per_frame: int          # per-lane microthread instrs per frame
    mt_per_tile: int           # per-lane init/fini instrs per tile
    flops_per_frame: int       # per-lane FMA-class ops per frame
    packets_per_frame: int     # LLC response packets to fill one frame
    store_words_per_tile: int  # LLC words stored per tile (whole group)
    load_words_per_tile: int = 0  # extra scalar LLC load words per tile


@dataclass(frozen=True)
class MimdPhase:
    """One SPMD phase (reductions, transposes, boundary fix-ups)."""

    name: str
    items: int            # work items, strided across all cores
    instrs_per_item: int
    loads_per_item: int   # LLC word loads per item
    stores_per_item: int


@dataclass(frozen=True)
class Workload:
    """The closed-form description of one (kernel, params, machine) run."""

    benchmark: str
    lanes: int
    pcv: bool
    phases: Tuple = ()
    repeat: int = 1            # outer time loop (fdtd-2d's tmax)
    footprint_words: int = 0   # unique memory words touched

    @property
    def vector_phases(self) -> List[VectorPhase]:
        return [p for p in self.phases if isinstance(p, VectorPhase)]

    @property
    def n_phases(self) -> int:
        return len(self.phases) * self.repeat


# ------------------------------------------------------------ phase builders
def _matmul_phase(name: str, *, ni: int, nj: int, nk: int, nterms: int,
                  kb: int, flen: int, pcv: bool, lanes: int,
                  cfg: MachineConfig, alpha: float = 1.0,
                  beta: float = 0.0) -> VectorPhase:
    w = flen * lanes
    if nj % w or nk % kb:
        raise WorkloadError(f'{name}: nj={nj} % {w} or nk={nk} % {kb} != 0')
    njc = nj // w
    tiles = ni * njc
    frames_per_tile = nk // kb
    frame_words = nterms * kb * flen + nterms * kb
    sw = cfg.simd_width
    line = cfg.line_words
    noc = cfg.noc_width_words

    span = _span_vloads(lanes, flen, line)
    scalar_per_frame = (nterms * kb * (span + 2)       # group spans + advance
                        + nterms * (1 + lanes)         # SINGLE broadcasts
                        + nterms + 5)                  # advance + slot + loop
    if pcv:
        nv = max(1, flen // sw)
        mt_per_frame = 3 + kb * nterms * (2 + 3 * nv)
        flops_per_frame = kb * nterms * nv
        mt_per_tile = 2 * nv + nv * 4 + flen * 3 + 16
    else:
        ka = max(1, 4 // max(1, flen))
        mt_per_frame = 3 + kb * nterms * (1 + 2 * flen)
        flops_per_frame = kb * nterms * flen
        mt_per_tile = (2 * flen * ka + flen * (ka - 1)
                       + flen * (2 + (3 if beta else 0)
                                 + (1 if alpha != 1.0 else 0)) + 14)
    scalar_per_tile = 6 + 4 * nterms
    # every GROUP span delivers flen words to each of `lanes` lanes; each
    # lane chunk ships in ceil(flen/noc) packets.  SINGLE broadcasts ship
    # kb words to one lane per vload.
    packets_per_frame = (nterms * kb * lanes * _ceil_div(flen, noc)
                         + nterms * lanes * _ceil_div(kb, noc))
    store_words_per_tile = w + (w if beta else 0)
    return VectorPhase(
        name=name, tiles=tiles, frames_per_tile=frames_per_tile,
        frame_words=frame_words, flen=flen, pcv=pcv,
        scalar_per_frame=scalar_per_frame, scalar_per_tile=scalar_per_tile,
        mt_per_frame=mt_per_frame, mt_per_tile=mt_per_tile,
        flops_per_frame=flops_per_frame, packets_per_frame=packets_per_frame,
        store_words_per_tile=store_words_per_tile)


def _rowdot_phase(name: str, *, nrows: int, ncols: int, nterms: int,
                  flen: int, pcv: bool, lanes: int,
                  cfg: MachineConfig) -> VectorPhase:
    sw = cfg.simd_width
    if pcv and flen % sw:
        pcv = False            # template falls back to scalar lane bodies
    w = flen * lanes
    if ncols % w:
        raise WorkloadError(f'{name}: ncols={ncols} not a multiple of {w}')
    frames_per_row = ncols // w
    frame_words = (nterms + 1) * flen
    noc = cfg.noc_width_words
    span = _span_vloads(lanes, flen, cfg.line_words)
    scalar_per_frame = (nterms + 1) * (span + 2) + (nterms + 1) + 5
    if pcv:
        nv = max(1, flen // sw)
        mt_per_frame = 3 + nv * (2 + 3 * nterms)
        flops_per_frame = nv * nterms
    else:
        mt_per_frame = 3 + 1 + flen * (1 + 2 * nterms)
        flops_per_frame = flen * nterms
    mt_per_tile = 2 * nterms * 4 + nterms * 6 + 8
    scalar_per_tile = 8 + 3 * nterms
    packets_per_frame = (nterms + 1) * lanes * _ceil_div(flen, noc)
    return VectorPhase(
        name=name, tiles=nrows, frames_per_tile=frames_per_row,
        frame_words=frame_words, flen=flen, pcv=pcv,
        scalar_per_frame=scalar_per_frame, scalar_per_tile=scalar_per_tile,
        mt_per_frame=mt_per_frame, mt_per_tile=mt_per_tile,
        flops_per_frame=flops_per_frame, packets_per_frame=packets_per_frame,
        store_words_per_tile=nterms * lanes)   # per-lane partial stores


def _stencil_phase(name: str, *, n_out_rows: int, ncols: int,
                   n_aligned: int, n_unaligned: int, has_old: bool,
                   flen: int, lanes: int, cfg: MachineConfig) -> VectorPhase:
    nsec = n_aligned + n_unaligned
    nsec_frame = nsec + (1 if has_old else 0)
    # mirror the template's span shrink to fit the counter window
    while flen > 1 and nsec_frame * flen * cfg.frame_counters > cfg.spad_words:
        flen //= 2
    w = flen * lanes
    if ncols % w:
        raise WorkloadError(f'{name}: ncols={ncols} not a multiple of {w}')
    njc = ncols // w
    tiles = n_out_rows * njc
    frame_words = nsec_frame * flen
    noc = cfg.noc_width_words
    line = cfg.line_words
    spans = (n_aligned + (1 if has_old else 0)) \
        * (_span_vloads(lanes, flen, line) + 6) \
        + n_unaligned * (_span_vloads(lanes, flen, line, unaligned=True) + 6)
    scalar_per_tile = spans + 2 + 1 + 10   # slot advance + vissue + walk
    nacc = min(3, nsec)
    mt_per_tile = (3 + flen * (2 * nacc + 1 + 2 * nsec + (nacc - 1)
                               + (3 if has_old else 0) + 4 + 1) + 12)
    flops = flen * (nsec + (1 if has_old else 0))
    packets = ((n_aligned + (1 if has_old else 0))
               * lanes * _ceil_div(flen, noc)
               + n_unaligned * lanes * 2 * _ceil_div(flen, noc))
    return VectorPhase(
        name=name, tiles=tiles, frames_per_tile=1, frame_words=frame_words,
        flen=flen, pcv=False,
        scalar_per_frame=0, scalar_per_tile=scalar_per_tile,
        mt_per_frame=0, mt_per_tile=mt_per_tile,
        flops_per_frame=flops, packets_per_frame=packets,
        store_words_per_tile=w)


def _reduce_phase(nrows: int, nterms: int, lanes: int,
                  accumulate: bool = False) -> MimdPhase:
    return MimdPhase(
        name='reduce', items=nrows,
        instrs_per_item=nterms * (2 * lanes + 4) + 10,
        loads_per_item=nterms * lanes + (1 if accumulate else 0),
        stores_per_item=1)


# ------------------------------------------------------------ the phase walk
def _model_matmul(bench: Benchmark, cfg: MachineConfig, lanes: int,
                  pcv: bool, *, name: str, ni: int, nj: int, nk: int,
                  terms: Sequence, alpha: float = 1.0, beta: float = 0.0,
                  **_) -> List[VectorPhase]:
    return [_matmul_phase(
        name, ni=ni, nj=nj, nk=nk, nterms=len(terms), lanes=lanes, cfg=cfg,
        alpha=alpha, beta=beta,
        **bench.matmul_shape(cfg, lanes, pcv, ni=ni, nj=nj, nk=nk))]


def _model_rowdot(bench: Benchmark, cfg: MachineConfig, lanes: int,
                  pcv: bool, *, name: str, nrows: int, ncols: int,
                  mats: Sequence, accumulate: bool = False, **_) -> List:
    return [_rowdot_phase(name, nrows=nrows, ncols=ncols, nterms=len(mats),
                          lanes=lanes, cfg=cfg,
                          **bench.rowdot_shape(cfg, lanes, pcv, ncols=ncols)),
            _reduce_phase(nrows, len(mats), lanes, accumulate=accumulate)]


def _model_stencil(bench: Benchmark, cfg: MachineConfig, lanes: int,
                   pcv: bool, *, name: str, n_out_rows: int, ncols: int,
                   sections: Sequence, fit_rows: int, out_coeff_old=None,
                   **_) -> List[VectorPhase]:
    n_unaligned = sum(1 for sec in sections if sec.dj != 0)
    return [_stencil_phase(
        name, n_out_rows=n_out_rows, ncols=ncols,
        n_aligned=len(sections) - n_unaligned, n_unaligned=n_unaligned,
        has_old=out_coeff_old is not None, lanes=lanes, cfg=cfg,
        **bench.stencil_shape(cfg, lanes, pcv, ncols=ncols,
                              fit_rows=fit_rows))]


def _spmd_model(kind: str, items: Callable[..., int],
                instrs_per_item: int) -> Callable:
    """A one-load one-store SPMD phase named after its kind."""
    return lambda bench, cfg, lanes, pcv, **kw: [MimdPhase(
        kind, items=items(**kw), instrs_per_item=instrs_per_item,
        loads_per_item=1, stores_per_item=1)]


#: ``model(bench, cfg, lanes, pcv, **kwargs) -> [phase, ...]``
MODEL_EMITTERS: Dict[str, Callable] = {
    'matmul': _model_matmul,
    'rowdot': _model_rowdot,
    'stencil': _model_stencil,
    'transpose': _spmd_model('transpose', lambda n, m, **_: n * m, 8),
    'fict': _spmd_model('fict', lambda m, **_: m, 6),
}

#: Benchmarks the analytical model covers: the matvec family (mvt, atax,
#: bicg, gesummv), the matmul family (gemm, syrk, syr2k) and the stencil
#: family (2dconv, fdtd-2d).  Each declares ``footprint_words``.
MODELED_KERNELS: Tuple[str, ...] = (
    '2dconv', 'atax', 'bicg', 'fdtd-2d', 'gemm', 'gesummv', 'mvt', 'syr2k',
    'syrk')


def _number_repeats(phases: List) -> Tuple:
    """Phases sharing a name get a running index (syr2k's two transposes
    are ``transpose0``/``transpose1``; syrk's one stays ``transpose``)."""
    names = [p.name for p in phases]
    index = {n: itertools.count() for n in names if names.count(n) > 1}
    return tuple(replace(p, name=f'{p.name}{next(index[p.name])}')
                 if p.name in index else p for p in phases)


def build_workload(bench_name: str, params: Dict[str, int],
                   cfg: MachineConfig, lanes: int, pcv: bool) -> Workload:
    """Closed-form workload for one (kernel, params, machine, group shape).

    Raises :class:`WorkloadError` for un-modeled benchmarks or infeasible
    geometry (the same combinations the code generator would reject).
    """
    if bench_name not in MODELED_KERNELS:
        raise WorkloadError(
            f'benchmark {bench_name!r} is not analytically modeled '
            f'(modeled: {", ".join(MODELED_KERNELS)})')
    bench = registry.make(bench_name)
    # every array at base 0: the model reads shapes, never addresses
    records = bench.phases(Workspace(bases=defaultdict(int)), params)
    repeat = 1
    if len(records) == 1 and records[0][0] == 'loop':
        # Workload.repeat is whole-program: only an outermost loop maps
        loop = records[0][1]
        repeat, records = loop['count'], loop['phases']
    try:
        phases = [p for kind, kw in records
                  for p in emitter_for(MODEL_EMITTERS, bench_name, kind,
                                       'model')(bench, cfg, lanes, pcv, **kw)]
    except ValueError as e:
        raise WorkloadError(str(e))
    return Workload(bench_name, lanes, pcv, phases=_number_repeats(phases),
                    repeat=repeat,
                    footprint_words=bench.footprint_words(params, lanes))
