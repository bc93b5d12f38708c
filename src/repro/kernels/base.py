"""Benchmark framework: each PolyBench kernel implements this interface.

A :class:`Benchmark` knows how to

* allocate and initialize its arrays on a fabric (``setup``),
* compute expected outputs with numpy (``expected``),
* describe its computation once, as an ordered list of template phases
  (``phases``), and
* verify fabric memory after a run (``verify``).

Four consumers walk the phase list, each through one ``kind -> emitter``
table: :meth:`Benchmark.build_mimd` and :meth:`Benchmark.build_vector`
here, :func:`repro.gpu.kernels.build_launches` and
:func:`repro.model.workload.build_workload`.  A kernel whose scalar
streams and microthreads are hand-written (gramschm, bfs) overrides the
two ``build_*`` methods instead of declaring phases.

The harness (:mod:`repro.harness`) pairs benchmarks with the Table 3
configuration registry.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa import Program
from ..manycore import Fabric, MachineConfig
from .codegen import MimdKernelBuilder, VectorKernelBuilder, VectorProgram
from .mimd_templates import (mimd_column_stats, mimd_fict_row,
                             mimd_fix_diagonal, mimd_matmul_like,
                             mimd_rowdot, mimd_stencil_rows, mimd_transpose)
from .vector_templates import (emit_matmul_like, emit_rowdot,
                               emit_rowdot_reduce, emit_stencil_rows)

#: widest vector group of Table 3: sizes the per-lane partial-sum buffers
#: the matvec kernels allocate
MAX_LANES = 16

#: one phase of a kernel: ``(kind, kwargs)``.  ``kwargs`` are the keyword
#: arguments the templates of that kind share across backends, plus the
#: few only some backends read (``name``: vector labels and model phase
#: names; ``partials_bases``: the vector rowdot's reduction buffers;
#: ``fit_rows``: the rows the stencil FLEN is fitted to).  A ``loop``
#: record holds ``count`` and the enclosed ``phases``.
Phase = Tuple[str, dict]

#: flattened reference outputs keyed by (benchmark, params, workspace
#: fingerprint); repeated verifies of the same workload (bench repeats,
#: sweeps, per-request serve checks) skip the numpy recompute
_EXPECTED_CACHE: 'OrderedDict[tuple, Dict[str, np.ndarray]]' = OrderedDict()
_EXPECTED_CACHE_CAP = 64
_expected_cache_hits = 0


def expected_cache_hits() -> int:
    """Number of reference recomputes avoided (for tests/diagnostics)."""
    return _expected_cache_hits


def clear_expected_cache() -> None:
    global _expected_cache_hits
    _EXPECTED_CACHE.clear()
    _expected_cache_hits = 0


def _workspace_fingerprint(name: str, ws: 'Workspace',
                           params: Dict[str, int]) -> str:
    """Digest of everything ``expected`` may read: params, inputs, meta."""
    h = hashlib.sha256()
    h.update(name.encode())
    h.update(repr(sorted(params.items())).encode())
    for k in sorted(ws.inputs):
        a = ws.inputs[k]
        h.update(k.encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    for k in sorted(ws.meta):
        v = ws.meta[k]
        h.update(k.encode())
        if isinstance(v, np.ndarray):
            h.update(str(v.shape).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


@dataclass
class VectorParams:
    """Vector-configuration knobs (Table 3 columns)."""

    lanes: int = 4
    pcv: bool = False
    max_groups: Optional[int] = None
    #: explicit path-ordered tile region to build groups on (serve mode);
    #: None plans over the whole mesh as the figures do
    tiles: Optional[Sequence[int]] = None

    @property
    def name(self) -> str:
        return f'V{self.lanes}' + ('_PCV' if self.pcv else '')


@dataclass
class Workspace:
    """Arrays a benchmark allocated on a fabric."""

    bases: Dict[str, int] = field(default_factory=dict)
    inputs: Dict[str, np.ndarray] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def base(self, name: str) -> int:
        return self.bases[name]


class Benchmark:
    """Abstract base for one PolyBench/GPU application."""

    name: str = '?'
    #: sizes used by the pytest correctness tests (small) and benches
    test_params: Dict[str, int] = {}
    bench_params: Dict[str, int] = {}

    # -- data -----------------------------------------------------------------
    def setup(self, fabric: Fabric, params: Dict[str, int]) -> Workspace:
        raise NotImplementedError

    def expected(self, ws: Workspace,
                 params: Dict[str, int]) -> Dict[str, np.ndarray]:
        """Map array name -> expected final contents (flattened order)."""
        raise NotImplementedError

    # -- programs ---------------------------------------------------------------
    def phases(self, ws: Workspace, params: Dict[str, int]) -> List[Phase]:
        """The kernel as an ordered list of template phases.

        Reads only ``ws.base(name)`` and ``params``, so the analytical
        model can walk it with a base-less workspace and no fabric.
        """
        raise NotImplementedError

    def build_mimd(self, fabric: Fabric, ws: Workspace,
                   params: Dict[str, int], *, prefetch: bool,
                   pcv: bool = False) -> Program:
        """One SPMD kernel per phase, a global barrier after each."""
        mb = MimdKernelBuilder()
        env = dict(cfg=fabric.cfg, prefetch=prefetch, pcv=pcv)

        def visit(kind, kw):
            emit = emitter_for(MIMD_EMITTERS, self.name, kind, 'MIMD')
            mb.add_kernel(lambda a: emit(a, env, **kw))

        walk_phases(self.phases(ws, params), mb.loop, visit)
        return mb.build()

    def build_vector(self, fabric: Fabric, ws: Workspace,
                     params: Dict[str, int], vp: VectorParams) -> Program:
        """One vector phase per template phase, SPMD phases in between."""
        p = self.make_vector_builder(fabric, vp, params).program()

        def visit(kind, kw):
            emitter_for(VECTOR_EMITTERS, self.name, kind,
                        'vector')(self, p, vp, **kw)

        walk_phases(self.phases(ws, params), p.loop, visit)
        return p.finish()

    # -- verification -----------------------------------------------------------
    def verify(self, fabric: Fabric, ws: Workspace,
               params: Dict[str, int], rtol: float = 1e-6,
               atol: float = 1e-6) -> None:
        for name, flat in self.expected_flat(ws, params).items():
            got = np.array(fabric.read_array(ws.base(name), flat.size),
                           dtype=float)
            np.testing.assert_allclose(
                got, flat, rtol=rtol, atol=atol,
                err_msg=f'{self.name}: array {name!r} mismatch')

    def expected_flat(self, ws: Workspace,
                      params: Dict[str, int]) -> Dict[str, np.ndarray]:
        """Flattened :meth:`expected` outputs, memoized per workload.

        The cache key digests the benchmark name, params, and the whole
        workspace (inputs *and* meta — BFS reads its golden depths off
        ``ws.meta``), so two workspaces that could diverge never share
        an entry.  Entries are read-only by convention; callers must
        not mutate the returned arrays.
        """
        global _expected_cache_hits
        # the function's code object is part of the key, so replacing
        # ``expected`` (tests monkey-patch it) can never hit stale
        # entries computed by the previous implementation
        code = getattr(self.expected, '__code__', None)
        key = (code, _workspace_fingerprint(self.name, ws, params))
        hit = _EXPECTED_CACHE.get(key)
        if hit is not None:
            _expected_cache_hits += 1
            _EXPECTED_CACHE.move_to_end(key)
            return hit
        flats = {name: np.asarray(want, dtype=float).ravel()
                 for name, want in self.expected(ws, params).items()}
        _EXPECTED_CACHE[key] = flats
        while len(_EXPECTED_CACHE) > _EXPECTED_CACHE_CAP:
            _EXPECTED_CACHE.popitem(last=False)
        return flats

    # -- helpers ----------------------------------------------------------------
    def alloc_np(self, fabric: Fabric, ws: Workspace, name: str,
                 data: np.ndarray) -> int:
        base = fabric.alloc(np.asarray(data, dtype=float).ravel().tolist())
        ws.bases[name] = base
        ws.inputs[name] = np.asarray(data, dtype=float).copy()
        return base

    def alloc_zeros(self, fabric: Fabric, ws: Workspace, name: str,
                    n: int) -> int:
        base = fabric.alloc(n)
        ws.bases[name] = base
        return base

    def params_for(self, which: str) -> Dict[str, int]:
        return dict(self.test_params if which == 'test'
                    else self.bench_params)

    def mt_body_estimate(self, params: Dict[str, int],
                         lanes: int) -> int:
        """Microthread length estimate for the runahead bound."""
        return 24

    def footprint_words(self, params: Dict[str, int], lanes: int) -> int:
        """Unique memory words a vector run touches — the analytical
        model's DRAM-roof input, declared by the kernels it covers."""
        raise NotImplementedError

    # -- FLEN / k-block policy ---------------------------------------------------
    def flen_for(self, cfg: MachineConfig, lanes: int, pcv: bool) -> int:
        """Output words per lane.

        Defaults to spreading one cache line across the group.  Caps: the
        scalar accumulator file limits non-SIMD kernels to 8 words, the
        SIMD register file (8 x 4 lanes) limits PCV kernels to 16.
        """
        per_lane = max(1, cfg.line_words // lanes)
        if pcv:
            return max(cfg.simd_width, min(per_lane, 16))
        # FLEN is a software choice, not a line-size artifact: wider
        # per-lane frames (several line-loads per row chunk) amortize the
        # broadcast element and the per-frame bookkeeping.  The scalar
        # accumulator file caps it at 8.
        return min(8, max(per_lane, 8))

    def fitted_flen(self, cfg: MachineConfig, lanes: int, pcv: bool,
                    ncols: int, ni: int = None, cap: int = None):
        """Shrink the per-lane span until it divides the row width.

        Returns ``(flen, use_pcv)``: when the fitted span drops below the
        SIMD width, the kernel falls back to scalar lane bodies — for wide
        groups on narrow matrices, per-core SIMD composed inside vector
        groups simply does not fit (the paper finds it has negligible
        impact anyway, Section 6.6).
        """
        f = self.flen_for(cfg, lanes, pcv)
        if cap is not None and not pcv:
            f = min(f, cap)
        while f > 1 and ncols % (f * lanes):
            f //= 2
        if ncols % (f * lanes):
            raise ValueError(f'{self.name}: width {ncols} incompatible '
                             f'with {lanes} lanes')
        if ni is not None and not pcv:
            # trade span width for tile parallelism: wider lanes mean
            # fewer tiles, and starving groups costs more than per-frame
            # bookkeeping saves
            ngroups = max(1, cfg.num_cores // (lanes + 1))

            def candidates():
                c = f
                while c >= 1:
                    if ncols % (c * lanes) == 0:
                        yield c
                    c //= 2

            def tiles(c):
                return ni * (ncols // (c * lanes))

            chosen = None
            for c in candidates():
                if tiles(c) >= 2 * ngroups:
                    chosen = c
                    break
            if chosen is None:
                for c in candidates():
                    if 3 * tiles(c) >= 2 * ngroups:
                        chosen = c
                        break
            f = chosen if chosen is not None else 1
        use_pcv = pcv and f % cfg.simd_width == 0
        return f, use_pcv

    def matvec_flen(self, cfg: MachineConfig, lanes: int, pcv: bool,
                    ncols: int) -> int:
        """Frame length per lane for matvec kernels.

        Matvec frames carry several line-loads per lane (>= 4 words) so
        frame bookkeeping amortizes even at 16 lanes; shrink only when the
        row length cannot accommodate the span.
        """
        f = max(16, self.flen_for(cfg, lanes, pcv))
        while f > 1 and ncols % (f * lanes):
            f //= 2
        if ncols % (f * lanes):
            raise ValueError(f'{self.name}: ncols={ncols} incompatible '
                             f'with {lanes} lanes')
        return f

    # The three rules below are the only statement of each template
    # family's FLEN / k-block policy: the vector emitters hand the result
    # to the templates, the analytical model to its phase of the same kind.
    def matmul_shape(self, cfg: MachineConfig, lanes: int, pcv: bool, *,
                     ni: int, nj: int, nk: int) -> dict:
        """Span fitted to the row width and to ``ni`` rows of tiles."""
        flen, use_pcv = self.fitted_flen(cfg, lanes, pcv, nj, ni=ni)
        return dict(kb=k_block(nk), flen=flen, pcv=use_pcv)

    def rowdot_shape(self, cfg: MachineConfig, lanes: int, pcv: bool, *,
                     ncols: int) -> dict:
        """Wide matvec frames; the template itself degrades narrow PCV."""
        return dict(flen=self.matvec_flen(cfg, lanes, pcv, ncols), pcv=pcv)

    def stencil_shape(self, cfg: MachineConfig, lanes: int, pcv: bool, *,
                      ncols: int, fit_rows: int) -> dict:
        """Scalar lane bodies, span capped at 4 and fitted to ``fit_rows``
        (a kernel's choice: fdtd-2d fits all three stencils to its grid
        height, the convolutions to their interior rows)."""
        flen, _ = self.fitted_flen(cfg, lanes, pcv, ncols, ni=fit_rows,
                                   cap=4)
        return dict(flen=flen)

    def make_vector_builder(self, fabric: Fabric, vp: VectorParams,
                            params: Dict[str, int]) -> VectorKernelBuilder:
        """Plan the groups; every vector phase sets its own frame size."""
        return VectorKernelBuilder(
            fabric, vp.lanes, max_groups=vp.max_groups,
            mt_body_instrs=self.mt_body_estimate(params, vp.lanes),
            tiles=vp.tiles)


# ------------------------------------------------------------------ emitters
def k_block(nk: int) -> int:
    """k-steps per matmul frame: 4, or the whole reduction if shorter."""
    return min(4, nk)


def walk_phases(records: Sequence[Phase], loop: Callable,
                visit: Callable[[str, dict], None]) -> None:
    """Visit phases in program order, a ``loop`` record's inside the
    builder's run-time ``loop(count)`` context.

    A module-level function on purpose: a nested recursive closure is a
    reference cycle that keeps the whole builder alive until the next
    cyclic collection.
    """
    for kind, kw in records:
        if kind == 'loop':
            with loop(kw['count']):
                walk_phases(kw['phases'], loop, visit)
        else:
            visit(kind, kw)


def emitter_for(table: Dict[str, Callable], kernel: str, kind: str,
                backend: str) -> Callable:
    """Look a phase kind up in one backend's table (all four walkers)."""
    try:
        return table[kind]
    except KeyError:
        raise ValueError(f'{kernel}: phase kind {kind!r} has no {backend} '
                         f'emitter') from None


#: SPMD bodies are the same code under every manycore config: a MIMD
#: kernel of their own, or a ``mimd_phase`` between vector phases
_SPMD_BODIES = {
    'transpose': mimd_transpose,
    'fict': mimd_fict_row,
    'column_stats': mimd_column_stats,
    'fix_diagonal': mimd_fix_diagonal,
}


def _spmd_kernel(body: Callable) -> Callable:
    return lambda a, env, **kw: body(a, **kw)


def _spmd_phase(body: Callable) -> Callable:
    return lambda bench, p, vp, **kw: p.mimd_phase(lambda a: body(a, **kw))


#: ``emit(a, env, **kwargs)`` — ``env`` is the run's ``cfg/prefetch/pcv``
MIMD_EMITTERS: Dict[str, Callable] = {
    'matmul': lambda a, env, *, name, **kw: mimd_matmul_like(
        a, **kw, kb=k_block(kw['nk']), **env),
    'rowdot': lambda a, env, *, name, partials_bases, **kw: mimd_rowdot(
        a, **kw, **env),
    'stencil': lambda a, env, *, name, fit_rows, **kw: mimd_stencil_rows(
        a, **kw, **env),
    **{kind: _spmd_kernel(body) for kind, body in _SPMD_BODIES.items()},
}


def _vector_matmul(bench: Benchmark, p: VectorProgram, vp: VectorParams, *,
                   ni: int, nj: int, nk: int, **kw) -> None:
    emit_matmul_like(p, ni=ni, nj=nj, nk=nk, **kw, **bench.matmul_shape(
        p.b.fabric.cfg, vp.lanes, vp.pcv, ni=ni, nj=nj, nk=nk))


def _vector_rowdot(bench: Benchmark, p: VectorProgram, vp: VectorParams, *,
                   name: str, nrows: int, ncols: int, mats, vec_base: int,
                   partials_bases, **reduce_kw) -> None:
    """Per-lane partial dot products, then their SPMD reduction."""
    emit_rowdot(p, name=name, nrows=nrows, ncols=ncols, mats=mats,
                vec_base=vec_base, partials_bases=partials_bases,
                **bench.rowdot_shape(p.b.fabric.cfg, vp.lanes, vp.pcv,
                                     ncols=ncols))
    emit_rowdot_reduce(p, nrows=nrows, lanes=vp.lanes,
                       partials_bases=partials_bases, **reduce_kw)


def _vector_stencil(bench: Benchmark, p: VectorProgram, vp: VectorParams, *,
                    fit_rows: int, **kw) -> None:
    emit_stencil_rows(p, **kw, **bench.stencil_shape(
        p.b.fabric.cfg, vp.lanes, vp.pcv, ncols=kw['ncols'],
        fit_rows=fit_rows))


#: ``emit(bench, p, vp, **kwargs)``
VECTOR_EMITTERS: Dict[str, Callable] = {
    'matmul': _vector_matmul,
    'rowdot': _vector_rowdot,
    'stencil': _vector_stencil,
    **{kind: _spmd_phase(body) for kind, body in _SPMD_BODIES.items()},
}
