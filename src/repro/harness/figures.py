"""Regenerate every table and figure of the paper's evaluation section.

A table-shaped figure is a row (title, columns, metric, baseline,
speedup-or-ratio, :class:`Series` format) that one reducer, :func:`table`,
evaluates from :data:`METRICS`; :func:`_column` resolves every column,
stating Table 3's ``BEST_V`` and long-line rule once.  Figures 11-13 and
15 filter core subsets, hop buckets or lanes and stay hand-written.  A
shared :class:`ResultCache` simulates each (benchmark, configuration,
machine-override) point once per session.

Inputs are scaled down from the paper's (see EXPERIMENTS.md); the point of
these harnesses is the *shape* — who wins, by what factor, where the
crossovers sit — not absolute cycle counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..core.vgroup import plan_groups
from ..kernels import registry
from ..manycore import DEFAULT_CONFIG, MachineConfig
from .configs import META_CONFIGS, get
from .runner import RunResult


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def amean(values: Sequence[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


class ResultCache:
    """Memoize simulation results across figures.

    Keys are the content-addressed :meth:`repro.jobs.JobSpec.key` hashes,
    so ``active_cores=None`` vs ``()`` and parameter-dict ordering never
    split a cache entry.  ``get``/``put`` read and write the in-memory
    dict backed by an optional persistent :class:`repro.jobs.ResultStore`,
    so the cache is itself a store: ``SweepEngine(store=cache)`` farms
    points out in parallel straight into it, and the figure afterwards
    simulates nothing (see docs/sweeps.md).  ``self.simulations`` counts
    actual simulator launches.
    """

    def __init__(self, scale: str = 'bench', verify: bool = True,
                 store=None):
        self.scale = scale
        self.verify = verify
        self.store = store
        self._results: Dict[str, RunResult] = {}
        self.simulations = 0

    def get(self, key: str) -> Optional[RunResult]:
        result = self._results.get(key)
        if result is None and self.store is not None:
            result = self.store.get(key)
            if result is not None:
                self._results[key] = result
        return result

    def put(self, key: str, result: RunResult) -> None:
        self._results[key] = result
        if self.store is not None:
            self.store.put(key, result)

    def run(self, bench_name: str, config_name: str,
            machine: Optional[MachineConfig] = None,
            active_cores: Optional[tuple] = None,
            params_override: Optional[dict] = None) -> RunResult:
        from ..jobs.engine import run_job
        from ..jobs.spec import JobSpec
        spec = JobSpec.make(bench_name, config_name, scale=self.scale,
                            verify=self.verify,
                            params_override=params_override,
                            machine=machine, active_cores=active_cores)
        key = spec.key()
        result = self.get(key)
        if result is None:
            result = run_job(spec)
            self.simulations += 1
            self.put(key, result)
        return result


@dataclass
class Series:
    """One figure's data: rows (benchmarks) x columns (configurations)."""

    title: str
    columns: List[str]
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    mean_kind: str = 'geomean'
    value_format: str = '{:.2f}'

    def add(self, row: str, col: str, value: float) -> None:
        self.rows.setdefault(row, {})[col] = value

    def mean_row(self) -> Dict[str, float]:
        fn = geomean if self.mean_kind == 'geomean' else amean
        out = {}
        for col in self.columns:
            out[col] = fn([r[col] for r in self.rows.values() if col in r])
        return out

    def render(self) -> str:
        name_w = max([len(r) for r in self.rows] + [10])
        col_w = max([len(c) for c in self.columns] + [8]) + 1
        header = ' ' * name_w + ''.join(f'{c:>{col_w}}'
                                        for c in self.columns)
        lines = [self.title, header, '-' * len(header)]
        for row, vals in self.rows.items():
            cells = ''.join(
                f'{self.value_format.format(vals[c]):>{col_w}}'
                if c in vals else f'{"-":>{col_w}}'
                for c in self.columns)
            lines.append(f'{row:<{name_w}}{cells}')
        mean = self.mean_row()
        label = 'GeoMean' if self.mean_kind == 'geomean' else 'ArithMean'
        cells = ''.join(f'{self.value_format.format(mean[c]):>{col_w}}'
                        for c in self.columns)
        lines.append('-' * len(header))
        lines.append(f'{label:<{name_w}}{cells}')
        return '\n'.join(lines)


#: metric name -> getter; counts come back as floats, which is exact
#: below 2**53, so a ratio of two equals the integer division bit for bit
METRICS = {
    'cycles': lambda r: float(r.cycles),
    'icache': lambda r: float(r.icache_accesses),
    'instrs': lambda r: float(r.instrs),
    'energy': lambda r: r.energy.on_chip_total if r.energy else 0.0,
    'miss_rate': lambda r: r.stats.mem.miss_rate,
}


def table(title: str, benches: Sequence[str], columns: Sequence[str],
          result, metric: str, baseline: Optional[str] = None,
          speedup: bool = False, **series) -> Series:
    """Fill one :class:`Series` from ``result(bench, column)``.

    Each cell holds ``METRICS[metric]`` of that result, or — with a
    ``baseline`` column — its ratio to the baseline's: base/x for a
    ``speedup``, x/base otherwise.  A ``None`` result is an empty cell.
    The baseline resolves first in each row, then the columns in order.
    ``series`` passes ``mean_kind`` / ``value_format`` through.
    """
    value = METRICS[metric]
    s = Series(title, list(columns), **series)
    for b in benches:
        base = value(result(b, baseline)) if baseline else None
        for col in columns:
            r = result(b, col)
            if r is None:
                continue
            x = value(r)
            s.add(b, col, x if base is None else
                  base / x if speedup else x / base)
    return s


def _long_lines(cache: ResultCache, bench: str) -> bool:
    """Table 3's "Long Lines: ?": the long-line set, at bench scale only
    (the variants need row spans of at least one long line)."""
    return bench in registry.LONG_LINE_SET and cache.scale == 'bench'


def _column(cache: ResultCache, bench: str, col: str,
            machine: Optional[MachineConfig] = None) -> Optional[RunResult]:
    """The result behind one figure column, ``None`` for an empty cell.

    A meta-configuration keeps the fastest of its ``META_CONFIGS``
    members (the first on ties); ``BEST_V`` takes long lines where they
    apply.  A long-line configuration where they do not is empty.
    """
    if col == 'BEST_V_PCV' and bench == 'gramschm':
        col = 'BEST_V'  # the paper: no SIMD variant; closest valid
    if col == 'BEST_V' and _long_lines(cache, bench):
        col = 'BEST_V_LL'
    if col in META_CONFIGS:
        return min((_column(cache, bench, m, machine)
                    for m in META_CONFIGS[col].members),
                   key=lambda r: r.cycles)
    if get(col).long_lines and not _long_lines(cache, bench):
        return None
    return cache.run(bench, col, machine=machine)


POLY = [c.name for c in registry.POLYBENCH]


def _figure(title: str, columns: Sequence[str], metric: str,
            baseline: Optional[str] = None, speedup: bool = False,
            **series):
    """One figure row: ``fig(cache, benches=POLY)`` is :func:`table`
    over :func:`_column`."""
    def fig(cache: ResultCache, benches: Sequence[str] = POLY) -> Series:
        return table(title, benches, columns, partial(_column, cache),
                     metric, baseline, speedup, **series)
    fig.__doc__ = title
    return fig


# ------------------------------------------------------------------ Figure 10
_FIG10 = ['NV', 'NV_PF', 'BEST_V']
fig10a_speedup = _figure('Figure 10a: speedup relative to NV', _FIG10,
                         'cycles', 'NV', speedup=True)
fig10b_icache = _figure('Figure 10b: I-cache accesses relative to NV',
                        _FIG10, 'icache', 'NV')
fig10c_energy = _figure('Figure 10c: total on-chip energy relative to NV',
                        _FIG10, 'energy', 'NV')


# ------------------------------------------------------------------ Figure 11
CORE_COUNTS = (1, 4, 16, 64)


def fig11_scalability(cache: ResultCache,
                      benches: Sequence[str] = POLY) -> Series:
    """NV_PF speedup for 1/4/16/64 cores over one core (Figure 11)."""
    cols = [f'NV_PF_{n}' for n in CORE_COUNTS]
    s = Series('Figure 11: NV_PF speedup vs a single core', cols)
    for b in benches:
        base = cache.run(b, 'NV_PF', active_cores=(0,)).cycles
        for n in CORE_COUNTS:
            r = cache.run(b, 'NV_PF', active_cores=tuple(range(n)))
            s.add(b, f'NV_PF_{n}', base / r.cycles)
    return s


# ------------------------------------------------- Figures 12/13 (CPI stacks)
CPI_COMPONENTS = ('issued', 'frame', 'inet', 'other')


def cpi_stack(result: RunResult, cores: Optional[Sequence[int]] = None
              ) -> Dict[str, float]:
    """Per-core CPI decomposition (paper footnote 1): each component is
    stall cycles per issued instruction; the total equals the actual CPI."""
    stats = [result.stats.cores[c] for c in
             (cores if cores is not None else result.stats.cores)]
    stats = [c for c in stats if c.instrs > 0]
    instrs = sum(c.instrs for c in stats)
    if instrs == 0:
        return {k: 0.0 for k in CPI_COMPONENTS}
    frame = sum(c.stall_frame + c.stall_loadq for c in stats)
    inet = sum(c.stall_inet_input + c.stall_backpressure for c in stats)
    other = sum(c.stall_scoreboard + c.stall_branch + c.stall_other
                for c in stats)
    return {
        'issued': 1.0,
        'frame': frame / instrs,
        'inet': inet / instrs,
        'other': other / instrs,
    }


def fig12_cpi_by_cores(cache: ResultCache,
                       benches: Sequence[str] = POLY) -> Dict[str, Dict]:
    """CPI stacks for NV_PF at 1/16/64 cores (Figure 12)."""
    out = {}
    for b in benches:
        out[b] = {}
        for n in (1, 16, 64):
            r = cache.run(b, 'NV_PF', active_cores=tuple(range(n)))
            out[b][f'NV_PF_{n}'] = cpi_stack(r)
    return out


def fig13_cpi_bandwidth(cache: ResultCache,
                        benches: Sequence[str] = POLY) -> Dict[str, Dict]:
    """CPI stacks: NV_PF vs NV_PF with 2x DRAM bandwidth vs V4 (Fig 13).

    For V4 only expander cores are averaged, as in the paper ("the root
    cause of a stall is not apparent in a non-expander vector core").
    """
    bw2 = DEFAULT_CONFIG.scaled(
        dram_bandwidth_words_per_cycle=2 *
        DEFAULT_CONFIG.dram_bandwidth_words_per_cycle)
    groups, _ = plan_groups(DEFAULT_CONFIG.mesh_width,
                            DEFAULT_CONFIG.mesh_height, 4)
    expanders = [g.expander for g in groups]
    out = {}
    for b in benches:
        out[b] = {
            'B': cpi_stack(cache.run(b, 'NV_PF')),
            '2X': cpi_stack(cache.run(b, 'NV_PF', machine=bw2)),
            'V4': cpi_stack(cache.run(b, 'V4'), cores=expanders),
        }
    return out


def render_cpi(table: Dict[str, Dict], title: str) -> str:
    lines = [title]
    for b, cfgs in table.items():
        for cfg, comp in cfgs.items():
            total = sum(comp.values())
            parts = ' '.join(f'{k}={v:.2f}' for k, v in comp.items())
            lines.append(f'  {b:10s} {cfg:10s} CPI={total:6.2f}  {parts}')
    return '\n'.join(lines)


# ------------------------------------------------------------------ Figure 14
_FIG14 = ['NV_PF', 'PCV_PF', 'BEST_V', 'BEST_V_PCV']
fig14a_speedup = _figure('Figure 14a: speedup relative to NV_PF',
                         _FIG14 + ['GPU'], 'cycles', 'NV_PF', speedup=True)
fig14b_icache = _figure('Figure 14b: I-cache accesses relative to NV_PF',
                        _FIG14, 'icache', 'NV_PF')
fig14c_energy = _figure('Figure 14c: total on-chip energy relative to '
                        'NV_PF', _FIG14, 'energy', 'NV_PF')


# ------------------------------------------------------------------ Figure 15
FIG15_BENCHES = ('2dconv', '3dconv', 'bicg', 'gemm', 'syr2k')


def fig15_inet_stalls(cache: ResultCache, lanes: int,
                      benches: Sequence[str] = FIG15_BENCHES,
                      kind: str = 'input') -> Dict[str, List[float]]:
    """inet stalls by hop distance from the scalar core (Figures 15a/15b).

    ``kind='input'`` counts input-queue-empty stalls, ``'backpressure'``
    counts output-full stalls; both relative to total cycles, per hop.
    """
    cfg = DEFAULT_CONFIG
    groups, _ = plan_groups(cfg.mesh_width, cfg.mesh_height, lanes)
    out = {}
    for b in benches:
        r = cache.run(b, f'V{lanes}')
        cycles = max(1, r.cycles)
        per_hop = [0.0] * (lanes + 1)
        counts = [0] * (lanes + 1)
        for g in groups:
            for cid in g.tiles:
                hop = g.hop_of(cid)
                cs = r.stats.cores[cid]
                stall = (cs.stall_inet_input if kind == 'input'
                         else cs.stall_backpressure)
                per_hop[hop] += stall / cycles
                counts[hop] += 1
        out[b] = [per_hop[h] / counts[h] if counts[h] else 0.0
                  for h in range(lanes + 1)]
    return out


def fig15c_frame_stalls(cache: ResultCache,
                        benches: Sequence[str] = POLY) -> Series:
    """Fraction of cycles waiting for a frame: NV_PF vs V4 (Figure 15c)."""
    s = Series('Figure 15c: fraction of cycles waiting for a frame',
               ['NV_PF', 'V4'], mean_kind='amean')
    cfg = DEFAULT_CONFIG
    groups, _ = plan_groups(cfg.mesh_width, cfg.mesh_height, 4)
    lane_ids = [cid for g in groups for cid in g.lanes]
    for b in benches:
        pf = cache.run(b, 'NV_PF')
        active = [c for c in pf.stats.cores.values() if c.instrs > 0]
        frac = (sum(c.stall_frame + c.stall_loadq for c in active) /
                max(1, len(active) * pf.cycles))
        s.add(b, 'NV_PF', frac)
        v4 = cache.run(b, 'V4')
        vstats = [v4.stats.cores[c] for c in lane_ids]
        frac = (sum(c.stall_frame for c in vstats) /
                max(1, len(vstats) * v4.cycles))
        s.add(b, 'V4', frac)
    return s


# ------------------------------------------------------------------ Figure 16
fig16_vector_lengths = _figure('Figure 16: speedup relative to V4',
                               ['V4', 'V4_LL_PCV', 'V16', 'V16_LL_PCV'],
                               'cycles', 'V4', speedup=True)


# ------------------------------------------------------------------ Figure 17
fig17a_miss_rate = _figure('Figure 17a: LLC miss rate',
                           ['NV', 'NV_PF', 'BEST_V', 'V16_LL'], 'miss_rate',
                           mean_kind='amean', value_format='{:.3f}')


def _sweep(title: str, knob: str, points: Dict[str, int], base: str):
    """A machine-field sweep (Figures 17b/17c): NV_PF, V4 and V16_LL at
    each of ``points`` (column suffix -> value of the ``knob`` field), as
    speedups over the ``base`` column; a column no benchmark fills is
    dropped.  The speedups are taken after the table is filled, so the
    points run in column order even where ``base`` is not the first."""
    def fig(cache: ResultCache, benches: Sequence[str] = POLY) -> Series:
        cols = {f'{cfg}_{suffix}': (cfg, value)
                for cfg in ('NV_PF', 'V4', 'V16_LL')
                for suffix, value in points.items()}

        def result(bench, col):
            cfg, value = cols[col]
            machine = get(cfg).machine().scaled(**{knob: value})
            return _column(cache, bench, cfg, machine)
        s = table(title, benches, cols, result, 'cycles')
        s.columns = [c for c in s.columns
                     if any(c in row for row in s.rows.values())]
        for row in s.rows.values():
            row.update({c: row[base] / x for c, x in row.items()})
        return s
    fig.__doc__ = title
    return fig


# The paper shrinks the LLC to 16/32 kB for this sweep so capacity
# pressure is visible; we do the same relative to our scaled inputs.
fig17b_llc_capacity = _sweep(
    'Figure 17b: speedup relative to NV_PF @ 32kB LLC',
    'llc_capacity_bytes', {'16kB': 16 * 1024, '32kB': 32 * 1024},
    'NV_PF_32kB')
fig17c_noc_width = _sweep('Figure 17c: speedup relative to NV_PF @ NW1',
                          'noc_width_words', {'NW1': 1, 'NW4': 4},
                          'NV_PF_NW1')


# ------------------------------------------------------------- Section 6.6 bfs
def bfs_irregular(cache: ResultCache) -> Series:
    """NV vs vector groups on bfs (Section 6.6: NV is ~2.9x faster)."""
    return table('Section 6.6: bfs speedup relative to V4 (higher = NV '
                 'wins)', ['bfs'], ['NV', 'V4', 'V16'],
                 partial(_column, cache), 'cycles', 'V4', speedup=True)


#: CLI/sweep-facing registry: figure name -> function name in this module.
#: Every entry takes (cache, benches=...) except 'bfs' (cache only).
FIGURES = {
    'fig10a': 'fig10a_speedup', 'fig10b': 'fig10b_icache',
    'fig10c': 'fig10c_energy', 'fig11': 'fig11_scalability',
    'fig14a': 'fig14a_speedup', 'fig14b': 'fig14b_icache',
    'fig14c': 'fig14c_energy', 'fig15c': 'fig15c_frame_stalls',
    'fig16': 'fig16_vector_lengths', 'fig17a': 'fig17a_miss_rate',
    'fig17b': 'fig17b_llc_capacity', 'fig17c': 'fig17c_noc_width',
    'bfs': 'bfs_irregular',
}
