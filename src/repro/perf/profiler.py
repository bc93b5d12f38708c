"""Host-side self-profiler: where does the *simulator's* wall time go?

The simulated fabric became observable in PR 1/PR 4; this module makes
the simulator itself observable.  A :class:`HostProfiler` attaches to a
:class:`~repro.manycore.Fabric` and attributes host wall time to named
components of the event loop:

``tile_step``
    stepping runnable tiles (instruction issue, the main cost),
``llc`` / ``dram``
    memory-system event callbacks (bank serves, line fills, op drains),
``frames``
    wide-access/DAE frame chunk deliveries into scratchpads,
``inet``
    core-to-core remote-store deliveries,
``barrier``
    barrier memory-fence release checks,
``serve``
    serving-scheduler callbacks (arrivals, timeouts),
``sched``
    the clock advance itself (next-wake scan, event-heap peek),
``telemetry`` / ``observe``
    telemetry and observability-plane snapshot overhead (each probe-plane
    consumer names the component its tick time is credited to),
``finish``
    end-of-run stats and probe-plane finalization.

Design constraints, in order:

1. **One loop.**  ``Fabric._run_loop`` is the only event loop; it picks
   up ``fabric.profiler`` once on entry and calls :meth:`HostProfiler.lap`
   at its segment boundaries behind a local ``is not None`` test.  With
   no profiler attached that test is the whole price: a handful per loop
   iteration plus one per event.  Six alternating parent/change
   bench-ladder pairs put it at -0.4% / -0.3% / +3.3% instrs per host
   second (MIMD / vector / serve), inside the parent's own run-to-run
   spread — unresolved, not shown to be zero (docs/perf.md).
2. **Attribution, not sampling.**  Every lap credits the time since the
   previous one, so consecutive segments *share* ``perf_counter()``
   boundaries and the components tile the measured window; the timer's
   own cost lands in the segment being closed.  The residual (the tail
   after the last lap) is computed, reported, and asserted small
   (< 10%) by test; on timeout/deadlock the aborted iteration lands in
   ``finish`` with the consumers' finalization.
3. **Identical simulation.**  Laps read the clock and a dict; they touch
   no simulated state, so cycles, stats and outputs are bit-identical
   attached or detached (guarded by test).

``deep=True`` additionally wraps the run in :mod:`cProfile` for a
per-function "top N" table (at real profiler cost — use it to dig, not
to gate).  :meth:`HostProfiler.write_collapsed` emits the component
tree as collapsed stacks (``repro;run;llc 12345`` microsecond lines)
loadable by any flamegraph tool (flamegraph.pl, speedscope, inferno).
"""

from __future__ import annotations

import io
from time import perf_counter
from typing import Dict, Optional

#: components attributed inside the run loop, in render order
LOOP_COMPONENTS = ('tile_step', 'llc', 'dram', 'frames', 'inet', 'barrier',
                   'serve', 'sched', 'telemetry', 'observe', 'events',
                   'finish')


class ProfileScope:
    """Context manager crediting its elapsed wall time to one component."""

    __slots__ = ('profiler', 'name', '_t0')

    def __init__(self, profiler: 'HostProfiler', name: str):
        self.profiler = profiler
        self.name = name

    def __enter__(self):
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.profiler.add(self.name, perf_counter() - self._t0)
        return False


class HostProfiler:
    """Attributes the simulator's host wall time to named components.

    Usage::

        prof = HostProfiler()
        prof.attach(fabric)          # fabric.run() now credits its laps here
        fabric.load_program(prog)
        fabric.run()
        print(prof.render())         # per-component table + residual
        prof.write_collapsed('run.folded')   # flamegraph input
    """

    def __init__(self, deep: bool = False):
        self.seconds: Dict[str, float] = {}
        self.total = 0.0  # wall seconds measured around run()+finish
        self.deep = deep
        self._cprofile = None
        self._t_start = self._t_lap = 0.0  # open window / last lap boundary
        self._fn_cache: Dict[object, str] = {}  # code object -> component

    # ------------------------------------------------------------- lifecycle
    def attach(self, fabric) -> 'HostProfiler':
        fabric.profiler = self
        return self

    def detach(self, fabric) -> None:
        if fabric.profiler is self:
            fabric.profiler = None

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def scope(self, name: str) -> ProfileScope:
        """Scoped timer for phases outside the run loop (setup, verify)."""
        return ProfileScope(self, name)

    # ----------------------------------------------------------- derived data
    def attributed(self) -> float:
        """Seconds credited to run-loop components (excludes harness
        scopes like ``setup``/``verify``, which lie outside ``total``)."""
        return sum(self.seconds.get(c, 0.0) for c in LOOP_COMPONENTS)

    def residual(self) -> float:
        """Measured-but-unattributed wall time (timer + loop overhead)."""
        return max(0.0, self.total - self.attributed())

    def coverage(self) -> float:
        """Fraction of measured run time attributed to named components."""
        if self.total <= 0.0:
            return 1.0
        return min(1.0, self.attributed() / self.total)

    # ------------------------------------------------- timing points (fabric)
    def begin_run(self) -> None:
        """``Fabric.run`` entry: open the measured window."""
        if self.deep and self._cprofile is None:
            import cProfile
            self._cprofile = cProfile.Profile()
        self._t_start = self._t_lap = perf_counter()
        if self._cprofile is not None:
            self._cprofile.enable()

    def lap(self, name: str) -> None:
        """Credit the wall time since the previous lap to ``name``."""
        t = perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + t - self._t_lap
        self._t_lap = t

    def end_run(self) -> None:
        """Close the window (also on timeout/deadlock) into ``total``."""
        if self._cprofile is not None:
            self._cprofile.disable()
        self.total += perf_counter() - self._t_start

    # ---------------------------------------------------------- classification
    def classify(self, fn) -> str:
        """Map an event callback to a component, cached per code object.

        Frame/wide chunk deliveries and remote stores both end in
        ``spad_deliver``; the defining module tells them apart (LLC bank
        responses vs the fabric's remote-store path).
        """
        f = getattr(fn, '__func__', fn)
        code = getattr(f, '__code__', None)
        if code is None:
            return 'events'
        comp = self._fn_cache.get(code)
        if comp is None:
            mod = getattr(f, '__module__', '') or ''
            names = code.co_names
            if mod.endswith('manycore.llc'):
                comp = 'frames' if 'spad_deliver' in names else 'llc'
            elif mod.endswith('manycore.dram'):
                comp = 'dram'
            elif mod.endswith('manycore.fabric'):
                if '_delivery_batches' in names:
                    comp = 'frames'  # coalesced LLC packet batches
                elif 'spad_deliver' in names:
                    comp = 'inet'
                else:
                    comp = 'barrier'
            elif '.serve' in mod:
                comp = 'serve'
            else:
                comp = 'events'
            self._fn_cache[code] = comp
        return comp

    # ----------------------------------------------------------------- export
    def to_dict(self) -> dict:
        """JSON-safe profile section (seconds, coverage, optional top-N)."""
        doc = {
            'total_seconds': self.total,
            'components': {k: v for k, v in sorted(
                self.seconds.items(), key=lambda kv: -kv[1])},
            'residual_seconds': self.residual(),
            'coverage': self.coverage(),
        }
        if self._cprofile is not None:
            doc['top_functions'] = self.top_functions()
        return doc

    def render(self, width: int = 40) -> str:
        """Human-readable per-component table with an explicit residual."""
        lines = [f'host-time attribution ({self.total:.3f}s measured, '
                 f'{self.coverage():.1%} attributed):']
        total = self.total or 1.0
        items = sorted(((k, v) for k, v in self.seconds.items()
                        if k in LOOP_COMPONENTS), key=lambda kv: -kv[1])
        for name, secs in items:
            share = secs / total
            bar = '#' * max(1, int(share * width)) if secs else ''
            lines.append(f'  {name:<10s} {secs:>8.3f}s {share:>6.1%}  {bar}')
        lines.append(f'  {"(residual)":<10s} {self.residual():>8.3f}s '
                     f'{self.residual() / total:>6.1%}')
        extra = [(k, v) for k, v in sorted(self.seconds.items())
                 if k not in LOOP_COMPONENTS]
        if extra:
            lines.append('outside the run loop:')
            for name, secs in extra:
                lines.append(f'  {name:<10s} {secs:>8.3f}s')
        return '\n'.join(lines)

    def collapsed_stacks(self) -> str:
        """Flamegraph-ready collapsed stacks, one ``frames value`` line
        per component (values in integer microseconds)."""
        lines = []
        for name, secs in sorted(self.seconds.items()):
            us = int(round(secs * 1e6))
            if not us:
                continue
            stack = f'repro;run;{name}' if name in LOOP_COMPONENTS \
                else f'repro;{name}'
            lines.append(f'{stack} {us}')
        us = int(round(self.residual() * 1e6))
        if us:
            lines.append(f'repro;run;(residual) {us}')
        return '\n'.join(lines) + '\n'

    def write_collapsed(self, path: str) -> None:
        with open(path, 'w') as f:
            f.write(self.collapsed_stacks())

    def top_functions(self, n: int = 15):
        """Top-N hot functions from deep (cProfile) mode, by cumulative
        time; empty when deep mode is off or the run has not happened."""
        if self._cprofile is None:
            return []
        import pstats
        st = pstats.Stats(self._cprofile, stream=io.StringIO())
        st.sort_stats('cumulative')
        rows = []
        for (filename, lineno, name), (cc, nc, tt, ct, _callers) in sorted(
                st.stats.items(), key=lambda kv: -kv[1][3])[:n]:
            rows.append({'function': f'{filename}:{lineno}({name})',
                         'calls': nc, 'tottime': round(tt, 6),
                         'cumtime': round(ct, 6)})
        return rows

    def render_top(self, n: int = 15) -> str:
        rows = self.top_functions(n)
        if not rows:
            return 'deep profile: not enabled'
        lines = [f'top {len(rows)} hot functions (cProfile, by cumulative '
                 f'time):',
                 f'  {"calls":>10s} {"tottime":>9s} {"cumtime":>9s}  '
                 f'function']
        for r in rows:
            fn = r['function']
            if len(fn) > 64:
                fn = '...' + fn[-61:]
            lines.append(f'  {r["calls"]:>10d} {r["tottime"]:>9.4f} '
                         f'{r["cumtime"]:>9.4f}  {fn}')
        return '\n'.join(lines)
