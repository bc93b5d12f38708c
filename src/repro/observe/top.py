"""``repro top`` — a live terminal dashboard over a serving fabric.

The dashboard rides the plane's snapshot callback: every time the
:class:`~repro.observe.ObservePlane` takes a periodic snapshot (driven
by the fabric clock inside a running serve scheduler) the dashboard
repaints one frame — fleet summary, serving gauges, the in-flight
request table, and the three congestion heatmaps.  On a TTY frames
repaint in place with ANSI cursor control; on a plain stream (CI logs,
tests) frames are appended, which doubles as a cheap flight recorder.

**Fleet mode** (``repro top --fleet DIR``) works the other way around:
instead of driving a fabric it *reads* the per-shard JSONL snapshot
streams a fleet run writes (``repro fleet --flight --shard-metrics-dir
DIR`` → ``DIR/shard<N>.jsonl``, one append-mode stream per shard across
all of that shard's batches) and renders an aggregated dashboard with
one column per shard — latest cycle, active tiles, NoC words, LLC
accesses, completed requests and latency percentiles — plus a fleet
totals row.  The parsing/summarizing/rendering helpers are pure
functions over line lists so tests can drive them without a terminal.

This module imports from :mod:`repro.serve`, so it is *not* re-exported
from ``repro.observe`` (the serve package imports the observe core; the
dashboard sits above both).
"""

from __future__ import annotations

import glob
import json
import os
import re
import sys
from typing import Dict, List, Optional

from ..manycore import Fabric
from ..serve.request import KernelRequest
from ..serve.scheduler import ServeResult, ServeScheduler
from .plane import ObservePlane

_CLEAR = '\x1b[2J\x1b[H'


class TopDashboard:
    """Renders plane snapshots as top(1)-style frames."""

    def __init__(self, plane: ObservePlane, scheduler=None,
                 stream=None, max_rows: int = 12,
                 use_ansi: Optional[bool] = None):
        self.plane = plane
        self.scheduler = scheduler
        self.stream = stream if stream is not None else sys.stdout
        self.max_rows = max_rows
        if use_ansi is None:
            use_ansi = bool(getattr(self.stream, 'isatty', lambda: False)())
        self.use_ansi = use_ansi
        self.frames = 0

    def install(self) -> 'TopDashboard':
        """Become the plane's snapshot callback."""
        self.plane.on_snapshot = self._on_snapshot
        return self

    # ------------------------------------------------------------------ frames
    def _on_snapshot(self, plane: ObservePlane, now: int) -> None:
        frame = self.render_frame(now)
        if self.use_ansi:
            self.stream.write(_CLEAR + frame + '\n')
        else:
            self.stream.write(frame + '\n\n')
        self.stream.flush()
        self.frames += 1

    def render_frame(self, now: int) -> str:
        plane = self.plane
        snap = plane.registry.snapshot()
        lines = [f'repro top — cycle {now}  (snapshot {plane.snapshots})']
        sched = self.scheduler
        if sched is not None:
            done = sum(1 for r in sched.finished if r.state == 'done')
            bad = len(sched.finished) - done
            lines.append(
                f'requests: {len(sched.running)} running, '
                f'{len(sched.queue)} queued, {done} done, {bad} failed'
                f'/other; peak {sched.peak_concurrent_jobs} concurrent')
        lat = snap.get('serve_latency_cycles')
        if isinstance(lat, dict) and lat.get('count'):
            lines.append(
                f'latency: p50 {lat["p50"]:.0f}  p99 {lat["p99"]:.0f}  '
                f'mean {lat["mean"]:.0f}  over {lat["count"]} completed')
        lines.append(
            f'fabric: {snap.get("tiles_active", 0)} tiles active, '
            f'{snap.get("inet_queue_depth_total", 0)} inet msgs, '
            f'{snap.get("noc_words_total", 0)} NoC words moved')

        rows = sorted(plane.inflight.values(),
                      key=lambda r: (r['state'], r['req_id']))
        if rows:
            lines.append(f'{"id":>4} {"kernel":10} {"state":8} '
                         f'{"tiles":>5} {"prio":>4} {"since":>9}')
            for row in rows[:self.max_rows]:
                lines.append(
                    f'{row["req_id"]:>4} {row["kernel"]:10} '
                    f'{row["state"]:8} {row["tiles"]:>5} '
                    f'{row["priority"]:>4} {row["since"]:>9}')
            if len(rows) > self.max_rows:
                lines.append(f'  ... {len(rows) - self.max_rows} more')
        lines.append('')
        lines.append(plane.render_heatmaps())
        return '\n'.join(lines)


def run_top(requests: List[KernelRequest],
            fabric: Optional[Fabric] = None,
            refresh: int = 5000,
            stream=None,
            metrics_out: Optional[str] = None,
            max_cycles: int = 200_000_000) -> ServeResult:
    """Serve ``requests`` with a live dashboard attached.

    Returns the :class:`~repro.serve.scheduler.ServeResult`; the
    dashboard object is reachable as ``result.dashboard`` for callers
    that want the frame count (tests, the CLI footer).
    """
    if fabric is None:
        fabric = Fabric()
    plane = ObservePlane(interval=refresh,
                         metrics_out=metrics_out)
    plane.attach(fabric)
    scheduler = ServeScheduler(fabric)
    dash = TopDashboard(plane, scheduler=scheduler, stream=stream)
    dash.install()
    result = scheduler.run(requests, max_cycles)
    result.dashboard = dash
    result.plane = plane
    return result


# ------------------------------------------------------------------ fleet mode
_SHARD_FILE = re.compile(r'shard(\d+)\.jsonl$')


def parse_shard_stream(lines: List[str]) -> dict:
    """Summarize one shard's JSONL snapshot stream.

    The stream is append-mode across the shard's batches: each batch
    contributes periodic ``{'cycle', 'metrics'}`` rows and one trailing
    ``final`` row.  Counters reset per batch (each batch is a fresh
    fabric), so cumulative totals are the sum of the ``final`` rows
    plus the latest in-progress row when the stream ends mid-batch.
    """
    snapshots = 0
    batches = 0
    latest: Optional[dict] = None
    totals = {'noc_words_total': 0, 'llc_bank_accesses_total': 0,
              'serve_requests_done': 0}
    latency: Optional[dict] = None

    def accumulate(row):
        m = row.get('metrics', {})
        totals['noc_words_total'] += m.get('noc_words_total', 0) or 0
        acc = m.get('llc_bank_accesses_total', 0)
        if isinstance(acc, dict):  # labeled per bank
            acc = sum(v for k, v in acc.items() if k)
        totals['llc_bank_accesses_total'] += acc or 0
        states = m.get('serve_requests_total')
        if isinstance(states, dict):
            totals['serve_requests_done'] += states.get(
                'state="done"', 0) or 0

    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail line of a live stream
        if 'metrics' not in row:
            continue
        snapshots += 1
        latest = row
        if row.get('final'):
            batches += 1
            accumulate(row)
            lat = row['metrics'].get('serve_latency_cycles')
            if isinstance(lat, dict) and lat.get('count'):
                latency = lat
    m = (latest or {}).get('metrics', {})
    if latest is not None and not latest.get('final'):
        accumulate(latest)  # mid-batch tail: count what's visible
        lat = m.get('serve_latency_cycles')
        if isinstance(lat, dict) and lat.get('count'):
            latency = lat
    return {'snapshots': snapshots, 'batches': batches,
            'cycle': (latest or {}).get('cycle', 0),
            'tiles_active': m.get('tiles_active', 0),
            'latency': latency, **totals}


def read_fleet_streams(metrics_dir: str) -> Dict[int, dict]:
    """Parse every ``shard<N>.jsonl`` under ``metrics_dir``."""
    shards: Dict[int, dict] = {}
    for path in sorted(glob.glob(os.path.join(metrics_dir,
                                              'shard*.jsonl'))):
        m = _SHARD_FILE.search(os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            shards[int(m.group(1))] = parse_shard_stream(f.readlines())
    return shards


def render_fleet_frame(shards: Dict[int, dict]) -> str:
    """One aggregated frame: a column block per shard + totals row."""
    lines = [f'repro top --fleet — {len(shards)} shard stream(s)']
    header = (f'{"shard":>5} {"batches":>7} {"snaps":>5} {"cycle":>10} '
              f'{"tiles":>5} {"noc words":>10} {"llc acc":>8} '
              f'{"done":>5} {"p50":>7} {"p99":>7}')
    lines.append(header)
    tot = {'batches': 0, 'snapshots': 0, 'noc_words_total': 0,
           'llc_bank_accesses_total': 0, 'serve_requests_done': 0}
    for shard_id in sorted(shards):
        s = shards[shard_id]
        lat = s.get('latency') or {}
        lines.append(
            f'{shard_id:>5} {s["batches"]:>7} {s["snapshots"]:>5} '
            f'{s["cycle"]:>10} {s["tiles_active"]:>5} '
            f'{s["noc_words_total"]:>10} '
            f'{s["llc_bank_accesses_total"]:>8} '
            f'{s["serve_requests_done"]:>5} '
            f'{lat.get("p50", 0):>7.0f} {lat.get("p99", 0):>7.0f}')
        for k in tot:
            tot[k] += s.get(k, 0)
    lines.append(
        f'{"all":>5} {tot["batches"]:>7} {tot["snapshots"]:>5} '
        f'{"-":>10} {"-":>5} {tot["noc_words_total"]:>10} '
        f'{tot["llc_bank_accesses_total"]:>8} '
        f'{tot["serve_requests_done"]:>5} {"-":>7} {"-":>7}')
    return '\n'.join(lines)


def run_fleet_top(metrics_dir: str, stream=None) -> None:
    """Render one fleet dashboard frame from the per-shard streams,
    painted over the screen on a TTY."""
    out = stream if stream is not None else sys.stdout
    frame = render_fleet_frame(read_fleet_streams(metrics_dir))
    if getattr(out, 'isatty', lambda: False)():
        out.write(_CLEAR + frame + '\n')
    else:
        out.write(frame + '\n\n')
    out.flush()
