#!/usr/bin/env python3
"""The bench ladder: five workloads, end-to-end and per-layer metrics.

Two ways to run it, both from the root of a checkout:

* one workload, as the driver does::

      python3 benchmarks/ladder/run.py --workload vector_kernels \\
          --seed 11 --seconds 10 --trace 0

  sets up three times, runs the workload's fixed body until ``--seconds``
  are used (at least once), checks every output, prints each metric by
  name with its unit and, as the last line, one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
  reports the end-to-end metrics with tracing off; ``--trace 1`` runs the
  body once untraced and once traced and reports the per-layer metrics.

* the whole ladder::

      python3 benchmarks/ladder/run.py --seed 11 --out BENCH_ladder.json

  ``--rounds`` rounds, each running all five workloads once (one child
  process each, in rotated order, so a slow phase of the shared host
  lands on every workload alike), then one traced pass; writes the JSON
  and ``TRACE_ladder.json``.

Accuracy: the repo holds no hardware or gem5 reference numbers, so the
simulator is UNVALIDATED and no error figure is given beside any speed
figure; ``model.median_ape_pct`` is the analytic model against our own
simulator only.  Modelled caches start empty in every unit.

Any failed check makes the command exit non-zero after the metrics are
printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

_T0 = perf_counter()  # set-up is timed from here: it includes `import repro`

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, 'src')

ACCURACY = ('accuracy: the simulator is UNVALIDATED (the repo holds no '
            'hardware or gem5 reference numbers), so no error figure is '
            'given; model.median_ape_pct is model-vs-our-simulator only. '
            'Modelled caches start empty in every unit.')

#: a workload is reported ``unresolved``, not stable, beyond these
UNRESOLVED_PROBE_RATIO = 1.25
UNRESOLVED_SPREAD = 0.10
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 600


def _peak_rss_mb() -> float:
    """Peak resident set of this process and its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# ----------------------------------------------------------- one workload run
#: the named parts of a traced pass that tile its wall time, per workload
ATTRIBUTED = {
    'vector_kernels': ('kernels.setup_s', 'kernels.codegen_s',
                       'kernels.verify_s', 'energy.estimate_s',
                       'manycore.run_s'),
    'serve_saturated': ('serve.tracegen_s', 'manycore.run_s',
                        'serve.report_s'),
    'fleet_openloop': ('serve.tracegen_s', 'fleet.router_self_s',
                       'fleet.pool_wait_s', 'fleet.report_s'),
    'farm_session': ('jobs.plan_s', 'jobs.cold_execute_s',
                     'jobs.warm_execute_s', 'dse.triage_s', 'dse.pareto_s',
                     'dse.frontier_sim_s'),
}
ATTRIBUTED['mimd_kernels'] = ATTRIBUTED['vector_kernels']


def _setup_in_child(args) -> float:
    """Set up once more in a fresh interpreter; returns its seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), '--workload',
           args.workload, '--seed', str(args.seed), '--setup-only']
    if args.smoke:
        cmd.append('--smoke')
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _host_s(p) -> float:
    """Reference-host seconds of a pass (raw for multi-process bodies)."""
    from probe import normalise
    return normalise(p.raw_wall_s, p.probes_ms) if p.normalise \
        else p.raw_wall_s


def differing_units(passes: Iterable[Tuple[dict, dict]]) -> List[str]:
    """Units whose simulated results are not the same in every pass.

    ``passes`` yields ``(units, sim)``: the per-unit fingerprints and the
    exact counters of one pass.
    """
    passes = list(passes)
    units0, sim0 = passes[0]
    bad = {uid for units, _ in passes[1:] for uid in set(units0) | set(units)
           if units0.get(uid) != units.get(uid)}
    if any(sim != sim0 for _, sim in passes[1:]):
        bad.add('sim-counters')
    return sorted(bad)


def _end_to_end(passes, setup_samples) -> Dict[str, float]:
    thr = [p.sim.get('sim.instrs', 0) / _host_s(p) for p in passes]
    return {'sim_instrs_per_host_s': statistics.median(thr),
            'setup_s': statistics.median(setup_samples),
            'peak_rss_mb': _peak_rss_mb()}


def _per_layer(workload: str, plain, traced, rec, micro) -> Dict[str, float]:
    """Every per-layer metric by name (0 where the layer did no work).

    Rates and ``harness.*`` come from the untraced pass; layer seconds
    come from the traced pass.  All seconds are reference-host seconds.
    """
    from registry import PER_LAYER
    from spans import self_seconds, total_seconds
    m = {layer.name: 0.0 for layer in PER_LAYER}
    host_plain = _host_s(plain)
    host_traced = _host_s(traced)
    scale_plain = host_plain / plain.raw_wall_s
    scale = host_traced / traced.raw_wall_s
    spans = rec.spans
    m.update(plain.sim)
    m.update({k: v * scale for k, v in traced.layer.items()
              if k.endswith('_s')})
    cycles = plain.sim.get('sim.cycles', 0)
    instrs = plain.sim.get('sim.instrs', 0)
    attempted = max(1, plain.attempted)
    m.update({
        'harness.raw_wall_s': plain.raw_wall_s,
        'harness.host_s': host_plain,
        'harness.probe_ms': statistics.median(plain.probes_ms),
        'harness.sim_cycles_per_host_s': cycles / host_plain,
        'harness.ops_per_host_s': plain.attempted / host_plain,
        'harness.failed_ops_share': plain.failed / attempted,
        'perf.profiler_overhead_pct':
            (host_traced - host_plain) / host_plain * 100.0,
        'serve.tracegen_s': total_seconds(spans, 'serve.tracegen') * scale,
        'serve.run_s': total_seconds(spans, 'serve.run') * scale,
        'serve.report_s': total_seconds(spans, 'serve.report') * scale,
        'fleet.router_self_s':
            self_seconds(spans, 'fleet.router.run') * scale,
        'fleet.pool_wait_s':
            total_seconds(spans, 'fleet.pool.run_batches') * scale,
        'fleet.report_s': total_seconds(spans, 'fleet.report') * scale,
        'jobs.plan_s': total_seconds(spans, 'jobs.plan') * scale,
        'jobs.cold_execute_s':
            total_seconds(spans, 'jobs.execute', 'farm.cold') * scale,
        'jobs.warm_execute_s':
            total_seconds(spans, 'jobs.execute', 'farm.warm') * scale,
        'dse.triage_s': total_seconds(spans, 'dse.triage') * scale,
        'dse.pareto_s': total_seconds(spans, 'dse.pareto') * scale,
        'dse.frontier_sim_s':
            total_seconds(spans, 'jobs.execute', 'dse.run_dse') * scale,
    })
    if m['manycore.run_s']:
        m['manycore.tile_step_share'] = (m['manycore.tile_step_s']
                                         / host_traced)
        m['manycore.host_us_per_sim_cycle'] = (m['manycore.run_s']
                                               / cycles * 1e6)
        m['manycore.host_us_per_sim_instr'] = (m['manycore.run_s']
                                               / instrs * 1e6)
    if m['fleet.pool_wait_s']:
        m['fleet.worker_parallelism'] = (m['fleet.batch_elapsed_s']
                                         / m['fleet.pool_wait_s'])
    for op in ('get', 'put'):
        count, seconds = rec.tallies.get(f'jobs.store.{op}', (0, 0.0))
        if count:
            m[f'jobs.store_{op}_us'] = seconds * scale / count * 1e6
    if 'cold' in plain.phases:
        m['jobs.cold_jobs_per_host_s'] = (
            traced.layer['farm.cold_jobs']
            / (plain.phases['cold'] * scale_plain))
        m['jobs.cached_jobs_per_host_s'] = (
            traced.layer['farm.warm_hits']
            / (plain.phases['warm'] * scale_plain))
        m['dse.points_per_host_s'] = (
            traced.layer['farm.dse_points']
            / (m['dse.triage_s'] + m['dse.pareto_s']))
        m['jobs.store_bytes'] = traced.layer['jobs.store_bytes']
    attributed = sum(m[name] for name in ATTRIBUTED[workload])
    m['harness.self_s'] = max(0.0, host_traced - attributed)
    m['harness.attributed_share'] = (
        (attributed - m['manycore.residual_s']) / host_traced)
    m.update(micro)
    return {layer.name: m[layer.name] for layer in PER_LAYER}


def _pass_doc(p) -> dict:
    return {'raw_wall_s': p.raw_wall_s, 'host_s': _host_s(p),
            'probes_ms': p.probes_ms, 'phases': p.phases,
            'attempted': p.attempted, 'failed': p.failed,
            'sim': p.sim, 'units': p.units}


def _units(registry_list, metrics: Dict[str, float]) -> dict:
    return {m.name: {'value': metrics[m.name], 'unit': m.unit}
            for m in registry_list}


def run_workload(args) -> int:
    from micro import MICRO_BY_WORKLOAD
    from probe import normalise, probe_burst
    from registry import END_TO_END, PER_LAYER
    from spans import NullRecorder, SpanRecorder
    from workloads import FULL, SMOKE, WORKLOADS
    sizes = SMOKE if args.smoke else FULL
    setup, run_pass = WORKLOADS[args.workload]
    inputs = setup(args.seed, sizes)
    setup_samples = [normalise(perf_counter() - _T0, probe_burst())]
    if args.setup_only:
        print(repr(setup_samples[0]))
        return 0
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(_setup_in_child(args))

    errors: List[str] = []
    rec = NullRecorder()
    began = perf_counter()

    def one_pass(recorder):
        # garbage of the previous pass must not be collected (or copied
        # into forked workers) inside the next one's timed body: without
        # this the second farm_session pass reads ~10 % slower
        gc.collect()
        return run_pass(inputs, recorder)

    passes = [one_pass(rec)]
    if args.trace:
        rec = SpanRecorder()
        passes.append(one_pass(rec))
    else:
        # repeat the body while another pass still fits into --seconds
        while (perf_counter() - began) * (1 + 1 / len(passes)) \
                <= args.seconds:
            passes.append(one_pass(rec))
    for p in passes:
        errors += p.errors
    nondeterministic = differing_units((p.units, p.sim) for p in passes)
    errors += [f'nondeterministic: {uid} differs between passes'
               for uid in nondeterministic]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if args.trace:
        try:
            micro = MICRO_BY_WORKLOAD[args.workload](args.seed, sizes)
        except Exception as exc:  # a broken micro-case fails the run
            errors.append(f'micro-case: {exc!r}')
            micro = {}
        metrics = _units(PER_LAYER, _per_layer(
            args.workload, passes[0], passes[1], rec, micro))
    else:
        metrics = _units(END_TO_END, _end_to_end(passes, setup_samples))

    correct = not errors and failed == 0
    print(f'# {args.workload} seed={args.seed} trace={args.trace} '
          f'passes={len(passes)} attempted={attempted} failed={failed}')
    print(f'# {ACCURACY}')
    for name, mv in metrics.items():
        print(f'{name:36s} {mv["value"]:>16.6g} {mv["unit"]}')
    for e in errors[:20]:
        print(f'CHECK FAILED: {e}', file=sys.stderr)
    result = {'correct': correct, 'attempted': attempted, 'failed': failed,
              'metrics': metrics}
    if args.detail:
        detail = dict(result, workload=args.workload, seed=args.seed,
                      comparable=sizes['comparable'], errors=errors,
                      setup_samples_s=setup_samples,
                      nondeterministic_units=len(nondeterministic),
                      passes=[_pass_doc(p) for p in passes],
                      spans=rec.spans,
                      tallies=rec.tallies)
        with open(args.detail, 'w') as f:
            json.dump(detail, f)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if correct else 1


# ------------------------------------------------------------ the whole ladder
def _child(workload: str, args, trace: int, detail: str) -> Optional[dict]:
    cmd = [sys.executable, os.path.abspath(__file__), '--workload', workload,
           '--seed', str(args.seed), '--seconds', str(args.seconds),
           '--trace', str(trace), '--detail', detail]
    if args.smoke:
        cmd.append('--smoke')
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    if not os.path.exists(detail):
        print(f'!! {workload} (trace {trace}) produced no result '
              f'(exit {out.returncode})', file=sys.stderr)
        return None
    with open(detail) as f:
        return json.load(f)


def _summarise(name: str, runs: List[dict], traced: Optional[dict]) -> dict:
    """Fold one workload's rounds and traced pass into its report section."""
    from probe import quartiles, spread
    from registry import END_TO_END, WORKLOADS
    inputs = next(w.inputs for w in WORKLOADS if w.name == name)
    passes = [p for r in runs for p in r['passes']]
    host = [p['host_s'] for p in passes]
    raw = [p['raw_wall_s'] for p in passes]
    probe_meds = [statistics.median(p['probes_ms']) for p in passes]
    instrs = passes[0]['sim'].get('sim.instrs', 0)
    e2e = {}
    for m in END_TO_END:
        samples = [r['metrics'][m.name]['value'] for r in runs]
        e2e[m.name] = dict(quartiles(samples), unit=m.unit, samples=samples,
                           spread=spread(samples))
    reasons = []
    if max(probe_meds) / min(probe_meds) > UNRESOLVED_PROBE_RATIO:
        reasons.append(f'host probe medians differ '
                       f'{max(probe_meds) / min(probe_meds):.2f}x')
    if spread(host) > UNRESOLVED_SPREAD:
        reasons.append(f'normalised spread {spread(host):.1%}')
    everyone = runs + ([traced] if traced else [])
    all_passes = [p for r in everyone for p in r['passes']]
    bad_units = differing_units((p['units'], p['sim']) for p in all_passes)
    errors = [e for r in everyone for e in r['errors']]
    if bad_units:
        errors.append(f'simulated results differ between rounds: '
                      f'{bad_units}')
    attempted = sum(r['attempted'] for r in everyone)
    failed = sum(r['failed'] for r in everyone)
    return {
        'inputs': inputs,
        'end_to_end': e2e,
        'timing': {
            'host_s': dict(quartiles(host), samples=host,
                           spread=spread(host)),
            'raw_wall_s': dict(quartiles(raw), samples=raw,
                               spread=spread(raw)),
            'raw_sim_instrs_per_s': dict(
                quartiles([instrs / r for r in raw]),
                spread=spread([instrs / r for r in raw])),
            'probe_median_ms': probe_meds,
            'probes_ms': [p['probes_ms'] for p in passes],
        },
        'unresolved': bool(reasons),
        'why_unresolved': '; '.join(reasons),
        'attempted': attempted,
        'failed': failed,
        'failed_ops_share': failed / max(1, attempted),
        'nondeterministic_units': len(bad_units),
        'correct': not errors and failed == 0,
        'errors': errors[:50],
        'sim': passes[0]['sim'],
        'per_layer': traced['metrics'] if traced else {},
    }


def _provenance() -> dict:
    from repro.jobs import CODE_VERSION, code_version_hash, machine_hash
    from repro.manycore import DEFAULT_CONFIG
    return {'code_version': CODE_VERSION,
            'code_version_hash': code_version_hash(),
            'machine_hash': machine_hash(DEFAULT_CONFIG)}


def run_ladder(args) -> int:
    from probe import PROBE_REF_MS
    from registry import ALL, HELD_OUT_SEED, REFERENCE_SEED
    from workloads import WORK_ROOT
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix='ladder-run-', dir=WORK_ROOT)
    runs: Dict[str, List[dict]] = {w: [] for w in ALL}
    traced: Dict[str, Optional[dict]] = {}
    missing = 0
    try:
        for r in range(args.rounds):
            order = ALL[r % len(ALL):] + ALL[:r % len(ALL)]
            for w in order:
                print(f'round {r + 1}/{args.rounds}: {w}', file=sys.stderr)
                doc = _child(w, args, 0, os.path.join(work, f'{w}-r{r}.json'))
                if doc is None:
                    missing += 1
                else:
                    runs[w].append(doc)
        for w in ALL:
            print(f'traced pass: {w}', file=sys.stderr)
            traced[w] = _child(w, args, 1, os.path.join(work, f'{w}-t.json'))
            missing += traced[w] is None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = {
        'kind': 'repro-ladder-bench',
        'schema_version': 1,
        'comparable': not args.smoke,
        'seed': args.seed,
        'reference_seed': REFERENCE_SEED,
        'held_out_seed': HELD_OUT_SEED,
        'rounds': args.rounds,
        'run_seconds': args.seconds,
        'probe_ref_ms': PROBE_REF_MS,
        'accuracy': ACCURACY,
        'generated': {'timestamp': datetime.now(timezone.utc).isoformat(),
                      'python': platform.python_version()},
        'host': {'platform': platform.platform(),
                 'machine': platform.machine(),
                 'python_impl': platform.python_implementation(),
                 'cpu_count': os.cpu_count() or 0},
        'provenance': _provenance(),
        'workloads': {w: _summarise(w, runs[w], traced.get(w))
                      for w in ALL if runs[w]},
    }
    print(f'# {ACCURACY}')
    for w, sec in doc['workloads'].items():
        tag = (f'UNRESOLVED ({sec["why_unresolved"]})' if sec['unresolved']
               else 'stable')
        print(f'== {w}: {tag}; attempted {sec["attempted"]}, failed '
              f'{sec["failed"]}, nondeterministic units '
              f'{sec["nondeterministic_units"]}')
        for name, q in sec['end_to_end'].items():
            print(f'  {name:34s} {q["median"]:>14.6g} {q["unit"]:8s} '
                  f'[q1 {q["q1"]:.6g}, q3 {q["q3"]:.6g}, min {q["min"]:.6g}, '
                  f'max {q["max"]:.6g}, n {q["n"]}]')
        t = sec['timing']
        print(f'  {"host_s (normalised)":34s} {t["host_s"]["median"]:>14.6g} '
              f's        [spread {t["host_s"]["spread"]:.1%}; raw '
              f'{t["raw_wall_s"]["median"]:.6g} s, spread '
              f'{t["raw_wall_s"]["spread"]:.1%}]')
        for name, mv in sec['per_layer'].items():
            print(f'  {name:34s} {mv["value"]:>14.6g} {mv["unit"]}')
    with open(args.out, 'w') as f:
        json.dump(doc, f, indent=1)
        f.write('\n')
    with open(args.trace_out, 'w') as f:
        json.dump({'kind': 'repro-ladder-trace', 'seed': args.seed,
                   'comparable': not args.smoke,
                   'workloads': {w: {'spans': t['spans'],
                                     'tallies': t['tallies']}
                                 for w, t in traced.items() if t}},
                  f)
        f.write('\n')
    print(f'wrote {args.out} and {args.trace_out}', file=sys.stderr)
    ok = not missing and all(s['correct']
                             for s in doc['workloads'].values())
    return 0 if ok else 1


def main(argv=None) -> int:
    from registry import ALL, REFERENCE_SEED, RUN_SECONDS
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', choices=ALL,
                    help='run this one workload (driver mode)')
    ap.add_argument('--seed', type=int, default=REFERENCE_SEED)
    ap.add_argument('--seconds', type=float, default=RUN_SECONDS,
                    help='how long one run measures')
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--rounds', type=int, default=3)
    ap.add_argument('--out', default='BENCH_ladder.json')
    ap.add_argument('--trace-out', default='TRACE_ladder.json')
    ap.add_argument('--smoke', action='store_true',
                    help='one unit per workload; output is not comparable')
    ap.add_argument('--detail', help=argparse.SUPPRESS)
    ap.add_argument('--setup-only', action='store_true',
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, 'repro')):
        print(f'ladder: no simulator source at {SRC}; run from a checkout '
              f'of the repository', file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run_workload(args) if args.workload else run_ladder(args)


if __name__ == '__main__':
    sys.exit(main())
