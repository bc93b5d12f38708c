"""The five ladder workloads: set-up, one timed pass, and its checks.

Every workload is ``(setup, run_pass)``.  ``setup(seed, sizes)`` imports
what the pass needs, builds the seeded inputs and makes one untimed
test-scale warm-up run; ``run_pass(inputs, rec)`` runs the fixed body
once and returns a :class:`PassResult`.  ``rec`` is a span recorder:
with tracing off it records nothing and no profiler is attached; in the
traced pass the public :class:`repro.perf.HostProfiler` is attached to
every in-process fabric and calls into public functions are wrapped in
spans.  No check can be switched off.

All load comes from this one process plus at most two worker processes
(the repo's own ``SweepEngine`` farm).  Arrivals are open-loop in
*simulated* time only (the trace never waits on service); on the host
every workload is a batch job.  Modelled caches start empty in every
unit, and the program's own numpy-reference cache is cleared before
every pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from probe import probe_burst, probe_ms
from registry import KERNELS

#: the only place the ladder writes: the build directory the driver
#: names, inside the checkout and ignored by git
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORK_ROOT = os.path.join(ROOT, '.bench_build')

FULL = {
    'comparable': True,
    'kernel_scale': 'bench',
    'vector_units': [(k, c) for k in KERNELS for c in ('V4_PCV', 'V16_LL')],
    'mimd_units': [(k, c) for k in KERNELS + ('bfs',)
                   for c in ('NV', 'NV_PF', 'PCV_PF')],
    'serve_requests': 150,
    'fleet_requests': 200,
    'farm_stride': 2,       # every 2nd job of the 120-job plan
    'warm_rounds': 20,
    'dse_kernels': ('gemm', 'mvt', '2dconv'),
    'dse_space': 'default',
}
#: one unit per workload; output is stamped ``comparable: false``
SMOKE = {
    'comparable': False,
    'kernel_scale': 'test',
    'vector_units': [('gemm', 'V4_PCV')],
    'mimd_units': [('gemm', 'NV_PF')],
    'serve_requests': 6,
    'fleet_requests': 8,
    'farm_stride': 30,
    'warm_rounds': 2,
    'dse_kernels': ('gemm',),
    'dse_space': 'small',
}

SERVE_INTERARRIVAL = 400   # backlog: tile utilisation ~0.86
FLEET_INTERARRIVAL = 800
FLEET_SHARDS = 2
WORKERS = 2                # = nproc on the reference host
FARM_FIGURES = ('fig10a', 'fig17c')
#: warm-up traces are the same for every --seed, so set-up work is too
WARMUP_SEED = 0


@dataclass
class PassResult:
    """What one pass of a workload body produced."""

    raw_wall_s: float = 0.0
    probes_ms: List[float] = field(default_factory=list)
    #: scale raw_wall_s by the probe?  Only bodies that run in this one
    #: process: the probe is a single-threaded loop and stands for the
    #: speed of a single-threaded body.  Two workers share the host's two
    #: hardware threads, which a probe run alone does not see: on
    #: fleet_openloop and farm_session scaling by it read 2.0-21.7 % raw
    #: spreads as 8.3-42.4 %, so those report raw seconds.
    normalise: bool = True
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: exact simulated counters (``sim.*`` and the other exact metrics)
    sim: Dict[str, float] = field(default_factory=dict)
    #: unit id -> fingerprint of its simulated results; must repeat
    #: exactly between passes, rounds and the traced pass
    units: Dict[str, str] = field(default_factory=dict)
    #: raw wall seconds of named phases of the body (farm_session)
    phases: Dict[str, float] = field(default_factory=dict)
    #: host-side per-layer figures (profiler components, counts)
    layer: Dict[str, float] = field(default_factory=dict)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def sim_counters(stats, cycles: int) -> Dict[str, float]:
    """The exact ``sim.*`` counters of one (merged) RunStats."""
    br = stats.stall_breakdown()
    instrs = stats.total_instrs
    mem = stats.mem
    return {
        'sim.cycles': cycles,
        'sim.instrs': instrs,
        'sim.ipc': instrs / cycles if cycles else 0.0,
        'sim.llc_accesses': mem.llc_accesses,
        'sim.llc_miss_rate': mem.miss_rate,
        'sim.dram_lines': mem.dram_lines_read + mem.dram_lines_written,
        'sim.icache_accesses': stats.total_icache_accesses,
        'sim.stall_frame_cycles': br['stall_frame'],
        'sim.stall_inet_cycles': (br['stall_inet_input']
                                  + br['stall_backpressure']),
        'sim.stall_other_cycles': (br['stall_scoreboard']
                                   + br['stall_loadq'] + br['stall_branch']
                                   + br['stall_other']),
        'sim.inet_forwards': stats.total('inet_forwards'),
        'sim.frames_consumed': stats.total('frames_consumed'),
    }


def _stats_fingerprint(stats, cycles: int) -> str:
    c = sim_counters(stats, cycles)
    return _digest({k: c[k] for k in sorted(c)})


def _profile_into(layer: Dict[str, float], prof) -> None:
    """Fold one HostProfiler's components into the per-layer sums."""
    s = prof.seconds
    for comp, name in (('tile_step', 'manycore.tile_step_s'),
                       ('llc', 'manycore.llc_s'),
                       ('dram', 'manycore.dram_s'),
                       ('frames', 'manycore.frames_s'),
                       ('inet', 'manycore.inet_s'),
                       ('sched', 'manycore.sched_s'),
                       ('barrier', 'manycore.barrier_s'),
                       ('serve', 'serve.sched_s'),
                       ('setup', 'kernels.setup_s'),
                       ('codegen', 'kernels.codegen_s'),
                       ('verify', 'kernels.verify_s'),
                       ('energy', 'energy.estimate_s')):
        layer[name] = layer.get(name, 0.0) + s.get(comp, 0.0)
    layer['manycore.run_s'] = layer.get('manycore.run_s', 0.0) + prof.total
    layer['manycore.residual_s'] = (layer.get('manycore.residual_s', 0.0)
                                    + prof.residual())


# ------------------------------------------------------- vector / mimd kernels
def _kernel_setup(which: str) -> Callable:
    def setup(seed: int, sizes: dict) -> dict:
        from repro.harness import run_benchmark
        from repro.kernels import registry
        units = list(sizes[f'{which}_units'])
        random.Random(seed).shuffle(units)
        kernel, config = sizes[f'{which}_units'][0]
        bench = registry.make(kernel)
        run_benchmark(bench, config, bench.params_for('test'))
        return {'units': units, 'scale': sizes['kernel_scale']}
    return setup


def _kernel_pass(inp: dict, rec) -> PassResult:
    from repro.harness import run_benchmark
    from repro.kernels import registry
    from repro.kernels.base import clear_expected_cache
    from repro.manycore import RunStats
    from repro.perf import HostProfiler
    res = PassResult(attempted=len(inp['units']))
    clear_expected_cache()
    res.probes_ms = probe_burst()
    all_stats = []
    for kernel, config in inp['units']:
        uid = f'{kernel}/{config}'
        prof = HostProfiler() if rec.enabled else None
        t0 = perf_counter()
        try:
            with rec.span('harness.unit', unit=uid):
                with rec.span('kernels.registry'):
                    bench = registry.make(kernel)
                    params = bench.params_for(inp['scale'])
                with rec.span('harness.run_benchmark') as sp:
                    r = run_benchmark(bench, config, params, profiler=prof)
                    if prof is not None:
                        sp['profile'] = prof.to_dict()
        except Exception:  # a failed unit must not stop the ladder
            res.failed += 1
            res.errors.append(f'{uid}: {traceback.format_exc(limit=3)}')
            res.raw_wall_s += perf_counter() - t0
            continue
        res.raw_wall_s += perf_counter() - t0
        res.probes_ms.append(probe_ms())
        all_stats.append(r.stats)
        res.units[uid] = _stats_fingerprint(r.stats, r.cycles)
        if prof is not None:
            _profile_into(res.layer, prof)
    res.probes_ms += probe_burst()
    merged = RunStats.merge(all_stats)
    res.sim = sim_counters(merged, merged.cycles)
    return res


# ------------------------------------------------------------ serve_saturated
def _serve_setup(seed: int, sizes: dict) -> dict:
    from repro.manycore import Fabric
    from repro.serve import ServeScheduler, generate_trace
    ServeScheduler(Fabric()).run(
        generate_trace(WARMUP_SEED, 3, scale='test'))
    return {'seed': seed, 'n': sizes['serve_requests']}


def mixed_trace(seed: int, n: int, interarrival: int) -> list:
    from repro.serve import open_loop_trace
    return list(open_loop_trace(seed, n, 'mixed', scale='test',
                                mean_interarrival=interarrival))


def _serve_pass(inp: dict, rec) -> PassResult:
    from repro.kernels.base import clear_expected_cache
    from repro.manycore import Fabric
    from repro.perf import HostProfiler
    from repro.serve import (DONE, ServeScheduler, build_serve_report,
                             validate_serve_report)
    res = PassResult(attempted=inp['n'])
    clear_expected_cache()
    res.probes_ms = probe_burst()
    t0 = perf_counter()
    with rec.span('serve.tracegen'):
        trace = mixed_trace(inp['seed'], inp['n'], SERVE_INTERARRIVAL)
    fabric = Fabric()
    prof = HostProfiler().attach(fabric) if rec.enabled else None
    with rec.span('serve.run') as sp:
        result = ServeScheduler(fabric).run(trace)
        if prof is not None:
            sp['profile'] = prof.to_dict()
    with rec.span('serve.report'):
        report = build_serve_report(result, seed=inp['seed'])
        validate_serve_report(report)
    res.raw_wall_s = perf_counter() - t0
    res.probes_ms += probe_burst()
    for r in result.requests:
        if r.state != DONE:
            res.failed += 1
            res.errors.append(f'request {r.req_id} ended {r.state}: {r.error}')
    summary = report['summary']
    alloc = report['allocator']
    fails = alloc['frag_failures'] + alloc['capacity_failures']
    res.sim = sim_counters(result.fabric_stats, result.makespan)
    res.sim.update({
        'sim.latency_p99_cycles': summary['latency_p99'],
        'serve.alloc_fail_ratio': fails / max(1, fails + alloc['allocs']),
        'serve.peak_queue_depth': summary['peak_queue_depth'],
        'serve.tile_utilization': summary['tile_utilization'],
    })
    res.units['trace'] = _digest(
        [[r.req_id, r.state, r.latency, int(r.instrs)]
         for r in result.requests])
    if prof is not None:
        _profile_into(res.layer, prof)
    return res


# ------------------------------------------------------------- fleet_openloop
def _recording_pool(rec):
    """A ShardPool that keeps what the router drops: per-batch worker
    time (the public ``JobOutcome.elapsed``) and one span per epoch."""
    from repro.fleet import ShardPool

    class RecordingPool(ShardPool):
        def __init__(self):
            super().__init__(workers=WORKERS)
            self.elapsed: List[float] = []

        def run_batches(self, batches):
            with rec.span('fleet.pool.run_batches', batches=len(batches)):
                outcomes = super().run_batches(batches)
            self.elapsed.extend(o.elapsed for o in outcomes)
            return outcomes
    return RecordingPool()


def run_fleet(trace, rec, flight=None):
    """One fleet run over ``trace``; returns (result, report, pool)."""
    from repro.fleet import (FleetConfig, FleetRouter, build_fleet_report,
                             check_conservation)
    pool = _recording_pool(rec)
    router = FleetRouter(FleetConfig(shards=FLEET_SHARDS, workers=WORKERS),
                         pool=pool, flight=flight)
    with rec.span('fleet.router.run'):
        result = router.run(trace)
    with rec.span('fleet.report'):
        report = build_fleet_report(result, pattern='mixed')
        check_conservation(report)
    return result, report, pool


def _fleet_setup(seed: int, sizes: dict) -> dict:
    # the warm-up runs one shard batch in this process: forked workers
    # inherit everything it imported, and set-up time stays free of
    # process start-up jitter
    from repro.fleet import ShardBatch, run_shard_batch
    run_shard_batch(ShardBatch(shard_id=0, epoch=0, requests=tuple(
        dict(r.to_dict(), arrival=0)
        for r in mixed_trace(WARMUP_SEED, 3, FLEET_INTERARRIVAL))))
    return {'seed': seed, 'n': sizes['fleet_requests']}


def _fleet_pass(inp: dict, rec) -> PassResult:
    from repro.jobs.serialize import stats_from_dict
    from repro.manycore import RunStats
    res = PassResult(attempted=inp['n'], normalise=False)
    res.probes_ms = probe_burst()
    t0 = perf_counter()
    with rec.span('serve.tracegen'):
        trace = mixed_trace(inp['seed'], inp['n'], FLEET_INTERARRIVAL)
    try:
        result, report, pool = run_fleet(trace, rec)
    except Exception:  # conservation / schema violations are failures
        res.failed = res.attempted
        res.errors.append(f'fleet run: {traceback.format_exc(limit=3)}')
        res.raw_wall_s = perf_counter() - t0
        res.probes_ms += probe_burst()
        return res
    res.raw_wall_s = perf_counter() - t0
    res.probes_ms += probe_burst()
    for e in result.entries:
        if e.state != 'done' or e.digest is None:
            res.failed += 1
            res.errors.append(f'request {e.req.req_id} ended {e.state} '
                       f'(digest {e.digest})')
    merged = RunStats.merge(stats_from_dict(d) for d in result.stats_docs)
    summary = report['summary']
    res.sim = sim_counters(merged, result.final_cycle)
    res.sim.update({
        'sim.latency_p99_cycles': summary['latency_p99'],
        'serve.peak_queue_depth': summary['peak_queue_depth'],
        'serve.tile_utilization': summary['tile_utilization'],
        'fleet.batches': result.batches,
        'fleet.epochs': result.epochs,
        'fleet.affinity_hit_ratio': (result.affinity_hits
                                     / max(1, len(result.entries))),
        'fleet.rerouted': result.rerouted,
        'fleet.rejected': result.rejected_admission,
    })
    res.units['trace'] = _digest(
        [[e.req.req_id, e.digest, (e.record or {}).get('latency')]
         for e in result.entries])
    res.layer['fleet.batch_elapsed_s'] = sum(pool.elapsed)
    return res


# --------------------------------------------------------------- farm_session
def _timed_store(rec, root):
    """A ResultStore whose get/put are tallied (traced pass only)."""
    from repro.jobs import ResultStore

    class TimedStore(ResultStore):
        def get(self, key):
            t0 = perf_counter()
            try:
                return super().get(key)
            finally:
                rec.tally('jobs.store.get', perf_counter() - t0)

        def put(self, key, result):
            t0 = perf_counter()
            try:
                return super().put(key, result)
            finally:
                rec.tally('jobs.store.put', perf_counter() - t0)
    return TimedStore(root)


def _farm_setup(seed: int, sizes: dict) -> dict:
    from repro.dse import AXES_BY_NAME
    from repro.jobs import plan_figures, run_job
    from repro.model import AnalyticModel
    run_job(plan_figures(FARM_FIGURES, 'test')[0])  # in-process, as above
    AnalyticModel.default().predict('gemm', 'V4', scale='test')
    return {'seed': seed, 'stride': sizes['farm_stride'],
            'warm_rounds': sizes['warm_rounds'],
            'dse_kernels': sizes['dse_kernels'],
            'axes': AXES_BY_NAME[sizes['dse_space']]}


def _farm_pass(inp: dict, rec) -> PassResult:
    from repro.dse import driver as dse_driver
    from repro.dse import run_dse
    from repro.jobs import (CACHED, DONE, ResultStore, SweepEngine,
                            plan_figures, result_to_dict)
    from repro.manycore import RunStats
    from repro.model import AnalyticModel
    from spans import patched, spanned
    res = PassResult(normalise=False)
    os.makedirs(WORK_ROOT, exist_ok=True)
    root = tempfile.mkdtemp(prefix='ladder-store-', dir=WORK_ROOT)

    def store():
        return _timed_store(rec, root) if rec.enabled else ResultStore(root)

    class SpannedEngine(SweepEngine):
        def execute(self, specs, manifest=None):
            with rec.span('jobs.execute', jobs=len(specs)):
                return super().execute(specs, manifest)

    try:
        res.probes_ms = probe_burst()
        t0 = perf_counter()
        with rec.span('jobs.plan'):
            specs = plan_figures(FARM_FIGURES, 'test')[::inp['stride']]
            random.Random(inp['seed']).shuffle(specs)
        t1 = perf_counter()

        with rec.span('farm.cold'):
            cold = SpannedEngine(jobs=WORKERS, store=store()).execute(specs)
        t2 = perf_counter()
        res.probes_ms.append(probe_ms())
        bad = [o for o in cold if o.status != DONE]
        for o in bad:
            res.errors.append(f'cold {o.spec.label()} {o.status}: '
                       f'{o.error.strip()[-200:]}')
        res.attempted += len(cold)
        res.failed += len(bad)
        want = {o.key: result_to_dict(o.result) for o in cold if o.ok}

        t3 = perf_counter()
        warm_rounds = []
        with rec.span('farm.warm'):
            for _ in range(inp['warm_rounds']):
                warm_rounds.append(SpannedEngine(
                    jobs=WORKERS, store=store()).execute(specs))
        t4 = perf_counter()
        res.probes_ms.append(probe_ms())
        hits = lookups = 0
        for warm in warm_rounds:  # field by field against the cold result
            for o in warm:
                lookups += 1
                if (o.status == CACHED and o.key in want
                        and result_to_dict(o.result) == want[o.key]):
                    hits += 1
                else:
                    res.errors.append(f'warm {o.spec.label()} {o.status}: not '
                               f'the cold result served from the store')
        res.attempted += lookups
        res.failed += lookups - hits

        model = AnalyticModel.default()
        docs = []
        t5 = perf_counter()
        wrappers = {}
        if rec.enabled:
            wrappers = {
                'triage_space': spanned(rec, dse_driver.triage_space,
                                        'dse.triage'),
                'pareto_frontier': spanned(rec, dse_driver.pareto_frontier,
                                           'dse.pareto'),
                'SweepEngine': SpannedEngine}
        with rec.span('farm.dse'), patched(dse_driver, **wrappers):
            for kernel in inp['dse_kernels']:
                with rec.span('dse.run_dse', kernel=kernel):
                    docs.append(run_dse(model, kernel, axes=inp['axes'],
                                        scale='test', jobs=WORKERS,
                                        store=store()))
        t6 = perf_counter()
        res.probes_ms += probe_burst()
        res.raw_wall_s = (t2 - t0) + (t4 - t3) + (t6 - t5)
        res.phases = {'plan': t1 - t0, 'cold': t2 - t1, 'warm': t4 - t3,
                      'dse': t6 - t5}
        store_bytes = ResultStore(root).total_bytes()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    frontier = sims = sim_failed = points = 0
    apes: List[float] = []
    for doc in docs:
        frontier += doc['triage']['n_frontier']
        sims += doc['triage']['n_simulated']
        sim_failed += doc['triage']['n_sim_failed']
        points += doc['space']['n_space']
        apes += [e['sim_ape_pct'] for e in doc['frontier']
                 if 'sim_ape_pct' in e]
    res.attempted += sims
    res.failed += sim_failed
    if sim_failed:
        res.errors.append(f'{sim_failed} DSE frontier simulation(s) failed')
    merged = RunStats.merge(o.result.stats for o in cold if o.ok)
    res.sim = sim_counters(merged, merged.cycles)
    apes.sort()
    mid = len(apes) // 2
    res.sim.update({
        'jobs.warm_hit_ratio': hits / max(1, lookups),
        'jobs.retried': sum(max(0, o.attempts - 1) for o in cold),
        'model.predict_calls': points,
        'model.median_ape_pct': (0.0 if not apes else apes[mid]
                                 if len(apes) % 2
                                 else (apes[mid - 1] + apes[mid]) / 2),
        'dse.frontier_size': frontier,
    })
    for o in cold:
        if o.ok:
            res.units[o.spec.label()] = _stats_fingerprint(
                o.result.stats, o.result.cycles)
    res.units['dse'] = _digest([d['frontier'] for d in docs])
    res.layer.update({
        'jobs.store_bytes': store_bytes,
        'farm.cold_jobs': len(cold),
        'farm.warm_hits': hits,
        'farm.dse_points': points,
    })
    return res


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    'vector_kernels': (_kernel_setup('vector'), _kernel_pass),
    'mimd_kernels': (_kernel_setup('mimd'), _kernel_pass),
    'serve_saturated': (_serve_setup, _serve_pass),
    'fleet_openloop': (_fleet_setup, _fleet_pass),
    'farm_session': (_farm_setup, _farm_pass),
}
