"""What the ladder measures: workloads, metrics, and how they interact.

This file is the single list of names.  ``BENCHMARK.json`` at the repo
root is :func:`benchmark_json` written out (``test_ladder.py`` checks
they agree); the driver's format has no room for the input sizes, the
layer -> end-to-end predictions, the seeds or the probe reference, so
those live here and in the README.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: seed the committed baseline was measured with
REFERENCE_SEED = 11
#: seed no ladder code was tuned on; a later claim must also hold here
HELD_OUT_SEED = 23
#: how long one driver run measures (``--seconds``)
RUN_SECONDS = 10

COMMAND = ['python3', 'benchmarks/ladder/run.py']
PATHS = ['benchmarks/ladder']

KERNELS = ('gemm', '2mm', 'syr2k', 'mvt', 'atax', '2dconv', 'fdtd-2d',
           'corr')


class Workload(NamedTuple):
    name: str
    why: str       # one line, goes into BENCHMARK.json
    inputs: str    # stated input size (README / BENCH_ladder.json)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        'vector_kernels',
        'The paper\'s mechanism (vector groups, inet, DAE frames, PCV): '
        'tile_step on the vector path does most of the work; a '
        'lockstep-vector optimisation must win here.',
        '8 PolyBench kernels x {V4_PCV, V16_LL} = 16 run_benchmark units, '
        'bench scale, numpy verify on; the seed shuffles unit order'),
    Workload(
        'mimd_kernels',
        'Same tile/LLC/NoC/DRAM code used the other way (scalar issue, no '
        'groups, prefetch frames only): a vector-path change must show no '
        'change here, a memory-system one shows here first.',
        '8 kernels + bfs x {NV, NV_PF, PCV_PF} = 27 units, bench scale, '
        'verify on; the seed shuffles unit order'),
    Workload(
        'serve_saturated',
        'One fabric under backlog: the serve scheduler, region allocator '
        '(mostly failed allocs at this rate) and multi-job run loop do '
        'work no kernel run does.',
        'open_loop_trace(seed, 150, mixed, scale=test, '
        'mean_interarrival=400) on one Fabric; open loop in simulated '
        'time, tile utilisation ~0.86'),
    Workload(
        'fleet_openloop',
        'Router, epoch hand-off, one process per batch, dict wire format '
        'and digests; the slowest shard per epoch sets the time, so 2 '
        'shards give ~1.5x, not 2x.',
        'open_loop_trace(seed, 200, mixed, test, mean_interarrival=800) '
        'through FleetRouter(shards=2, workers=2), verify and digests on'),
    Workload(
        'farm_session',
        'The jobs layer used three ways (cold sweep, cached re-runs, DSE '
        'triage): store writes beside reads, spawn vs no spawn, and the '
        'only workload where model/DSE/pareto dominate and no fabric runs.',
        'cold: every 2nd job of plan_figures([fig10a, fig17c], test) = 60 '
        'jobs on 2 workers into a fresh ResultStore; warm: 20 fresh '
        'engine+store re-executions (1200 hits); dse: run_dse(default '
        'model, k, test, jobs=2) for gemm, mvt, 2dconv (3 x 576 points); '
        'the seed shuffles job order'),
)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd('sim_instrs_per_host_s', '1/s', 'higher', 0.25,
             'simulated instructions completed per host second of the timed '
             'body: reference-host seconds for in-process bodies, raw seconds '
             'for the two-worker ones (farm: the cold sweep\'s instructions '
             'over the whole cold + warm + dse session)'),
    EndToEnd('setup_s', 's', 'lower', 0.25,
             'reference-host seconds to import repro, build the trace/plan '
             'and make one untimed test-scale warm-up; median of three '
             'set-ups (two in fresh processes)'),
    EndToEnd('peak_rss_mb', 'MB', 'lower', 0.15,
             'peak resident set, max of the parent and its children'),
)

ALL = tuple(w.name for w in WORKLOADS)
KERNEL_WL = ('vector_kernels', 'mimd_kernels')
FABRIC_WL = ('vector_kernels', 'mimd_kernels', 'serve_saturated')
REQUEST_WL = ('serve_saturated', 'fleet_openloop')
SPAWN_WL = ('fleet_openloop', 'farm_session')
THROUGHPUT = 'sim_instrs_per_host_s'


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool            # a count that repeats exactly: compared with ==
    moves: str             # the end-to-end metric it should move
    on: Tuple[str, ...]    # ...on these workloads; no change elsewhere


def _t(name, unit, on, better='lower', moves=THROUGHPUT):
    return Layer(name, unit, better, False, moves, tuple(on))


def _x(name, unit, on=ALL, better='lower'):
    return Layer(name, unit, better, True, THROUGHPUT, tuple(on))


PER_LAYER: Tuple[Layer, ...] = (
    # ---- harness: the timed body as a whole
    _t('harness.raw_wall_s', 's', ALL),
    _t('harness.host_s', 's', ALL),
    _t('harness.probe_ms', 'ms', ()),
    _t('harness.sim_cycles_per_host_s', '1/s', ALL, 'higher'),
    _t('harness.ops_per_host_s', '1/s', ALL, 'higher'),
    _t('harness.self_s', 's', KERNEL_WL),
    _t('harness.attributed_share', 'ratio', (), 'higher'),
    _x('harness.failed_ops_share', 'ratio'),
    # ---- kernels / isa / energy: per-unit work outside the run loop
    _t('kernels.setup_s', 's', KERNEL_WL),
    _t('kernels.codegen_s', 's', KERNEL_WL),
    _t('kernels.verify_s', 's', KERNEL_WL),
    _t('isa.assemble_us_per_instr', 'us', KERNEL_WL),
    _t('energy.estimate_s', 's', KERNEL_WL),
    # ---- manycore: HostProfiler components of the fabric run loop
    _t('manycore.run_s', 's', FABRIC_WL),
    _t('manycore.tile_step_s', 's', FABRIC_WL),
    _t('manycore.tile_step_share', 'ratio', ()),
    _t('manycore.llc_s', 's', ('mimd_kernels',)),
    _t('manycore.dram_s', 's', ('mimd_kernels',)),
    _t('manycore.frames_s', 's', FABRIC_WL),
    _t('manycore.inet_s', 's', ('vector_kernels', 'serve_saturated')),
    _t('manycore.sched_s', 's', FABRIC_WL),
    _t('manycore.barrier_s', 's', KERNEL_WL),
    _t('manycore.residual_s', 's', ()),
    _t('manycore.host_us_per_sim_cycle', 'us', FABRIC_WL),
    _t('manycore.host_us_per_sim_instr', 'us', FABRIC_WL),
    # ---- sim: exact RunStats counters (the stall taxonomy is exclusive)
    _x('sim.cycles', 'cycles'),
    _x('sim.instrs', 'count'),
    _x('sim.ipc', 'instr/cycle', better='higher'),
    _x('sim.llc_accesses', 'count'),
    _x('sim.llc_miss_rate', 'ratio'),
    _x('sim.dram_lines', 'count'),
    _x('sim.icache_accesses', 'count'),
    _x('sim.stall_frame_cycles', 'cycles'),
    _x('sim.stall_inet_cycles', 'cycles'),
    _x('sim.stall_other_cycles', 'cycles'),
    _x('sim.inet_forwards', 'count'),
    _x('sim.frames_consumed', 'count'),
    _x('sim.latency_p99_cycles', 'cycles', REQUEST_WL),
    # ---- serve
    _t('serve.tracegen_s', 's', REQUEST_WL),
    _t('serve.run_s', 's', ('serve_saturated',)),
    _t('serve.sched_s', 's', ('serve_saturated',)),
    _t('serve.report_s', 's', ('serve_saturated',)),
    _x('serve.alloc_fail_ratio', 'ratio', ('serve_saturated',)),
    _x('serve.peak_queue_depth', 'count', REQUEST_WL),
    _x('serve.tile_utilization', 'ratio', REQUEST_WL, better='higher'),
    # ---- fleet
    _t('fleet.router_self_s', 's', ('fleet_openloop',)),
    _t('fleet.pool_wait_s', 's', ('fleet_openloop',)),
    _t('fleet.batch_elapsed_s', 's', ('fleet_openloop',)),
    _t('fleet.worker_parallelism', 'ratio', ('fleet_openloop',), 'higher'),
    _x('fleet.batches', 'count', ('fleet_openloop',)),
    _x('fleet.epochs', 'count', ('fleet_openloop',)),
    _t('fleet.report_s', 's', ('fleet_openloop',)),
    _t('fleet.wire_us_per_request', 'us', ('fleet_openloop',)),
    _x('fleet.affinity_hit_ratio', 'ratio', ('fleet_openloop',),
       better='higher'),
    _x('fleet.rerouted', 'count', ('fleet_openloop',)),
    _x('fleet.rejected', 'count', ('fleet_openloop',)),
    # ---- jobs
    _t('jobs.plan_s', 's', ('farm_session',)),
    _t('jobs.cold_execute_s', 's', ('farm_session',)),
    _t('jobs.warm_execute_s', 's', ('farm_session',)),
    _t('jobs.cold_jobs_per_host_s', '1/s', ('farm_session',), 'higher'),
    _t('jobs.cached_jobs_per_host_s', '1/s', ('farm_session',), 'higher'),
    _t('jobs.store_put_us', 'us', ('farm_session',)),
    _t('jobs.store_get_us', 'us', ('farm_session',)),
    _t('jobs.store_bytes', 'bytes', ()),
    _t('jobs.serialize_us', 'us', ('farm_session',)),
    _t('jobs.spawn_ms_per_job', 'ms', SPAWN_WL),
    _x('jobs.warm_hit_ratio', 'ratio', ('farm_session',), better='higher'),
    _x('jobs.retried', 'count', ('farm_session',)),
    # ---- model / dse
    _t('model.predict_us', 'us', ('farm_session',)),
    _x('model.predict_calls', 'count', ('farm_session',)),
    _x('model.median_ape_pct', '%', ('farm_session',)),
    _t('dse.triage_s', 's', ('farm_session',)),
    _t('dse.pareto_s', 's', ('farm_session',)),
    _t('dse.frontier_sim_s', 's', ('farm_session',)),
    _x('dse.frontier_size', 'count', ('farm_session',)),
    _t('dse.points_per_host_s', '1/s', ('farm_session',), 'higher'),
    _t('dse.pareto_ms_per_1e4', 'ms', ('farm_session',)),
    # ---- instrumentation price list (one on/off pair each)
    _t('telemetry.overhead_pct', '%', ()),
    _t('observe.overhead_pct', '%', ()),
    _t('flight.overhead_pct', '%', ()),
    _t('flight.journal_us_per_span', 'us', ()),
    _t('flight.merge_ms_per_1k_spans', 'ms', ()),
    _t('perf.profiler_overhead_pct', '%', ()),
)

LAYER_BY_NAME: Dict[str, Layer] = {m.name: m for m in PER_LAYER}
E2E_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}


def benchmark_json() -> dict:
    """The document the driver reads, with exactly its keys."""
    return {
        'command': list(COMMAND),
        'paths': list(PATHS),
        'run_seconds': RUN_SECONDS,
        'workloads': [{'name': w.name, 'why': w.why} for w in WORKLOADS],
        'end_to_end': [{'name': m.name, 'unit': m.unit, 'better': m.better,
                        'bound': m.bound} for m in END_TO_END],
        'per_layer': [{'name': m.name, 'unit': m.unit, 'better': m.better}
                      for m in PER_LAYER],
    }


def interaction_table() -> List[str]:
    """Markdown rows: which layer metric should move what, where."""
    rows = ['| layer metric | unit | exact | should move | on | no change on |',
            '|---|---|---|---|---|---|']
    for m in PER_LAYER:
        on = ', '.join(m.on) if m.on else '-'
        off = ', '.join(w for w in ALL if w not in m.on) if m.on else 'all'
        rows.append(f'| `{m.name}` | {m.unit} | {"yes" if m.exact else ""} '
                    f'| `{m.moves}` | {on} | {off} |')
    return rows
