"""Direct micro-cases and the instrumentation price list (traced pass only).

Each function calls one layer's public functions with fixed synthetic
input and returns per-layer metrics by name.  A workload's traced run
executes only the cases of the layers it exercises
(:data:`MICRO_BY_WORKLOAD`); everywhere else those metrics read 0.

On/off pairs time the same ~0.5-2 s sub-unit with one instrument off and
on, in the order off-on-on-off so that drift of the host cancels.
In-process pairs are timed in CPU seconds, the fleet pair (two worker
processes) in wall seconds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import tempfile
from time import perf_counter, process_time
from typing import Callable, Dict

from spans import NullRecorder
from workloads import (FLEET_INTERARRIVAL, SERVE_INTERARRIVAL, WORK_ROOT,
                       WORKERS, mixed_trace, run_fleet)


def _overhead_pct(run: Callable[[bool], None], clock=process_time) -> float:
    """Cost of an instrument as a share of the uninstrumented time."""
    seconds = {False: 0.0, True: 0.0}
    for on in (False, True, True, False):
        t0 = clock()
        run(on)
        seconds[on] += clock() - t0
    return (seconds[True] - seconds[False]) / seconds[False] * 100.0


def _assemble_us_per_instr(config: str, scale: str) -> float:
    """Code generation (assemble + ``annotate_program``) of gemm."""
    from repro.harness import get
    from repro.kernels import registry
    from repro.kernels.base import VectorParams
    from repro.manycore import Fabric
    cfg = get(config)
    bench = registry.make('gemm')
    params = bench.params_for(scale)
    samples = []
    for _ in range(5):
        fabric = Fabric(cfg.machine())
        ws = bench.setup(fabric, params)
        t0 = perf_counter()
        if cfg.kind == 'vector':
            prog = bench.build_vector(
                fabric, ws, params, VectorParams(lanes=cfg.lanes,
                                                 pcv=cfg.pcv))
        else:
            prog = bench.build_mimd(fabric, ws, params,
                                    prefetch=cfg.prefetch, pcv=cfg.pcv)
        samples.append((perf_counter() - t0) / len(prog) * 1e6)
    return statistics.median(samples)


def micro_vector(seed: int, sizes: dict) -> Dict[str, float]:
    from repro.harness import run_benchmark
    from repro.kernels import registry
    from repro.telemetry import Telemetry
    bench = registry.make('gemm')
    params = bench.params_for(sizes['kernel_scale'])

    def run(on: bool) -> None:
        run_benchmark(bench, 'V4', params,
                      telemetry=Telemetry() if on else None)
    return {
        'isa.assemble_us_per_instr':
            _assemble_us_per_instr('V4', sizes['kernel_scale']),
        'telemetry.overhead_pct': _overhead_pct(run),
    }


def micro_mimd(seed: int, sizes: dict) -> Dict[str, float]:
    return {'isa.assemble_us_per_instr':
            _assemble_us_per_instr('NV_PF', sizes['kernel_scale'])}


def micro_serve(seed: int, sizes: dict) -> Dict[str, float]:
    from repro.manycore import Fabric
    from repro.observe import ObservePlane
    from repro.serve import ServeScheduler
    n = min(30, sizes['serve_requests'])

    def run(on: bool) -> None:
        fabric = Fabric()
        plane = ObservePlane().attach(fabric) if on else None
        ServeScheduler(fabric).run(mixed_trace(seed, n, SERVE_INTERARRIVAL))
        if plane is not None:
            plane.finalize(fabric.cycle)
    return {'observe.overhead_pct': _overhead_pct(run)}


def micro_fleet(seed: int, sizes: dict) -> Dict[str, float]:
    from repro.flight import FleetFlight, write_merged_trace
    from repro.serve import KernelRequest
    out: Dict[str, float] = {}
    trace = mixed_trace(seed, sizes['fleet_requests'], FLEET_INTERARRIVAL)
    t0 = perf_counter()
    for req in trace:
        KernelRequest.from_dict(json.loads(json.dumps(req.to_dict())))
    out['fleet.wire_us_per_request'] = ((perf_counter() - t0)
                                        / len(trace) * 1e6)

    n = min(60, sizes['fleet_requests'])
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix='ladder-flight-', dir=WORK_ROOT)
    flights = []
    try:
        def run(on: bool) -> None:
            flight = FleetFlight(label='ladder', out_dir=work) if on \
                else None
            run_fleet(mixed_trace(seed, n, FLEET_INTERARRIVAL), NullRecorder(),
                      flight=flight)
            if on:
                flights.append(flight)
        out['flight.overhead_pct'] = _overhead_pct(run, clock=perf_counter)
        flight = flights[-1]
        t0 = perf_counter()
        flight.write_journal()
        out['flight.journal_us_per_span'] = (
            (perf_counter() - t0) / max(1, len(flight.spans)) * 1e6)
        t0 = perf_counter()
        write_merged_trace(os.path.join(work, 'merged.json'), flight.spans)
        out['flight.merge_ms_per_1k_spans'] = (  # s/span * 1e6 = ms/1k
            (perf_counter() - t0) / max(1, len(flight.spans)) * 1e6)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


class _NoopSpec:
    """The least a ``SweepEngine`` needs of a job spec."""

    def __init__(self, i: int):
        self.i = i

    def key(self) -> str:
        return f'ladder-noop-{self.i}'


def _noop_job(spec: _NoopSpec) -> dict:
    return {'i': spec.i}


def micro_farm(seed: int, sizes: dict) -> Dict[str, float]:
    from repro.dse import DEFAULT_AXES, enumerate_space, pareto_frontier
    from repro.harness import run_benchmark
    from repro.jobs import SweepEngine, result_from_dict, result_to_dict
    from repro.kernels import registry
    from repro.model import AnalyticModel, ModelError
    out: Dict[str, float] = {}
    full = sizes['comparable']

    bench = registry.make('gemm')
    result = run_benchmark(bench, 'V4', bench.params_for('test'))
    t0 = perf_counter()
    for _ in range(50):
        result_from_dict(result_to_dict(result))
    out['jobs.serialize_us'] = (perf_counter() - t0) / 50 * 1e6

    n_jobs = 40 if full else 4
    engine = SweepEngine(jobs=WORKERS, store=None, job_fn=_noop_job,
                         encode=lambda d: d, decode=lambda d: d)
    t0 = perf_counter()
    outcomes = engine.execute([_NoopSpec(i) for i in range(n_jobs)])
    out['jobs.spawn_ms_per_job'] = (perf_counter() - t0) / n_jobs * 1e3
    if not all(o.ok for o in outcomes):
        raise RuntimeError('no-op spawn micro-case lost a job')

    model = AnalyticModel.default()
    points = list(enumerate_space(DEFAULT_AXES))[:200]
    t0 = perf_counter()
    for pt in points:
        try:
            model.predict('gemm', pt.config, scale='test',
                          machine=pt.machine())
        except ModelError:
            pass  # infeasible points are part of every triage
    out['model.predict_us'] = (perf_counter() - t0) / len(points) * 1e6

    rng = random.Random(seed)
    n_points = 10_000 if full else 1_000
    objectives = [(rng.random(), rng.random(), rng.random())
                  for _ in range(n_points)]
    t0 = perf_counter()
    pareto_frontier(objectives)
    out['dse.pareto_ms_per_1e4'] = (perf_counter() - t0) * 1e3
    return out


MICRO_BY_WORKLOAD: Dict[str, Callable[[int, dict], Dict[str, float]]] = {
    'vector_kernels': micro_vector,
    'mimd_kernels': micro_mimd,
    'serve_saturated': micro_serve,
    'fleet_openloop': micro_fleet,
    'farm_session': micro_farm,
}
