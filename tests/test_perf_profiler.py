"""The host self-profiler: bit-identical simulation, >=90% attribution.

Acceptance (ISSUE 5): the profiler attributes at least 90% of measured
host time to named components with the residual reported explicitly,
and profiling never changes simulation results — ``Fabric._run_loop``
is the one event loop and only credits laps to an attached profiler, so
these tests guard that its timing points touch no simulated state.
"""

import numpy as np

from repro.harness import run_benchmark
from repro.isa import Assembler
from repro.kernels import registry
from repro.manycore import Fabric
from repro.perf import LOOP_COMPONENTS, HostProfiler


def _run(profiler=None, benchmark='gemm', config='V4'):
    bench = registry.make(benchmark)
    params = bench.params_for('test')
    return run_benchmark(bench, config, params, profiler=profiler)


def _fingerprint(r):
    return (r.cycles, r.stats.total_instrs, r.stats.noc_word_hops,
            tuple(sorted((cid, cs.instrs, cs.stall_total(), cs.cycles)
                         for cid, cs in r.stats.cores.items())))


def test_profiled_run_bit_identical():
    base = _run()
    prof = HostProfiler()
    profiled = _run(profiler=prof)
    assert _fingerprint(base) == _fingerprint(profiled)
    assert prof.total > 0.0


def test_profiled_mimd_bit_identical():
    base = _run(config='NV_PF')
    profiled = _run(profiler=HostProfiler(), config='NV_PF')
    assert _fingerprint(base) == _fingerprint(profiled)


def test_profiled_serve_bit_identical():
    from repro.serve import KernelRequest, ServeScheduler

    def requests():
        out = []
        for i, (kernel, arrival) in enumerate(
                [('mvt', 0), ('gesummv', 40), ('atax', 90)]):
            params = registry.make(kernel).params_for('test')
            out.append(KernelRequest(req_id=i, kernel=kernel,
                                     params=params, lanes=4, groups=1,
                                     arrival=arrival))
        return out

    def serve(profiler=None):
        fabric = Fabric()
        if profiler is not None:
            profiler.attach(fabric)
        result = ServeScheduler(fabric).run(requests())
        return [(r.req_id, r.state, r.launched_at, r.finished_at,
                 r.latency) for r in result.requests] + [result.makespan]

    prof = HostProfiler()
    assert serve() == serve(profiler=prof)
    assert prof.seconds.get('serve', 0.0) >= 0.0
    assert prof.coverage() >= 0.9


def test_attribution_coverage_and_residual():
    prof = HostProfiler()
    _run(profiler=prof)
    # >= 90% of measured wall time lands in named components; the
    # residual is explicit and consistent with the component sum
    assert prof.coverage() >= 0.9, prof.render()
    assert prof.residual() >= 0.0
    assert abs(prof.total - prof.attributed() - prof.residual()) < 1e-9
    assert prof.seconds['tile_step'] > 0.0
    # harness phases recorded outside the loop, not counted in coverage
    for scope in ('setup', 'codegen', 'verify', 'energy'):
        assert scope in prof.seconds
        assert scope not in LOOP_COMPONENTS


def test_render_and_to_dict():
    prof = HostProfiler()
    _run(profiler=prof)
    text = prof.render()
    assert 'tile_step' in text and '(residual)' in text
    doc = prof.to_dict()
    assert doc['total_seconds'] > 0.0
    assert 0.9 <= doc['coverage'] <= 1.0
    assert doc['residual_seconds'] >= 0.0
    assert 'top_functions' not in doc  # deep mode off


def test_collapsed_stacks_format(tmp_path):
    prof = HostProfiler()
    _run(profiler=prof)
    path = tmp_path / 'run.folded'
    prof.write_collapsed(str(path))
    lines = path.read_text().strip().split('\n')
    assert lines
    for line in lines:
        stack, value = line.rsplit(' ', 1)
        assert stack.startswith('repro;')
        assert int(value) >= 0
    assert any(';tile_step ' in ln for ln in lines)


def test_deep_mode_top_functions():
    prof = HostProfiler(deep=True)
    _run(profiler=prof)
    rows = prof.top_functions(5)
    assert rows and len(rows) <= 5
    for r in rows:
        assert r['calls'] >= 1 and r['cumtime'] >= 0.0
    assert 'hot functions' in prof.render_top()
    assert prof.to_dict()['top_functions']


def test_scope_accumulates():
    prof = HostProfiler()
    with prof.scope('custom'):
        sum(range(1000))
    with prof.scope('custom'):
        sum(range(1000))
    assert prof.seconds['custom'] > 0.0


def test_event_classification():
    prof = HostProfiler()
    _run(profiler=prof)  # V4 exercises LLC + wide/frame deliveries
    assert prof.seconds.get('llc', 0.0) > 0.0
    assert prof.seconds.get('frames', 0.0) > 0.0
    # every attributed component is a documented name
    for name in prof.seconds:
        assert name in LOOP_COMPONENTS + ('setup', 'codegen', 'verify',
                                          'energy', 'custom')


def test_detach_stops_crediting():
    fabric = Fabric()
    prof = HostProfiler().attach(fabric)
    assert fabric.profiler is prof
    prof.detach(fabric)
    assert fabric.profiler is None
    a = Assembler()
    a.halt()
    fabric.load_program(a.finish(), active_cores=[0])
    assert fabric.run().total_instrs == 1
    assert prof.total == 0.0 and not prof.seconds


def test_verification_passes_under_profiler():
    # run_benchmark verifies against numpy; a wrong profiled loop would
    # produce wrong kernel output, not just wrong timing
    r = _run(profiler=HostProfiler(), benchmark='mvt', config='V4_PCV')
    assert r.cycles > 0
    assert np.isfinite(r.cycles)
