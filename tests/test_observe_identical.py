"""Observation is side-effect-free (bit-identical runs).

Acceptance: a serve run with the plane attached produces bit-identical
per-request cycle counts and kernel outputs to an unobserved run, and
attach/detach round-trips leave the fabric unobserved.  The same holds
over the whole lattice of probe-plane consumers — none, each of
Telemetry / ObservePlane / Tracer / the invariant monitors alone, and
all at once — and a bare run never calls into the probe plane at all.
"""

import sys

import numpy as np
import pytest

from repro.kernels import registry
from repro.kernels.base import VectorParams
from repro.manycore import Fabric, Tracer
from repro.manycore.probes import FACTS
from repro.observe import ObservePlane
from repro.serve import KernelRequest, ServeScheduler, request_outputs
from repro.telemetry import Telemetry
from tests.monitors import Monitors


def _requests():
    def req(i, kernel, arrival, groups=1, **kw):
        params = registry.make(kernel).params_for('test')
        return KernelRequest(req_id=i, kernel=kernel, params=params,
                             lanes=4, groups=groups, arrival=arrival, **kw)
    return [req(0, 'mvt', arrival=0, groups=2),
            req(1, 'gesummv', arrival=0),
            req(2, 'atax', arrival=50, groups=2),
            req(3, 'gesummv', arrival=120, priority=1)]


def _serve(plane=None):
    fabric = Fabric()
    if plane is not None:
        plane.attach(fabric)
    result = ServeScheduler(fabric).run(_requests())
    outputs = {r.req_id: request_outputs(fabric, r)
               for r in result.requests}
    return fabric, result, outputs


def _fingerprint(result):
    return [(r.req_id, r.state, r.launched_at, r.finished_at,
             r.latency, r.service_cycles, r.instrs,
             tuple(sorted((cid, cs.instrs, cs.stall_total())
                          for cid, cs in r.stats.cores.items())))
            for r in result.requests] + [result.makespan]


def test_serve_bit_identical_with_plane_attached():
    _, base, base_out = _serve()
    plane = ObservePlane(interval=1500)
    _, observed, obs_out = _serve(plane)
    assert _fingerprint(base) == _fingerprint(observed)
    for rid in base_out:
        assert base_out[rid].keys() == obs_out[rid].keys()
        for name in base_out[rid]:
            assert np.array_equal(base_out[rid][name], obs_out[rid][name])
    # and the plane actually observed the run
    assert plane.snapshots > 0
    snap = plane.registry.snapshot()
    assert snap['noc_words_total'] > 0
    assert snap['serve_requests_total']


def test_classic_run_bit_identical_with_plane_attached():
    def run(observe):
        fabric = Fabric()
        if observe:
            ObservePlane(interval=500).attach(fabric)
        bench = registry.make('gemm')
        params = bench.params_for('test')
        ws = bench.setup(fabric, params)
        prog = bench.build_vector(fabric, ws, params,
                                  VectorParams(lanes=4, max_groups=2))
        fabric.load_program(prog)
        stats = fabric.run()
        bench.verify(fabric, ws, params)
        return (stats.cycles, stats.total_instrs, stats.noc_word_hops,
                stats.mem.llc_accesses, stats.mem.llc_misses,
                tuple(sorted((cid, cs.instrs, cs.stall_total())
                             for cid, cs in stats.cores.items())))
    assert run(False) == run(True)


def test_attach_detach_roundtrip():
    fabric = Fabric()
    plane = ObservePlane(interval=0)
    registry_ = plane.registry
    plane.attach(fabric)
    assert fabric.probes.consumers == [plane]
    assert all((getattr(fabric.probes, fact) is not None)
               == (fact in plane.facts) for fact in FACTS)
    assert plane.registry is registry_
    plane.detach(fabric)
    assert fabric.probes.consumers == []
    assert all(getattr(fabric.probes, fact) is None for fact in FACTS)
    # detaching a foreign plane is a no-op on the installed one
    other = ObservePlane()
    other.attach(fabric)
    plane.detach(fabric)
    assert fabric.probes.consumers == [other]
    assert fabric.probes.mem_req is not None


# ---------------------------------------------------- the consumer lattice
CONSUMERS = {
    'telemetry': lambda: Telemetry(interval=300, per_core_samples=True),
    'observe': lambda: ObservePlane(interval=400),
    'tracer': Tracer,
    'monitors': Monitors,
}
LATTICE = [()] + [(name,) for name in CONSUMERS] + [tuple(CONSUMERS)]


def _core_stats(stats):
    return (stats.cycles, stats.noc_word_hops, stats.mem.llc_accesses,
            sorted((cid, vars(cs)) for cid, cs in stats.cores.items()))


def _run_v4(names):
    fabric = Fabric()
    consumers = [CONSUMERS[n]().attach(fabric) for n in names]
    bench = registry.make('gemm')
    params = bench.params_for('test')
    ws = bench.setup(fabric, params)
    fabric.load_program(bench.build_vector(
        fabric, ws, params, VectorParams(lanes=4)))
    return fabric, consumers, _core_stats(fabric.run())


def _run_serve(names):
    fabric = Fabric()
    consumers = [CONSUMERS[n]().attach(fabric) for n in names]
    result = ServeScheduler(fabric).run(_requests())
    return consumers, (_fingerprint(result),
                       _core_stats(result.fabric_stats),
                       [(r._rtrace.to_dict(), r.breakdown)
                        for r in result.requests])


@pytest.fixture(scope='module')
def bare():
    return _run_v4(())[2], _run_serve(())[1]


@pytest.mark.parametrize('names', LATTICE[1:], ids='+'.join)
def test_every_consumer_combination_is_bit_identical(bare, names):
    _, consumers, v4 = _run_v4(names)
    assert v4 == bare[0]
    serve_consumers, serve = _run_serve(names)
    assert serve == bare[1]
    for c in consumers + serve_consumers:  # and each really consumed
        if isinstance(c, Telemetry):
            assert c.hists['llc_queue_wait_cycles'].count and c.samples
        elif isinstance(c, ObservePlane):
            assert c.snapshots and c.registry.snapshot()['noc_words_total']
        elif isinstance(c, Tracer):
            assert len(c)
        else:
            assert c.records


def test_undeclared_facts_stay_none():
    fabric = Fabric()
    Tracer().attach(fabric)
    assert fabric.probes.issue is not None
    assert all(getattr(fabric.probes, fact) is None
               for fact in FACTS if fact != 'issue')


def _in_plane(frame) -> bool:
    return frame.f_code.co_filename.endswith('manycore/probes.py')


def test_bare_run_never_calls_into_the_probe_plane():
    calls = []

    def profile(frame, event, arg):
        # calls *into* the plane, named by the machine function making them
        if event == 'call' and _in_plane(frame) \
                and not _in_plane(frame.f_back):
            calls.append((frame.f_back.f_code.co_name,
                          frame.f_code.co_name))

    fabric = Fabric()
    bench = registry.make('gemm')
    params = bench.params_for('test')
    ws = bench.setup(fabric, params)
    fabric.load_program(bench.build_vector(
        fabric, ws, params, VectorParams(lanes=4)))
    sys.setprofile(profile)
    try:
        fabric.run()
    finally:
        sys.setprofile(None)
    # the run's two bookends; no probe site, no tick, no drain
    assert calls == [('_run_loop', 'next_due'), ('run', 'finalize')]
