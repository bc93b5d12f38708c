"""Golden observations: every consumer attached at once, compared with ==.

``tests/test_sim_golden.py`` pins what the machine *does*; this file pins
what the machine *reports*.  For five manycore runs, one GPU run and one
seeded serve trace at ``test`` scale, with a ``Telemetry`` (per-core
samples on), an ``ObservePlane`` (500-cycle snapshots into a JSONL sink),
a ``Tracer`` and — for the serve trace — the scheduler's request traces
all attached to the same fabric, ``tests/data/probe_golden.json`` holds

* in full: ``RunStats`` cycles, ``Telemetry.to_dict()`` minus its
  samples, ``registry.snapshot()``, every ``RequestTrace.to_dict()`` and
  request breakdown, the snapshot count;
* as a sha256 of the canonical JSON: the interval samples, the full span
  list, the chrome-trace document, ``heatmaps_dict()`` minus provenance,
  each JSONL line (provenance stripped — it carries the code hash),
  ``Tracer.render()`` and every ``inet_push`` record in order.

A change to how facts travel from the machine to their consumers is only
admissible when every entry stays identical.  The file is only ever
regenerated on purpose, by a PR that *means* to change an observation:

    PYTHONPATH=src python tests/test_probe_golden.py --regenerate

``--dump DIR`` writes the undigested documents, one file per case, for
diffing two checkouts.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from repro.gpu import run_gpu_benchmark
from repro.harness.configs import CONFIGS
from repro.kernels import registry
from repro.kernels.base import VectorParams
from repro.manycore import Fabric, Tracer
from repro.manycore.probes import Consumer
from repro.observe import ObservePlane
from repro.serve import ServeScheduler, generate_trace
from repro.spans import to_chrome_trace, track_index
from repro.telemetry import HISTOGRAM_NAMES, Telemetry

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), 'data',
                           'probe_golden.json')

KERNEL_CASES = [('gemm', 'V4'), ('mvt', 'V16'), ('fdtd-2d', 'V4_PCV'),
                ('gemm', 'NV_PF'), ('bfs', 'V4')]
SERVE_SEED, SERVE_REQUESTS = 8, 6
CASE_IDS = ([f'{k}/{c}' for k, c in KERNEL_CASES]
            + ['gemm/GPU', f'serve/seed{SERVE_SEED}x{SERVE_REQUESTS}'])

#: sections stored as a digest of their canonical JSON (too large to
#: commit verbatim); everything else is stored in full
DIGESTED = ('samples', 'spans', 'chrome_trace', 'heatmaps', 'jsonl',
            'tracer_render', 'inet_push')


class _Pushes(Consumer):
    """Every ``inet_push`` record, in the order the machine made them."""

    facts = ('inet_push',)

    def __init__(self):
        self.records = []

    def fold(self, batches) -> None:
        self.records.extend(batches.get('inet_push', ()))


def _sha(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _span_list(tel) -> list:
    return [[s['name'], s['kind'], track_index(s['track']), s['start'],
             s['end'], s.get('attrs')] for s in tel.spans]


def _strip_provenance(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop('provenance', None)
    if 'heatmaps' in doc:
        doc['heatmaps'] = _strip_provenance(doc['heatmaps'])
    return doc


def _observers(tmpdir):
    tel = Telemetry(per_core_samples=True)
    plane = ObservePlane(interval=500,
                         metrics_out=os.path.join(tmpdir, 'm.jsonl'))
    return tel, plane, Tracer()


def _attach(fabric, tel, plane, tracer) -> _Pushes:
    for consumer in (tel, plane, tracer):
        consumer.attach(fabric)
    pushes = _Pushes()
    fabric.probes.attach(pushes)
    return pushes


def _collect(fabric, stats, tel, plane, tracer, pushes, spans=()) -> dict:
    with open(plane.metrics_out) as f:
        lines = [_strip_provenance(json.loads(ln)) for ln in f]
    tdoc = tel.to_dict()
    return {'cycles': stats.cycles,
            'telemetry': {k: v for k, v in tdoc.items() if k != 'samples'},
            'samples': tdoc['samples'],
            'spans': _span_list(tel),
            'chrome_trace': to_chrome_trace(tracer=tracer, telemetry=tel,
                                            fabric=fabric, spans=spans),
            'registry': plane.registry.snapshot(),
            'heatmaps': _strip_provenance(plane.heatmaps_dict()),
            'snapshots': plane.snapshots,
            'jsonl': lines,
            'tracer_render': tracer.render(),
            'inet_push': pushes.records}


def observe_kernel(kernel: str, config: str) -> dict:
    cfg = CONFIGS[config]
    bench = registry.make(kernel)
    params = bench.params_for('test')
    if cfg.kind == 'gpu':
        tel = Telemetry(per_core_samples=True)
        r = run_gpu_benchmark(bench, params, telemetry=tel)
        return {'cycles': r.cycles, 'telemetry': tel.to_dict(),
                'spans': _span_list(tel)}
    with tempfile.TemporaryDirectory() as tmpdir:
        tel, plane, tracer = _observers(tmpdir)
        fabric = Fabric(cfg.machine())
        pushes = _attach(fabric, tel, plane, tracer)
        ws = bench.setup(fabric, params)
        if cfg.kind == 'mimd':
            prog = bench.build_mimd(fabric, ws, params,
                                    prefetch=cfg.prefetch, pcv=cfg.pcv)
        else:
            prog = bench.build_vector(
                fabric, ws, params,
                VectorParams(lanes=cfg.lanes, pcv=cfg.pcv))
        fabric.load_program(prog)
        stats = fabric.run(max_cycles=5_000_000)
        bench.verify(fabric, ws, params)
        return _collect(fabric, stats, tel, plane, tracer, pushes)


def observe_serve() -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        tel, plane, tracer = _observers(tmpdir)
        fabric = Fabric()
        pushes = _attach(fabric, tel, plane, tracer)
        result = ServeScheduler(fabric).run(
            generate_trace(seed=SERVE_SEED, n_requests=SERVE_REQUESTS))
        doc = _collect(fabric, result.fabric_stats, tel, plane, tracer,
                       pushes, result.spans)
        doc['requests'] = [
            {'req_id': r.req_id, 'state': r.state, 'latency': r.latency,
             'rtrace': r._rtrace.to_dict() if r._rtrace else None,
             'breakdown': r.breakdown}
            for r in result.requests]
        return doc


def observe(case: str) -> dict:
    head, tail = case.split('/')
    return observe_serve() if head == 'serve' else observe_kernel(head, tail)


def digest(doc: dict) -> dict:
    out = dict(doc)
    for key in DIGESTED:
        if key == 'jsonl' and key in out:
            out[key] = [_sha(line) for line in out[key]]
        elif key in out:
            out[key] = _sha(out[key])
    return out


def _serve_alone(observer):
    fabric = Fabric()
    observer.attach(fabric)
    ServeScheduler(fabric).run(
        generate_trace(seed=SERVE_SEED, n_requests=SERVE_REQUESTS))
    return observer


def test_telemetry_is_the_plane_plus_the_replay():
    """Alone on the seeded serve trace, a Telemetry folds, reads and
    snapshots what a plain plane does; it only adds the run report's
    histogram families (and samples and spans) on top."""
    tel = _serve_alone(Telemetry(interval=500))
    plane = _serve_alone(ObservePlane(interval=500))
    snap, tel_snap = plane.registry.snapshot(), tel.registry.snapshot()
    assert {name: tel_snap[name] for name in snap} == snap
    assert set(tel_snap) - set(snap) == set(HISTOGRAM_NAMES) - set(snap)
    assert (_strip_provenance(tel.heatmaps_dict())
            == _strip_provenance(plane.heatmaps_dict()))
    assert tel.snapshots == plane.snapshots == len(tel.samples)


@pytest.fixture(scope='module')
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASE_IDS)


@pytest.mark.parametrize('case', CASE_IDS)
def test_observations_match_golden(golden, case):
    # a JSON round trip normalises tuples and int keys the way the
    # golden file's own serialisation did
    got = json.loads(json.dumps(digest(observe(case)), sort_keys=True))
    assert got == golden[case]


if __name__ == '__main__':
    if sys.argv[1:] == ['--regenerate']:
        doc = {case: digest(observe(case)) for case in CASE_IDS}
        with open(GOLDEN_PATH, 'w') as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write('\n')
        print(f'wrote {len(doc)} entries to {GOLDEN_PATH}')
    elif len(sys.argv) == 3 and sys.argv[1] == '--dump':
        os.makedirs(sys.argv[2], exist_ok=True)
        for case in CASE_IDS:
            path = os.path.join(sys.argv[2],
                                case.replace('/', '_') + '.json')
            with open(path, 'w') as f:
                json.dump(observe(case), f, indent=1, sort_keys=True)
        print(f'dumped {len(CASE_IDS)} cases to {sys.argv[2]}')
    else:
        sys.exit(__doc__)
