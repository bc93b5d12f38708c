"""Checks of the ladder itself.  Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/ladder/test_ladder.py -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import probe  # noqa: E402
import registry  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r'^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$')
UNIT = re.compile(r'^[A-Za-z0-9_/%.-]{1,16}$')
RUN = os.path.join(HERE, 'run.py')


def _benchmark_json():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        return json.load(f)


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_is_the_registry_written_out():
    assert _benchmark_json() == registry.benchmark_json()


def test_benchmark_json_meets_the_driver_contract():
    doc = _benchmark_json()
    assert set(doc) == {'command', 'paths', 'run_seconds', 'workloads',
                        'end_to_end', 'per_layer'}
    assert doc['paths'] == ['benchmarks/ladder']
    assert doc['command'][-1].startswith(doc['paths'][0] + '/')
    assert 1 <= doc['run_seconds'] <= 60
    assert len(doc['workloads']) == 5
    assert 1 <= len(doc['end_to_end']) <= 16
    assert 1 <= len(doc['per_layer']) <= 128
    names = ([w['name'] for w in doc['workloads']]
             + [m['name'] for m in doc['end_to_end']]
             + [m['name'] for m in doc['per_layer']])
    assert len(names) == len(set(names)), 'a name is used twice'
    for n in names:
        assert NAME.match(n), n
    for w in doc['workloads']:
        assert set(w) == {'name', 'why'}
        assert len(w['why']) <= 200 and '\n' not in w['why'], w['name']
    for m in doc['end_to_end']:
        assert set(m) == {'name', 'unit', 'better', 'bound'}
        assert 0 < m['bound'] <= 0.25
    for m in doc['per_layer']:
        assert set(m) == {'name', 'unit', 'better'}
    for m in doc['end_to_end'] + doc['per_layer']:
        assert UNIT.match(m['unit']), m
        assert m['better'] in ('lower', 'higher')
    setup = next(m for m in doc['end_to_end'] if m['name'] == 'setup_s')
    assert (setup['unit'], setup['better']) == ('s', 'lower')
    assert setup['bound'] == max(m['bound'] for m in doc['end_to_end'])
    assert len(json.dumps(doc)) < 64 * 1024


def test_every_layer_metric_names_what_it_should_move():
    workloads = {w.name for w in registry.WORKLOADS}
    for m in registry.PER_LAYER:
        assert m.moves in registry.E2E_BY_NAME, m.name
        assert set(m.on) <= workloads, m.name
    with open(os.path.join(HERE, 'README.md')) as f:
        assert '\n'.join(registry.interaction_table()) in f.read(), \
            'README interaction table is stale: regenerate it from registry'


# ---------------------------------------------------------------------- spans
def _span(i, name, parent, start, end):
    return {'id': i, 'name': name, 'parent': parent, 'start': start,
            'end': end}


def test_self_time_is_duration_minus_child_coverage():
    tree = [
        _span(0, 'root', None, 0.0, 10.0),
        _span(1, 'a', 0, 1.0, 4.0),
        _span(2, 'b', 0, 3.0, 6.0),      # overlaps a: union is [1, 6]
        _span(3, 'leaf', 1, 1.5, 2.0),
        _span(4, 'a', 0, 8.0, 12.0),     # clipped to the parent's end
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(0.5)
    assert spans.total_seconds(tree, 'a') == pytest.approx(7.0)
    assert spans.total_seconds(tree, 'leaf', under='a') == pytest.approx(0.5)
    assert spans.total_seconds(tree, 'leaf', under='root') == 0
    assert spans.self_seconds(tree, 'a') == pytest.approx(2.5 + 4.0)


def test_recorder_nests_and_null_recorder_records_nothing():
    rec = spans.SpanRecorder()
    with rec.span('outer', unit='u'):
        with rec.span('inner'):
            pass
    rec.tally('op', 0.25)
    rec.tally('op', 0.75)
    assert [s['parent'] for s in rec.spans] == [None, 0]
    assert rec.spans[0]['unit'] == 'u'
    assert rec.spans[0]['end'] >= rec.spans[1]['end']
    assert rec.tallies['op'] == [2, 1.0]
    null = spans.NullRecorder()
    with null.span('x'):
        null.tally('op', 1.0)
    assert null.spans == [] and null.tallies == {} and not null.enabled


def test_patched_restores_the_original():
    calls = []
    rec = spans.SpanRecorder()
    original = spans.total_seconds
    wrapper = spans.spanned(rec, lambda *a: calls.append(a) or 7, 'wrapped')
    with spans.patched(spans, total_seconds=wrapper):
        assert spans.total_seconds(1, 2) == 7
    assert spans.total_seconds is original
    assert calls == [(1, 2)] and rec.spans[0]['name'] == 'wrapped'


# ---------------------------------------------------------------------- probe
def test_normalisation_scales_by_the_median_probe():
    ref = probe.PROBE_REF_MS
    assert probe.normalise(10.0, [ref] * 9) == pytest.approx(10.0)
    # a host twice as slow: the same work reads 20 s raw, 10 s normalised
    assert probe.normalise(20.0, [2 * ref] * 9 + [50 * ref]) == \
        pytest.approx(10.0)
    q = probe.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q['median'], q['min'], q['max'], q['n']) == (3.0, 1.0, 5.0, 5)
    assert probe.spread([2.0]) == 0.0
    assert probe.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert probe.probe_ms() > 0


# -------------------------------------------------------------------- compare
def test_verdicts_follow_the_section_8_rule():
    a = [100.0, 101.0, 99.0]
    assert compare.judge(a, [100.5, 99.5, 100.0], 'higher', 0.10) == 'same'
    assert compare.judge(a, [80.0, 81.0, 79.0], 'higher', 0.10) == 'worse'
    # three clean wins show no regression; a gain needs ten runs a side
    assert compare.judge(a, [120.0, 121.0, 119.0], 'higher', 0.10) == 'same'
    assert compare.judge(a * 4, [120.0, 121.0, 119.0] * 4, 'higher',
                         0.10) == 'better'
    assert compare.judge(a, [120.0, 121.0, 119.0], 'lower', 0.10) == 'worse'
    # spread wider than the bound: unresolved, not unchanged ...
    noisy = [100.0, 130.0, 70.0]
    assert compare.judge(noisy, [100.0, 128.0, 72.0], 'higher', 0.10) \
        == 'unresolved'
    assert compare.judge(a, a, 'higher', 0.10, flagged=True) == 'unresolved'
    # ... unless every run of the change beats every run of the parent
    assert compare.judge(noisy, [200.0, 260.0, 180.0], 'higher', 0.10) \
        == 'same'


# ------------------------------------------------------------------- the runs
def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_one_workload_prints_the_contract_line():
    out = _run(['--workload', 'mimd_kernels', '--seed', '5', '--seconds',
                '1', '--trace', '0', '--smoke'])
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {'correct', 'attempted', 'failed', 'metrics'}
    assert last['correct'] is True and last['failed'] == 0
    assert last['attempted'] >= 1
    assert set(last['metrics']) == set(registry.E2E_BY_NAME)
    for name, mv in last['metrics'].items():
        assert mv['unit'] == registry.E2E_BY_NAME[name].unit
        assert mv['value'] > 0, name


def test_smoke_ladder_emits_exactly_the_declared_metrics(tmp_path):
    bench = tmp_path / 'BENCH_smoke.json'
    trace = tmp_path / 'TRACE_smoke.json'
    out = _run(['--seed', '11', '--smoke', '--rounds', '1', '--seconds', '1',
                '--out', str(bench), '--trace-out', str(trace)])
    assert out.returncode == 0, out.stderr[-2000:]
    doc = json.loads(bench.read_text())
    assert doc['comparable'] is False
    assert set(doc['workloads']) == {w.name for w in registry.WORKLOADS}
    for name, sec in doc['workloads'].items():
        assert sec['correct'], (name, sec['errors'])
        assert sec['failed_ops_share'] == 0
        assert sec['nondeterministic_units'] == 0
        assert set(sec['end_to_end']) == set(registry.E2E_BY_NAME)
        assert set(sec['per_layer']) == set(registry.LAYER_BY_NAME)
        for metric, q in sec['end_to_end'].items():
            assert q['n'] == 1 and q['median'] > 0, (name, metric)
        # the traced pass saw the same simulation as the untraced round
        for metric, mv in sec['per_layer'].items():
            if registry.LAYER_BY_NAME[metric].exact and metric in sec['sim']:
                assert mv['value'] == sec['sim'][metric], (name, metric)
    farm = doc['workloads']['farm_session']['per_layer']
    assert farm['manycore.run_s']['value'] == 0
    assert farm['jobs.warm_hit_ratio']['value'] == 1
    tr = json.loads(trace.read_text())
    assert set(tr['workloads']) == set(doc['workloads'])
    assert any(s['name'] == 'dse.pareto'
               for s in tr['workloads']['farm_session']['spans'])
    # the comparison tool accepts the report and finds A == A unchanged
    cmp_out = subprocess.run(
        [sys.executable, os.path.join(HERE, 'compare.py'), str(bench),
         str(bench)], capture_output=True, text=True, timeout=60)
    assert cmp_out.returncode == 0, cmp_out.stdout + cmp_out.stderr
    assert 'worse' not in cmp_out.stdout.splitlines()[-1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, 'BENCHMARK.json'), tmp_path)
    shutil.copytree(HERE, tmp_path / 'benchmarks' / 'ladder',
                    ignore=shutil.ignore_patterns('__pycache__'))
    out = subprocess.run(
        [sys.executable, 'benchmarks/ladder/run.py', '--workload',
         'vector_kernels', '--seed', '1', '--seconds', '1', '--trace', '0'],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ''
