"""The curated bench suite + the noise-aware regression gate.

Acceptance (ISSUE 5): ``repro bench run --fast`` produces a
schema-checked ``BENCH_*.json`` with wall time, cycles/sec, peak RSS
and provenance; ``repro bench compare --gate`` exits nonzero on an
injected synthetic regression and zero on self-compare.
"""

import copy
import json

import pytest

from repro.__main__ import main
from repro.jobs.spec import CODE_VERSION, code_version_hash
from repro.perf import (BENCH_SUITE, BenchValidationError, bench_path,
                        compare_bench, load_bench_report,
                        render_bench_report, run_suite, save_bench_report,
                        suite_cases, validate_bench_report)

# one tiny case keeps the suite tests quick; the full suite runs in CI
CASE = 'vector-gemm'


@pytest.fixture(scope='module')
def bench_doc():
    return run_suite(names=[CASE], repeats=2, label='test')


def test_suite_covers_all_modes():
    kinds = {c.kind for c in BENCH_SUITE}
    assert kinds == {'mimd', 'vector', 'serve'}
    assert [c for c in BENCH_SUITE if c.fast], 'no fast subset'
    assert len(suite_cases(fast=True)) < len(suite_cases())


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match='unknown bench case'):
        suite_cases(names=['no-such-case'])


def test_report_schema_and_contents(bench_doc):
    validate_bench_report(bench_doc)  # raises on violation
    assert bench_doc['kind'] == 'repro-bench-report'
    prov = bench_doc['provenance']
    assert prov['code_version'] == CODE_VERSION
    assert prov['code_version_hash'] == code_version_hash()
    assert len(prov['machine_hash']) == 16
    (case,) = bench_doc['cases']
    assert case['name'] == CASE and case['repeats'] == 2
    w = case['wall_seconds']
    assert 0 < w['min'] <= w['median'] <= w['max']
    assert len(w['runs']) == 2 and w['iqr'] >= 0.0
    s = case['sim']
    assert s['cycles'] > 0 and s['instrs'] > 0
    assert s['cycles_per_host_second'] > 0.0
    assert case['peak_rss_kb'] > 0  # linux CI + dev boxes
    assert case['deterministic'] is True


def test_save_load_round_trip(bench_doc, tmp_path):
    path = bench_path('round trip!', str(tmp_path))
    assert path.endswith('BENCH_round-trip-.json')
    save_bench_report(bench_doc, path)
    loaded = load_bench_report(path)
    assert loaded == bench_doc


def test_validation_rejects_corruption(bench_doc):
    bad = copy.deepcopy(bench_doc)
    del bad['provenance']
    with pytest.raises(BenchValidationError, match='provenance'):
        validate_bench_report(bad)
    bad = copy.deepcopy(bench_doc)
    bad['cases'][0]['wall_seconds']['median'] = 'fast'
    with pytest.raises(BenchValidationError, match='median'):
        validate_bench_report(bad)


def test_self_compare_not_regressed(bench_doc):
    text, regressed = compare_bench(bench_doc, bench_doc)
    assert not regressed
    assert 'REGRESSION' not in text
    assert CASE in text


def _slow_down(doc, factor):
    slow = copy.deepcopy(doc)
    w = slow['cases'][0]['wall_seconds']
    for k in ('median', 'min', 'max'):
        w[k] *= factor
    w['runs'] = [r * factor for r in w['runs']]
    s = slow['cases'][0]['sim']
    s['cycles_per_host_second'] /= factor
    s['instrs_per_host_second'] /= factor
    return slow


def test_injected_regression_detected(bench_doc):
    text, regressed = compare_bench(bench_doc, _slow_down(bench_doc, 10.0))
    assert regressed
    assert 'REGRESSION' in text
    # the other direction is an improvement, not a regression
    text, regressed = compare_bench(_slow_down(bench_doc, 10.0), bench_doc)
    assert not regressed
    assert 'improvement' in text


def test_noise_band_suppresses_jitter(bench_doc):
    # a wall-time bump inside noise_mult * IQR must not gate
    noisy = copy.deepcopy(bench_doc)
    w = noisy['cases'][0]['wall_seconds']
    w['iqr'] = w['median']  # huge measured spread
    bumped = _slow_down(noisy, 1.5)
    bumped['cases'][0]['wall_seconds']['iqr'] = w['iqr'] * 1.5
    _, regressed = compare_bench(noisy, bumped)
    assert not regressed


def test_rss_regression_detected(bench_doc):
    fat = copy.deepcopy(bench_doc)
    fat['cases'][0]['peak_rss_kb'] *= 3
    text, regressed = compare_bench(bench_doc, fat)
    assert regressed and 'RSS' in text


def test_workload_change_warns_not_gates(bench_doc):
    changed = copy.deepcopy(bench_doc)
    changed['cases'][0]['sim']['cycles'] += 1
    text, regressed = compare_bench(bench_doc, changed)
    assert not regressed
    assert 'workload changed' in text


def test_missing_case_warns(bench_doc):
    empty = copy.deepcopy(bench_doc)
    empty['cases'] = []
    text, regressed = compare_bench(bench_doc, empty)
    assert not regressed
    assert 'only in' in text


def test_render_mentions_provenance(bench_doc):
    text = render_bench_report(bench_doc)
    assert 'code-version' in text and CASE in text


def test_cli_bench_run_and_gate(tmp_path, capsys):
    out = tmp_path / 'BENCH_cli.json'
    rc = main(['bench', 'run', '--cases', CASE, '--repeats', '1',
               '--label', 'cli', '--out', str(out)])
    assert rc == 0
    doc = load_bench_report(str(out))  # schema-checked on load
    assert doc['label'] == 'cli'

    assert main(['bench', 'compare', str(out), str(out), '--gate']) == 0

    slow = tmp_path / 'BENCH_slow.json'
    slow.write_text(json.dumps(_slow_down(doc, 10.0)))
    assert main(['bench', 'compare', str(out), str(slow), '--gate']) == 2
    # without --gate the diff is informational
    assert main(['bench', 'compare', str(out), str(slow)]) == 0

    bad = tmp_path / 'bad.json'
    bad.write_text('{"kind": "nope"}')
    assert main(['bench', 'compare', str(out), str(bad), '--gate']) == 1

    assert main(['bench', 'list']) == 0
    assert main(['bench', 'run', '--cases', 'nope']) == 1
    capsys.readouterr()


def test_cli_bench_profile_embedded(tmp_path, capsys):
    out = tmp_path / 'BENCH_prof.json'
    rc = main(['bench', 'run', '--cases', CASE, '--repeats', '1',
               '--profile', '--label', 'prof', '--out', str(out)])
    assert rc == 0
    doc = load_bench_report(str(out))
    prof = doc['cases'][0]['profile']
    assert prof['coverage'] >= 0.9
    assert prof['residual_seconds'] >= 0.0
    assert 'tile_step' in prof['components']
    capsys.readouterr()


def test_isolated_repeats_match_in_process_results(bench_doc):
    # --isolate runs every repeat in a fresh worker; simulated figures
    # must be bit-identical to the in-process path (determinism across
    # the process boundary), and the per-case RSS becomes the child's
    from repro.perf import build_bench_report, run_case
    case = suite_cases(names=[CASE])[0]
    doc = run_case(case, repeats=2, isolate=True)
    assert doc['isolated'] and doc['deterministic']
    ref = bench_doc['cases'][0]['sim']
    assert doc['sim']['cycles'] == ref['cycles']
    assert doc['sim']['instrs'] == ref['instrs']
    assert doc['peak_rss_kb'] > 0
    validate_bench_report(build_bench_report([doc], label='iso'))


def test_cli_bench_isolate_flag(tmp_path, capsys):
    out = tmp_path / 'BENCH_iso.json'
    rc = main(['bench', 'run', '--cases', CASE, '--repeats', '1',
               '--isolate', '--label', 'iso', '--out', str(out)])
    assert rc == 0
    doc = load_bench_report(str(out))
    assert doc['cases'][0]['isolated'] is True
    capsys.readouterr()
