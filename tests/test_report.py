"""Run-report artifact: schema validation, build, render, compare, CLI."""

import copy
import json

import pytest

from repro.__main__ import main
from repro.harness import run_benchmark
from repro.kernels import registry
from repro.manycore import small_config
from repro.telemetry import (REPORT_SCHEMA, SCHEMA_VERSION,
                             ReportValidationError, Telemetry, build_report,
                             compare_reports, load_report, render_report,
                             validate_report)


@pytest.fixture(scope='module')
def result():
    bench = registry.make('gemm')
    params = bench.params_for('test')
    return run_benchmark(bench, 'V4', params, base_machine=small_config(),
                         telemetry=Telemetry(interval=100))


@pytest.fixture(scope='module')
def report(result):
    return build_report(result)


class TestBuildAndValidate:
    def test_report_is_schema_valid(self, report):
        validate_report(report)  # must not raise

    def test_required_toplevel_fields(self, report):
        for key in REPORT_SCHEMA['required']:
            assert key in report
        assert report['schema_version'] == SCHEMA_VERSION
        assert report['benchmark'] == 'gemm'
        assert report['config'] == 'V4'

    def test_counters_carry_full_stall_taxonomy(self, report, result):
        stalls = report['counters']['stalls']
        for cause, total in result.stats.stall_breakdown().items():
            assert stalls[cause] == total
        assert report['counters']['noc_word_hops'] == \
            result.stats.noc_word_hops

    def test_telemetry_payload(self, report):
        tel = report['telemetry']
        assert tel['sample_interval'] == 100
        assert len(tel['samples']) >= 2
        hists = tel['histograms']
        for name in ('vload_issue_to_last_word', 'frame_fill_to_start',
                     'llc_queue_wait_cycles', 'noc_traversal'):
            assert hists[name]['count'] > 0, name

    def test_json_roundtrip(self, report, tmp_path):
        path = tmp_path / 'r.json'
        path.write_text(json.dumps(report))
        back = load_report(str(path))
        assert back['cycles'] == report['cycles']

    def test_to_json_method(self, result, tmp_path):
        path = tmp_path / 'out.json'
        doc = result.to_json(str(path))
        assert load_report(str(path))['cycles'] == doc['cycles']

    def test_report_without_telemetry(self):
        bench = registry.make('gemm')
        params = bench.params_for('test')
        r = run_benchmark(bench, 'NV', params, base_machine=small_config())
        doc = build_report(r)
        assert doc['telemetry']['samples'] == []
        validate_report(doc)


class TestValidatorCatchesCorruption:
    @pytest.mark.parametrize('mutate, fragment', [
        (lambda d: d.pop('cycles'), 'missing required key'),
        (lambda d: d.update(cycles='fast'), 'expected integer'),
        (lambda d: d.update(cycles=-1), 'minimum'),
        (lambda d: d.update(schema_version=99), 'not in'),
        (lambda d: d.update(kind='something-else'), 'not in'),
        (lambda d: d['counters'].pop('stalls'), 'missing required key'),
        (lambda d: d['telemetry'].pop('histograms'), 'missing required key'),
        (lambda d: d['telemetry']['samples'].__setitem__(
            0, {'cycle': 1}), 'missing required key'),
        (lambda d: d['generated'].pop('git_sha'), 'missing required key'),
        (lambda d: d.update(cycles=True), 'expected integer'),
    ])
    def test_corruption_detected(self, report, mutate, fragment):
        doc = copy.deepcopy(report)
        mutate(doc)
        with pytest.raises(ReportValidationError, match=fragment):
            validate_report(doc)


class TestRender:
    def test_render_mentions_cpi_stack_and_histograms(self, report):
        text = render_report(report)
        assert 'CPI stack' in text
        assert str(report['cycles']) in text
        assert 'vload_issue_to_last_word' in text
        assert 'samples' in text


class TestCompare:
    def test_identical_reports_no_regression(self, report):
        text, regressed = compare_reports(report, report)
        assert not regressed
        assert 'cycles' in text

    def test_cycle_regression_detected(self, report):
        worse = copy.deepcopy(report)
        worse['cycles'] = int(report['cycles'] * 1.05)
        _, regressed = compare_reports(report, worse, threshold=0.02)
        assert regressed

    def test_within_threshold_passes(self, report):
        near = copy.deepcopy(report)
        near['cycles'] = int(report['cycles'] * 1.01)
        _, regressed = compare_reports(report, near, threshold=0.02)
        assert not regressed

    def test_improvement_not_flagged(self, report):
        better = copy.deepcopy(report)
        better['cycles'] = int(report['cycles'] * 0.8)
        text, regressed = compare_reports(report, better)
        assert not regressed
        assert 'improvement' in text

    def test_stall_cause_regression_detected(self, report):
        worse = copy.deepcopy(report)
        worse['counters']['stalls']['stall_frame'] = (
            report['counters']['stalls'].get('stall_frame', 0)
            + int(report['cycles'] * 0.10))
        _, regressed = compare_reports(report, worse)
        assert regressed


class TestCli:
    def run_report(self, tmp_path, name='a.json'):
        out = tmp_path / name
        rc = main(['run', 'gemm', 'V4', '--scale', 'test',
                   '--report', str(out), '--sample-interval', '100'])
        assert rc == 0
        return out

    def test_run_emits_schema_valid_report(self, tmp_path):
        out = self.run_report(tmp_path)
        doc = load_report(str(out))
        assert doc['telemetry']['samples']

    def test_report_subcommand(self, tmp_path, capsys):
        out = self.run_report(tmp_path)
        assert main(['report', str(out)]) == 0
        assert 'CPI stack' in capsys.readouterr().out

    def test_report_subcommand_rejects_invalid(self, tmp_path):
        bad = tmp_path / 'bad.json'
        bad.write_text('{"schema_version": 1}')
        assert main(['report', str(bad)]) == 1

    def test_compare_subcommand_same_file(self, tmp_path):
        out = self.run_report(tmp_path)
        assert main(['compare', str(out), str(out)]) == 0

    def test_compare_subcommand_detects_regression(self, tmp_path):
        out = self.run_report(tmp_path)
        doc = json.loads(out.read_text())
        doc['cycles'] = int(doc['cycles'] * 1.10)
        worse = tmp_path / 'worse.json'
        worse.write_text(json.dumps(doc))
        assert main(['compare', str(out), str(worse)]) == 2
        # and the reverse direction is an improvement, not a regression
        assert main(['compare', str(worse), str(out)]) == 0

    def test_run_emits_trace(self, tmp_path):
        trace = tmp_path / 'trace.json'
        rc = main(['run', 'gemm', 'V4', '--scale', 'test',
                   '--trace', str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert any(e['ph'] == 'X' for e in doc['traceEvents'])
