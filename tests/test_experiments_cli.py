"""Tests for the JSON experiment interface and the CLI."""

import json

import pytest

from repro.harness.experiments import (ExperimentSpec, run_experiment,
                                       VALID_METRICS)


class TestExperimentSpec:
    def test_minimal_spec_defaults(self):
        spec = ExperimentSpec.from_dict({'benchmarks': ['gemm']})
        assert spec.benchmarks == ['gemm']
        assert spec.configs == ['NV', 'NV_PF', 'V4']
        assert spec.metrics == ['cycles']

    def test_empty_benchmarks_means_whole_suite(self):
        spec = ExperimentSpec.from_dict({})
        assert len(spec.benchmarks) == 15

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match='unknown benchmark'):
            ExperimentSpec.from_dict({'benchmarks': ['nope']})

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match='unknown metric'):
            ExperimentSpec.from_dict({'benchmarks': ['gemm'],
                                      'metrics': ['watts']})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match='unknown experiment keys'):
            ExperimentSpec.from_dict({'benchmark': ['gemm']})

    def test_machine_overrides_applied(self):
        spec = ExperimentSpec.from_dict(
            {'benchmarks': ['gemm'],
             'machine': {'dram_bandwidth_words_per_cycle': 8.0}})
        m = spec.machine_config()
        assert m.dram_bandwidth_words_per_cycle == 8.0

    def test_load_from_file(self, tmp_path):
        p = tmp_path / 'e.json'
        p.write_text(json.dumps({'name': 'x', 'benchmarks': ['bicg'],
                                 'configs': ['NV'], 'scale': 'test'}))
        spec = ExperimentSpec.load(p)
        assert spec.name == 'x'


class TestRunExperiment:
    def test_runs_and_renders(self):
        result = run_experiment({
            'name': 't', 'benchmarks': ['gemm'],
            'configs': ['NV', 'V4'], 'scale': 'test',
            'metrics': ['speedup', 'cycles'],
        })
        text = result.render()
        assert 't: speedup' in text
        assert 't: cycles' in text
        row = result.tables['speedup'].rows['gemm']
        assert row['NV'] == 1.0
        assert row['V4'] > 1.0

    def test_all_metrics_computable(self):
        result = run_experiment({
            'benchmarks': ['bicg'], 'configs': ['NV_PF'],
            'scale': 'test', 'metrics': list(VALID_METRICS),
        })
        for m in VALID_METRICS:
            assert result.tables[m].rows['bicg']['NV_PF'] >= 0

    def test_machine_override_changes_result(self):
        base = run_experiment({'benchmarks': ['gesummv'],
                               'configs': ['NV_PF'], 'scale': 'test',
                               'metrics': ['cycles']})
        fast = run_experiment({'benchmarks': ['gesummv'],
                               'configs': ['NV_PF'], 'scale': 'test',
                               'machine': {
                                   'dram_bandwidth_words_per_cycle': 64.0},
                               'metrics': ['cycles']})
        assert fast.tables['cycles'].rows['gesummv']['NV_PF'] <= \
            base.tables['cycles'].rows['gesummv']['NV_PF']


class TestCli:
    def _run(self, *argv):
        from repro.__main__ import main
        return main(list(argv))

    def test_list(self, capsys):
        assert self._run('list') == 0
        out = capsys.readouterr().out
        assert 'gemm' in out and 'V16' in out

    def test_run(self, capsys):
        assert self._run('run', 'gemm', 'NV', '--scale', 'test') == 0
        out = capsys.readouterr().out
        assert 'verified' in out

    def test_figure(self, capsys):
        assert self._run('figure', 'bfs', '--scale', 'test') == 0
        out = capsys.readouterr().out
        assert 'bfs' in out
        # the parser's hand copy (kept so --help imports no kernel)
        from repro.__main__ import FIGURE_NAMES
        from repro.harness.figures import FIGURES
        assert sorted(FIGURE_NAMES) == sorted(FIGURES)

    def test_experiment(self, capsys, tmp_path):
        p = tmp_path / 'e.json'
        p.write_text(json.dumps({'benchmarks': ['bicg'],
                                 'configs': ['NV', 'V4'],
                                 'scale': 'test',
                                 'metrics': ['speedup']}))
        assert self._run('experiment', str(p)) == 0
        assert 'speedup' in capsys.readouterr().out
