"""End-to-end sweep acceptance: parallel == serial, replay is free.

These run real (test-scale) simulations through the worker farm and
assert the two load-bearing properties of the subsystem:

* a sweep executed with ``--jobs 4`` produces **bit-identical** cycle
  counts (and full statistics) to the serial path;
* an immediately repeated sweep is served entirely from the on-disk
  store — zero worker launches, zero simulations.
"""

import json

import pytest

from repro.harness import figures as F
from repro.jobs import (JobSpec, PlanningCache, ResultStore, SweepEngine,
                        plan_figures, run_job)

POINTS = [JobSpec.make(b, c, scale='test')
          for b in ('bicg', 'gemm')
          for c in ('NV', 'NV_PF', 'V4')]


class TestParallelBitIdentical:
    @pytest.fixture(scope='class')
    def serial(self):
        return {s.key(): run_job(s) for s in POINTS}

    def test_parallel_matches_serial_bit_for_bit(self, tmp_path_factory,
                                                 serial):
        store = ResultStore(tmp_path_factory.mktemp('store'))
        engine = SweepEngine(jobs=4, store=store)
        outcomes = engine.execute(POINTS)
        assert engine.launched == len(POINTS)
        for o in outcomes:
            assert o.ok, o.error
            ref = serial[o.key]
            assert o.result.cycles == ref.cycles
            assert o.result.stats.cores == ref.stats.cores
            assert o.result.stats.mem == ref.stats.mem
            assert o.result.stats.noc_word_hops == ref.stats.noc_word_hops
            assert o.result.energy == ref.energy

        # immediate re-run: everything from the store, nothing launched
        again = SweepEngine(jobs=4, store=store)
        outcomes2 = again.execute(POINTS)
        assert again.launched == 0
        assert all(o.from_cache for o in outcomes2)
        for o in outcomes2:
            assert o.result.cycles == serial[o.key].cycles


class TestPlanner:
    def test_plan_enumerates_exact_point_set(self):
        specs = plan_figures(['fig10a'], scale='test', benches=['bicg'])
        labels = {(s.benchmark, s.config) for s in specs}
        # NV baseline, NV_PF, and the BEST_V members (no LL at test scale)
        assert labels == {('bicg', 'NV'), ('bicg', 'NV_PF'),
                          ('bicg', 'V4'), ('bicg', 'V16')}
        assert all(s.scale == 'test' for s in specs)

    def test_plan_covers_machine_and_core_sweeps(self):
        specs = plan_figures(['fig11'], scale='test', benches=['gemm'])
        core_sets = {s.active_cores for s in specs}
        assert (0,) in core_sets  # single-core baseline
        assert any(s.active_cores and len(s.active_cores) == 64
                   for s in specs)

    def test_planning_simulates_nothing(self):
        cache = PlanningCache(scale='test')
        F.fig10a_speedup(cache, benches=['bicg'])
        assert len(cache.specs) == 4  # recorded, none executed

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match='unknown figure'):
            plan_figures(['fig99'], scale='test')


class _RecordingCache(F.ResultCache):
    """A real ResultCache that also records the key of every point a
    figure asks it for (in ``keys``, which the test resets)."""

    def run(self, bench_name, config_name, machine=None, active_cores=None,
            params_override=None):
        self.keys.add(JobSpec.make(
            bench_name, config_name, scale=self.scale, verify=self.verify,
            params_override=params_override, machine=machine,
            active_cores=active_cores).key())
        return super().run(bench_name, config_name, machine, active_cores,
                           params_override)


@pytest.fixture(scope='module')
def recording_cache():
    return _RecordingCache(scale='test')


@pytest.mark.parametrize('name', list(F.FIGURES))
def test_plan_is_exactly_what_the_figure_runs(name, recording_cache):
    """Planning is exact: the planner's key set is the key set a real
    run of the figure requests, for every registered figure."""
    benches = ['bicg', 'gemm']
    planned = {s.key() for s in plan_figures([name], scale='test',
                                             benches=benches)}
    recording_cache.keys = set()
    kwargs = {} if name == 'bfs' else {'benches': benches}
    getattr(F, F.FIGURES[name])(recording_cache, **kwargs)
    assert planned == recording_cache.keys


class TestFigureSweepEndToEnd:
    """Farm a figure's points, then regenerate it with zero simulations."""

    def test_parallel_figure_equals_serial_figure(self, tmp_path):
        serial_series = F.fig10a_speedup(F.ResultCache(scale='test'),
                                         benches=['bicg'])

        store = ResultStore(tmp_path / 'store')
        specs = plan_figures(['fig10a'], scale='test', benches=['bicg'])
        engine = SweepEngine(jobs=4, store=store)
        outcomes = engine.execute(specs)
        assert all(o.ok for o in outcomes)

        cache = F.ResultCache(scale='test', store=store)
        parallel_series = F.fig10a_speedup(cache, benches=['bicg'])
        assert cache.simulations == 0  # everything came from the store
        assert parallel_series.rows == serial_series.rows

    def test_experiment_jobs_matches_serial(self, tmp_path):
        from repro.harness.experiments import run_experiment
        spec = {'name': 'p', 'benchmarks': ['bicg'],
                'configs': ['NV', 'V4'], 'scale': 'test',
                'metrics': ['cycles', 'speedup']}
        serial = run_experiment(dict(spec))
        parallel = run_experiment(dict(spec), jobs=2,
                                  store=ResultStore(tmp_path / 's'))
        for metric in ('cycles', 'speedup'):
            assert parallel.tables[metric].rows == \
                serial.tables[metric].rows


class TestSweepCli:
    def _run(self, *argv):
        from repro.__main__ import main
        return main(list(argv))

    def test_sweep_then_cached_rerun(self, tmp_path, capsys):
        store = str(tmp_path / 'store')
        manifest = str(tmp_path / 'manifest.json')
        report1 = str(tmp_path / 'r1.json')
        report2 = str(tmp_path / 'r2.json')
        args = ['sweep', 'bfs', '--scale', 'test', '--jobs', '2',
                '--store', store, '--manifest', manifest]
        assert self._run(*args, '--report', report1, '--render') == 0
        out = capsys.readouterr().out
        assert 'bfs' in out
        doc = json.load(open(report1))
        assert doc['kind'] == 'repro-sweep-report'
        assert doc['launched'] == doc['total'] == 3
        assert doc['by_status'] == {'done': 3}

        # second pass: 100% cache hits, zero workers launched
        assert self._run(*args, '--report', report2) == 0
        doc = json.load(open(report2))
        assert doc['launched'] == 0
        assert doc['by_status'] == {'cached': 3}

        # --resume with a complete manifest has nothing to do
        assert self._run(*args, '--resume') == 0
        assert 'pending' in capsys.readouterr().out

    def test_figure_jobs_flag(self, tmp_path, capsys):
        assert self._run('figure', 'bfs', '--scale', 'test', '--jobs', '2',
                         '--store', str(tmp_path / 's')) == 0
        assert 'bfs' in capsys.readouterr().out

    def test_resume_without_manifest_errors(self, tmp_path, capsys):
        assert self._run('sweep', 'bfs', '--scale', 'test',
                         '--store', str(tmp_path / 's'),
                         '--manifest', str(tmp_path / 'nope.json'),
                         '--resume') == 2
        assert 'cannot resume' in capsys.readouterr().err
