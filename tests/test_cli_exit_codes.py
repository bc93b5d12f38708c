"""The CLI exit-code contracts, asserted in one dedicated place.

These contracts are documented in docs/cli.md (the single source of
truth); this test pins each documented row so a behavior change must
touch both, and checks the table's rows against the parser's commands.
Summary:

* ``0``  success / no regression / gate passed
* ``1``  invalid artifact, unknown name, failed request, or failed job
* ``2``  regression (``compare``), SLO fail or invalid SLO policy
         (``serve --slo``)
"""

import argparse
import copy
import json
import re
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

CLI_MD = Path(__file__).resolve().parent.parent / 'docs' / 'cli.md'


def _leaf_commands(parser, prefix=()):
    """``'dse explore'``-style names of the commands with no subcommand."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield ' '.join(prefix)
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_commands(child, prefix + (name,))


def test_exit_code_table_matches_the_parser():
    text = CLI_MD.read_text()
    live = sorted(_leaf_commands(build_parser()))
    # every leaf command has exactly one row, every row a live command
    assert sorted(re.findall(r'^\| `([^`]+)` \|', text, re.M)) == live
    # and prose that names a subcommand (`trace inspect`,
    # `dse explore|predict --calib`) names one that exists
    for span in re.findall(r'`([a-z]+ [a-z|]+)(?: --[^`]*)?`', text):
        group, subs = span.split()
        for sub in subs.split('|'):
            assert f'{group} {sub}' in live, span


@pytest.fixture(scope='module')
def run_report(tmp_path_factory):
    """One real run report generated through the CLI itself."""
    path = tmp_path_factory.mktemp('reports') / 'report.json'
    assert main(['run', 'gemm', 'V4', '--scale', 'test',
                 '--report', str(path)]) == 0
    return path


def test_run_success_is_zero(run_report):
    # exercised while building the fixture; pin the artifact exists
    assert json.load(open(run_report))['kind'] == 'repro-run-report'


@pytest.mark.parametrize('verb', [['run'], ['dse', 'predict']])
@pytest.mark.parametrize('point, line', [
    (['gemmm', 'V4'], "unknown benchmark 'gemmm' (known: 2dconv, "),
    (['gemm', 'V5'], "unknown configuration 'V5' (known: NV, "),
])
def test_unknown_point_is_one_line(verb, point, line, capsys):
    assert main(verb + point) == 1
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count('\n') == 1


def test_report_valid_zero_invalid_one(run_report, tmp_path, capsys):
    assert main(['report', str(run_report)]) == 0
    bad = tmp_path / 'bad.json'
    bad.write_text('{"kind": "not-a-report"}')
    assert main(['report', str(bad)]) == 1
    capsys.readouterr()


def test_compare_contract(run_report, tmp_path, capsys):
    # self-compare: no regression -> 0
    assert main(['compare', str(run_report), str(run_report)]) == 0
    # injected cycle regression beyond the threshold -> 2
    doc = json.load(open(run_report))
    slow = copy.deepcopy(doc)
    slow['cycles'] = int(doc['cycles'] * 1.5)
    slow_path = tmp_path / 'slow.json'
    slow_path.write_text(json.dumps(slow))
    assert main(['compare', str(run_report), str(slow_path)]) == 2
    # an improvement does not gate
    assert main(['compare', str(slow_path), str(run_report)]) == 0
    # invalid input -> 1
    bad = tmp_path / 'bad.json'
    bad.write_text('{}')
    assert main(['compare', str(run_report), str(bad)]) == 1
    capsys.readouterr()


SERVE = ['serve', '--seed', '3', '--requests', '3', '--scale', 'test']


def test_serve_success_is_zero(capsys):
    assert main(SERVE) == 0
    capsys.readouterr()


@pytest.mark.parametrize('verb', ['serve', 'top'])
def test_timed_out_requests_are_one(verb, capsys):
    # a 1-cycle deadline times out every request: a failure, as in fleet
    assert main([verb] + SERVE[1:] + ['--timeout', '1']) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(re.fullmatch(r'request \d \(\w+\) TIMED-OUT: .+', line)
               for line in err), err


def test_list_names_every_benchmark_and_configuration(capsys):
    from repro.harness.configs import CONFIGS, META_CONFIGS
    from repro.kernels.registry import ALL
    assert main(['list']) == 0
    words = capsys.readouterr().out.split()
    for name in [cls().name for cls in ALL] + [*CONFIGS, *META_CONFIGS]:
        assert name in words, name


@pytest.mark.parametrize('doc', [
    None, [], {'benchmarks': ['nope']}, {'configs': []},
    {'configs': ['V5']}, {'machine': {'no_such_field': 1}}])
def test_invalid_experiment_is_one_line(doc, tmp_path, capsys):
    path = tmp_path / 'experiment.json'  # None: the file does not exist
    if doc is not None:
        if isinstance(doc, dict):
            doc = {'benchmarks': ['bicg'], 'scale': 'test', **doc}
        path.write_text(json.dumps(doc))
    assert main(['experiment', str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f'invalid experiment: {path}: ')
    assert err.count('\n') == 1


@pytest.fixture
def infeasible_experiment(tmp_path):
    """NV runs on a 64-byte scratchpad, V4's frames do not fit."""
    path = tmp_path / 'spad.json'
    path.write_text(json.dumps({
        'benchmarks': ['bicg'], 'configs': ['NV', 'V4'], 'scale': 'test',
        'machine': {'spad_capacity_bytes': 64}}))
    return path


def test_failed_experiment_point_is_one_line(infeasible_experiment,
                                             capsys):
    assert main(['experiment', str(infeasible_experiment)]) == 1
    assert capsys.readouterr().err == \
        'experiment: ValueError: frame region exceeds scratchpad capacity\n'


def test_farmed_experiment_failure_is_not_retried_in_process(
        infeasible_experiment, monkeypatch, capsys):
    import repro.jobs.engine as engine

    def in_process(spec):  # workers keep the real run_job
        raise AssertionError(f'{spec.label()} simulated in-process')
    monkeypatch.setattr(engine, 'run_job', in_process)
    assert main(['experiment', str(infeasible_experiment),
                 '--jobs', '2']) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == 'sweep: 2 job(s) — 1 simulated, 0 cached, 1 failed'
    assert err[1].startswith('  FAILED   bicg/V4 ') and \
        err[1].endswith('ValueError: frame region exceeds scratchpad '
                        'capacity')
    assert len(err) == 2


def test_serve_slo_contract(tmp_path, capsys):
    passing = tmp_path / 'pass.json'
    passing.write_text(json.dumps({'failed': {'fail': 0},
                                   'rejected': {'fail': 0}}))
    assert main(SERVE + ['--slo', str(passing)]) == 0
    # an unmeetable latency bound -> SLO fail -> 2
    failing = tmp_path / 'fail.json'
    failing.write_text(json.dumps({'latency_p99': {'fail': 1}}))
    assert main(SERVE + ['--slo', str(failing)]) == 2
    # invalid policy file -> 2 (the SLO flag's own error path)
    invalid = tmp_path / 'invalid.json'
    invalid.write_text(json.dumps({'latency_p99': {'kind': 'bogus'}}))
    assert main(SERVE + ['--slo', str(invalid)]) == 2
    capsys.readouterr()


FLEET = ['fleet', '--seed', '3', '--requests', '4', '--shards', '2',
         '--pattern', 'steady']


def test_fleet_success_is_zero(capsys):
    assert main(FLEET) == 0
    capsys.readouterr()


def test_fleet_slo_fail_is_two(tmp_path, capsys):
    failing = tmp_path / 'fail.json'
    failing.write_text(json.dumps({'latency_p99': {'fail': 1}}))
    assert main(FLEET + ['--slo', str(failing)]) == 2
    capsys.readouterr()


def test_fleet_invalid_policies_are_two(tmp_path, capsys):
    bad_slo = tmp_path / 'bad_slo.json'
    bad_slo.write_text(json.dumps({'latency_p99': {'kind': 'bogus'}}))
    assert main(FLEET + ['--slo', str(bad_slo)]) == 2
    bad_auto = tmp_path / 'bad_auto.json'
    bad_auto.write_text(json.dumps({'no_such_knob': 1}))
    assert main(FLEET + ['--autoscale', str(bad_auto)]) == 2
    assert main(FLEET + ['--crash', 'zero@zero']) == 2
    capsys.readouterr()


@pytest.mark.parametrize('spec', ['-1@0', '0@-5'])
def test_fleet_negative_crash_is_two(spec, capsys):
    # a negative shard never crashes, a negative epoch crashes at epoch 0
    assert main(FLEET + [f'--crash={spec}']) == 2
    assert capsys.readouterr().err == \
        f'--crash wants SHARD@EPOCH, got {spec!r}\n'


def test_fleet_slo_fail_dumps_a_postmortem(tmp_path, capsys):
    failing = tmp_path / 'fail.json'
    failing.write_text(json.dumps({'latency_p99': {'fail': 1}}))
    out = tmp_path / 'flight'
    assert main(FLEET + ['--flight', str(out), '--flight-label', 't',
                         '--slo', str(failing)]) == 2
    pm = out / 'POSTMORTEM_t-slo_fail.json'
    assert main(['postmortem', 'validate', str(pm)]) == 0
    doc = json.load(open(pm))
    assert 'slo_transition' in [e['kind'] for e in doc['events']]
    assert f'post-mortem [slo_fail]: {pm}' in capsys.readouterr().out


def test_shard_metrics_dir_alone_writes_only_shard_streams(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(['fleet', '--seed', '8', '--requests', '4', '--scale',
                 'test', '--shards', '1', '--workers', '1',
                 '--shard-metrics-dir', 'm']) == 0
    written = sorted(str(p.relative_to(tmp_path))
                     for p in tmp_path.rglob('*') if p.is_file())
    assert written == ['m/shard0.jsonl']  # no flight journal beside it
    capsys.readouterr()


@pytest.fixture(scope='module')
def flight_artifacts(tmp_path_factory):
    """One crashed fleet run with the flight layer on, via the CLI."""
    out = tmp_path_factory.mktemp('flight')
    assert main(FLEET + ['--crash', '0@0', '--flight', str(out),
                         '--flight-label', 'cli',
                         '--shard-metrics-dir', str(out / 'metrics')]) == 0
    return out


def test_trace_merge_contract(flight_artifacts, tmp_path, capsys):
    journal = flight_artifacts / 'FLIGHT_cli.jsonl'
    merged = tmp_path / 'merged.json'
    assert main(['trace', 'merge', str(journal),
                 '--out', str(merged)]) == 0
    doc = json.load(open(merged))
    assert doc['otherData']['producer'] == 'repro.flight'
    # invalid journal -> 1
    bad = tmp_path / 'bad.jsonl'
    bad.write_text('not a journal\n')
    assert main(['trace', 'merge', str(bad), '--out', str(merged)]) == 1
    capsys.readouterr()


def test_trace_inspect_and_export_contract(flight_artifacts, tmp_path,
                                           capsys):
    journal = flight_artifacts / 'FLIGHT_cli.jsonl'
    rows = [json.loads(line) for line in open(journal)]
    # a real run's journal: every trace continuous -> 0
    assert main(['trace', 'inspect', str(journal)]) == 0
    tid = next(r['trace_id'] for r in rows if r.get('type') == 'span')
    assert main(['trace', 'inspect', str(journal),
                 '--trace-id', tid]) == 0
    assert main(['trace', 'inspect', str(journal),
                 '--trace-id', 'no-such-trace']) == 1
    # export mirrors the lookup contract
    out = tmp_path / 'one.json'
    assert main(['trace', 'export', str(journal), '--trace-id', tid,
                 '--out', str(out)]) == 0
    assert main(['trace', 'export', str(journal),
                 '--trace-id', 'no-such-trace',
                 '--out', str(out)]) == 1
    # a trace whose spans leave a gap -> 2 (discontinuity is the
    # invariant `trace inspect` gates on)
    broken = tmp_path / 'broken.jsonl'
    t = 'deadbeef-00000000'
    with open(broken, 'w') as f:
        f.write(json.dumps(rows[0]) + '\n')
        f.write(json.dumps(
            {'type': 'span', 'trace_id': t, 'span_id': f'{t}/root',
             'name': 'r', 'kind': 'request', 'track': 'router',
             'start': 0, 'end': 100}) + '\n')
        f.write(json.dumps(
            {'type': 'span', 'trace_id': t, 'span_id': f'{t}/q1',
             'name': 'q', 'kind': 'router_queue', 'track': 'router',
             'start': 0, 'end': 40}) + '\n')
    assert main(['trace', 'inspect', str(broken)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize('verb', [['merge'], ['inspect'],
                                  ['export', '--trace-id', 'req-0']])
@pytest.mark.parametrize('bad', [{'track': 'bogus'}, {'start': '0'},
                                 {'end': '9'}])
def test_hostile_journal_is_one_line(flight_artifacts, tmp_path, capsys,
                                     verb, bad):
    rows = [json.loads(line)
            for line in open(flight_artifacts / 'FLIGHT_cli.jsonl')]
    journal = tmp_path / 'hostile.jsonl'
    journal.write_text(json.dumps(rows[0]) + '\n'
                       + json.dumps({**rows[1], **bad}) + '\n')
    out = ['--out', str(tmp_path / 'out.json')] if verb != ['inspect'] \
        else []
    capsys.readouterr()
    assert main(['trace', verb[0], str(journal)] + verb[1:] + out) == 1
    err = capsys.readouterr().err
    assert err.startswith('INVALID journal: ') and err.count('\n') == 1


def test_postmortem_contract(flight_artifacts, tmp_path, capsys):
    pm = flight_artifacts / 'POSTMORTEM_cli-crash.json'
    assert main(['postmortem', 'validate', str(pm)]) == 0
    assert main(['postmortem', 'dump', str(pm)]) == 0
    # schema violations and non-postmortems -> 1
    bad = tmp_path / 'bad.json'
    bad.write_text('{"kind": "not-a-postmortem"}')
    assert main(['postmortem', 'validate', str(bad)]) == 1
    doc = json.load(open(pm))
    del doc['events']
    mangled = tmp_path / 'mangled.json'
    mangled.write_text(json.dumps(doc))
    assert main(['postmortem', 'validate', str(mangled)]) == 1
    capsys.readouterr()


def test_top_fleet_contract(flight_artifacts, tmp_path, capsys):
    assert main(['top', '--fleet',
                 str(flight_artifacts / 'metrics')]) == 0
    assert main(['top', '--fleet', str(tmp_path / 'nowhere')]) == 2
    capsys.readouterr()


def test_retired_bench_is_argparse_two(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(['bench', 'run', '--fast'])
    assert exit_.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_version_is_zero(capsys):
    assert main(['version']) == 0
    out = capsys.readouterr().out
    assert 'repro' in out and 'code-version salt' in out
