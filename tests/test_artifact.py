"""The artifact envelope (``repro.artifact``), checked once for every kind.

``tests/data/artifacts/*.json`` are real documents of each registered
kind built by the CLI at the commit *before* the envelope existed
(5d7d02b), so loading them also shows old documents still validate —
and that one of a since-retired kind is refused by name.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.artifact import (RETIRED, ReportValidationError, load_any,
                            registry)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = {doc['kind']: doc for doc in (
    json.loads(p.read_text())
    for p in sorted((ROOT / 'tests/data/artifacts').glob('*.json')))
    if doc['kind'] not in RETIRED}
KINDS = sorted(registry())

#: ``'repro-*'`` literals that are inputs, working files or retired kinds,
#: not reports
NOT_REPORTS = {'repro-serve-trace', 'repro-sweep-manifest',
               'repro-flight-journal', *RETIRED}


def test_every_kind_has_a_pre_envelope_sample():
    assert sorted(SAMPLES) == KINDS


@pytest.mark.parametrize('kind', KINDS)
class TestEveryKind:
    def test_old_document_validates_and_renders(self, kind):
        art = registry()[kind]
        art.validate(SAMPLES[kind])
        assert art.render(SAMPLES[kind])

    @pytest.mark.parametrize('mutate, fragment', [
        (lambda d: [d], 'expected object'),
        (lambda d: dict(d, kind='repro-other'), 'not in'),
        (lambda d: dict(d, schema_version=99), 'not in'),
        (lambda d: d['generated'].pop('git_sha') and d,
         "generated: missing required key 'git_sha'"),
    ])
    def test_broken_envelope_rejected(self, kind, mutate, fragment):
        bad = mutate(copy.deepcopy(SAMPLES[kind]))
        with pytest.raises(ReportValidationError, match=fragment):
            registry()[kind].validate(bad)

    def test_save_is_atomic_and_round_trips(self, kind, tmp_path):
        art, doc = registry()[kind], SAMPLES[kind]
        path = str(tmp_path / 'artifact.json')
        assert art.save(doc, path) == path
        assert art.load(path) == doc == load_any(path)
        # a write that dies part-way leaves the previous file intact
        with pytest.raises(TypeError):
            art.save(dict(doc, zz_unserializable=object()), path)
        assert art.load(path) == doc
        # and an invalid document never reaches the disk
        with pytest.raises(ReportValidationError):
            art.save(dict(doc, kind='repro-other'), path)
        assert art.load(path) == doc


def test_each_report_kind_is_declared_once():
    counts = {}
    for py in (ROOT / 'src/repro').rglob('*.py'):
        for lit in re.findall(r'''['"](repro-[a-z][a-z-]*)['"]''',
                              py.read_text()):
            counts[lit] = counts.get(lit, 0) + 1
    assert set(counts) - NOT_REPORTS == set(KINDS)
    assert {k: counts[k] for k in KINDS} == dict.fromkeys(KINDS, 1)


def test_one_validation_error_class():
    from repro.dse.driver import DseValidationError
    from repro.model.calibrate import CalibValidationError
    from repro.telemetry import ReportValidationError as Reexported
    assert (CalibValidationError is DseValidationError is Reexported
            is ReportValidationError)


def test_retired_bench_report_is_refused_by_name(tmp_path, capsys):
    minimal = tmp_path / 'OLD_BENCH.json'
    minimal.write_text('{"kind": "repro-bench-report", "cases": []}')
    for path in (minimal, ROOT / 'tests/data/artifacts/bench.json'):
        said = (f"{path}: 'repro-bench-report' was retired in PR 24 "
                f'(use benchmarks/ladder/run.py and compare.py)')
        with pytest.raises(ReportValidationError) as exc:
            load_any(str(path))
        assert str(exc.value) == said
        assert main(['report', str(path)]) == 1
        assert capsys.readouterr().err == f'invalid report: {said}\n'
    assert len(registry()) == 7


@pytest.mark.parametrize('argv, content', [
    (['report'], None),                       # no such file
    (['report'], 'not json'),
    (['postmortem', 'validate'], '[]'),
    (['postmortem', 'dump'], '[]'),
    (['dse', 'report'], '[]'),
    (['report'], '{"kind": "repro-unknown"}'),
    (['report'], '{"kind": ["repro-run-report"]}'),
    (['report'], '{"kind": "repro-serve-report", "schema_version": 2}'),
])
def test_hostile_input_is_exit_one_and_one_line(argv, content, tmp_path,
                                                capsys):
    path = tmp_path / 'hostile.json'
    if content is not None:
        path.write_text(content)
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count('\n') == 1 and str(path) in err


def test_compare_on_hostile_input_is_exit_one(tmp_path, capsys):
    path = tmp_path / 'hostile.json'
    path.write_text('not json')
    assert main(['compare', str(path), str(path)]) == 1
    assert capsys.readouterr().err.count('\n') == 1


@pytest.mark.parametrize('kind', KINDS)
def test_report_verb_renders_every_kind(kind, tmp_path, capsys):
    path = tmp_path / 'a.json'
    path.write_text(json.dumps(SAMPLES[kind]))
    assert main(['report', str(path)]) == 0
    assert capsys.readouterr().out.strip() == \
        registry()[kind].render(SAMPLES[kind])
