"""Lossless RunResult serialization and the on-disk result store."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.artifact import load_any
from repro.jobs import (DONE, JobSpec, ResultStore, RESULT_SCHEMA_VERSION,
                        SweepEngine, result_from_dict, result_to_dict,
                        run_job)
from repro.jobs.serialize import CORE_FIELDS, stats_from_dict, \
    stats_to_dict
from repro.kernels import registry
from repro.manycore import Fabric
from repro.manycore.stats import CoreStats
from repro.serve import KernelRequest, ServeScheduler
from repro.telemetry import build_report, render_report


@pytest.fixture(scope='module')
def tiny_result():
    return run_job(JobSpec.make('bicg', 'NV_PF', scale='test'))


@pytest.fixture(scope='module')
def tiny_key():
    return JobSpec.make('bicg', 'NV_PF', scale='test').key()


class TestSerialization:
    def test_round_trip_is_lossless(self, tiny_result):
        r2 = result_from_dict(result_to_dict(tiny_result))
        assert r2.benchmark == tiny_result.benchmark
        assert r2.config == tiny_result.config
        assert r2.cycles == tiny_result.cycles
        assert r2.stats.cycles == tiny_result.stats.cycles
        assert r2.stats.noc_word_hops == tiny_result.stats.noc_word_hops
        assert r2.stats.mem == tiny_result.stats.mem
        assert r2.stats.cores == tiny_result.stats.cores
        assert r2.energy == tiny_result.energy
        assert r2.params == tiny_result.params
        assert r2.machine == tiny_result.machine
        assert r2.telemetry is None

    def test_round_trip_survives_json(self, tiny_result):
        doc = json.loads(json.dumps(result_to_dict(tiny_result)))
        r2 = result_from_dict(doc)
        assert r2.cycles == tiny_result.cycles
        assert r2.stats.cores == tiny_result.stats.cores

    def test_none_fields_round_trip(self, tiny_result):
        bare = dataclasses.replace(tiny_result, energy=None, params=None,
                                   machine=None)
        r2 = result_from_dict(result_to_dict(bare))
        assert r2.energy is None and r2.params is None \
            and r2.machine is None

    def test_source_marks_provenance(self, tiny_result):
        assert tiny_result.source == 'simulated'
        doc = result_to_dict(tiny_result)
        assert result_from_dict(doc).source == 'store'
        assert result_from_dict(doc, source='simulated').source == \
            'simulated'

    def test_schema_version_mismatch_rejected(self, tiny_result):
        doc = result_to_dict(tiny_result)
        doc['schema_version'] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match='schema'):
            result_from_dict(doc)


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path, tiny_result, tiny_key):
        store = ResultStore(tmp_path / 'store')
        assert tiny_key not in store
        store.put(tiny_key, tiny_result)
        assert tiny_key in store and len(store) == 1
        got = store.get(tiny_key)
        assert got.cycles == tiny_result.cycles
        assert got.stats.cores == tiny_result.stats.cores
        assert got.source == 'store'

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get('0' * 24) is None
        assert store.misses == 1

    def test_corrupt_file_is_a_miss(self, tmp_path, tiny_result, tiny_key):
        store = ResultStore(tmp_path)
        store.put(tiny_key, tiny_result)
        store.path(tiny_key).write_text('{"truncated": ')
        assert store.get(tiny_key) is None

    def test_schema_bump_invalidates(self, tmp_path, tiny_result, tiny_key):
        store = ResultStore(tmp_path)
        store.put(tiny_key, tiny_result)
        doc = json.loads(store.path(tiny_key).read_text())
        doc['store_schema_version'] = RESULT_SCHEMA_VERSION + 1
        store.path(tiny_key).write_text(json.dumps(doc))
        assert store.get(tiny_key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path, tiny_result, tiny_key):
        # a renamed/moved file must not be served for the wrong point
        store = ResultStore(tmp_path)
        store.put(tiny_key, tiny_result)
        other = 'f' * 24
        store.path(tiny_key).rename(store.path(other))
        assert store.get(other) is None

    def test_clear(self, tmp_path, tiny_result, tiny_key):
        store = ResultStore(tmp_path)
        store.put(tiny_key, tiny_result)
        assert store.clear() == 1
        assert len(store) == 0


def _as_v1(doc: dict) -> dict:
    """A v2 store entry rewritten in the v1 layout (one dict per core)."""
    stats = doc['result']['stats']
    fields = stats.pop('core_fields')
    stats['cores'] = {cid: dict(zip(fields, row))
                      for cid, row in stats['cores'].items()}
    doc['result']['schema_version'] = doc['store_schema_version'] = 1
    return doc


class TestStoreV2:
    def test_layout_is_one_row_per_core(self, tmp_path, tiny_result,
                                        tiny_key):
        store = ResultStore(tmp_path)
        store.put(tiny_key, tiny_result)
        doc = json.loads(store.path(tiny_key).read_text())
        assert RESULT_SCHEMA_VERSION == 2
        assert doc['store_schema_version'] == 2
        stats = doc['result']['stats']
        assert stats['core_fields'] == [
            f.name for f in dataclasses.fields(CoreStats)]
        for cid, cs in tiny_result.stats.cores.items():
            assert stats['cores'][str(cid)] == [
                getattr(cs, f) for f in stats['core_fields']]
        assert stats['mem'] == dataclasses.asdict(tiny_result.stats.mem)

    def test_v1_entry_is_a_miss_and_is_resimulated_as_v2(
            self, tmp_path, tiny_result, tiny_key):
        store = ResultStore(tmp_path)
        store.put(tiny_key, tiny_result)
        path = store.path(tiny_key)
        path.write_text(json.dumps(_as_v1(json.loads(path.read_text()))))
        assert store.get(tiny_key) is None
        engine = SweepEngine(jobs=1, store=store)
        [outcome] = engine.execute([JobSpec.make('bicg', 'NV_PF',
                                                 scale='test')])
        assert outcome.status == DONE and engine.launched == 1
        assert outcome.result.stats.cores == tiny_result.stats.cores
        assert json.loads(path.read_text())['store_schema_version'] == 2
        assert store.get(tiny_key).stats.cores == tiny_result.stats.cores

    @pytest.mark.parametrize('edit', [
        lambda f: f.reverse(),
        lambda f: f.__setitem__(slice(0, 2), f[1::-1]),
        lambda f: f.pop(),
    ], ids=['reversed', 'two-swapped', 'short'])
    def test_foreign_core_fields_are_a_miss(self, edit, tmp_path,
                                            tiny_result, tiny_key):
        store = ResultStore(tmp_path)
        store.put(tiny_key, tiny_result)
        path = store.path(tiny_key)
        doc = json.loads(path.read_text())
        edit(doc['result']['stats']['core_fields'])
        path.write_text(json.dumps(doc))
        assert store.get(tiny_key) is None and store.misses == 1
        with pytest.raises(ValueError, match='core fields'):
            stats_from_dict(doc['result']['stats'])

    def test_merged_serve_stats_round_trip(self):
        requests = [KernelRequest(
            req_id=i, kernel=k, params=registry.make(k).params_for('test'),
            lanes=4, groups=1, arrival=a)
            for i, (k, a) in enumerate([('gesummv', 0), ('atax', 40)])]
        merged = ServeScheduler(Fabric()).run(requests).merged_stats
        assert merged is not None and merged.total_instrs > 0
        wire = json.loads(json.dumps(stats_to_dict(merged)))
        assert tuple(wire['core_fields']) == CORE_FIELDS
        back = stats_from_dict(wire)
        assert back == merged
        assert back.unattributed() == merged.unattributed()


class TestReportProvenance:
    """to_json embeds the machine hash + store schema version."""

    def test_fresh_report_fields(self, tiny_result):
        from repro.jobs import machine_hash
        doc = tiny_result.to_json()
        assert doc['machine_hash'] == machine_hash(tiny_result.machine)
        assert doc['result_store'] == {
            'schema_version': RESULT_SCHEMA_VERSION, 'source': 'simulated'}

    def test_report_stamps_v2_and_a_v1_report_still_renders(
            self, tiny_result):
        assert build_report(tiny_result)['result_store'][
            'schema_version'] == 2
        old = load_any(Path(__file__).parent / 'data/artifacts/run.json')
        assert old['result_store']['schema_version'] == 1
        assert render_report(old)

    def test_cached_report_distinguishable(self, tmp_path, tiny_result,
                                           tiny_key):
        store = ResultStore(tmp_path)
        store.put(tiny_key, tiny_result)
        cached = store.get(tiny_key)
        doc = cached.to_json()
        assert doc['result_store']['source'] == 'store'
        assert doc['machine_hash'] == tiny_result.to_json()['machine_hash']
        assert doc['cycles'] == tiny_result.cycles
