"""Unit tests: FlightRecorder ring + post-mortem artifacts."""

import json

import pytest

from repro.flight import (FlightRecorder, build_postmortem,
                          load_postmortem, postmortem_path,
                          render_postmortem, save_postmortem,
                          validate_postmortem)
from repro.telemetry import ReportValidationError


class TestFlightRecorder:
    def test_events_ordered_with_sequence_numbers(self):
        rec = FlightRecorder(capacity=8)
        rec.record('admit', 100, req_id=1)
        rec.record('dispatch', 200, shard=0)
        events = rec.events()
        assert [e['kind'] for e in events] == ['admit', 'dispatch']
        assert [e['seq'] for e in events] == [0, 1]
        assert events[0]['req_id'] == 1 and events[0]['t'] == 100
        assert all(e['source'] == 'router' for e in events)

    def test_ring_is_bounded_and_counts_drops(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record('admit', i, req_id=i)
        assert len(rec) == 4
        assert rec.seq == 10
        assert rec.dropped == 6
        # the ring keeps the *last* N events — black-box semantics
        assert [e['req_id'] for e in rec.events()] == [6, 7, 8, 9]

    def test_kind_filter_and_unknown_kind_rejected(self):
        rec = FlightRecorder(capacity=8)
        rec.record('admit', 1)
        rec.record('crash', 2, shard=1)
        rec.record('admit', 3)
        assert len(rec.events('admit')) == 2
        assert len(rec.events('crash')) == 1
        with pytest.raises(ValueError):
            rec.record('not-a-kind', 4)

    def test_metric_snapshot_ring(self):
        rec = FlightRecorder(capacity=4, snapshot_capacity=2)
        for t in (100, 200, 300):
            rec.record_snapshot(t, {'queue_depth': t // 100})
        snaps = rec.snapshots()
        assert [s['t'] for s in snaps] == [200, 300]


def _recorder_with_story():
    rec = FlightRecorder(capacity=16)
    rec.record('admit', 0, req_id=0)
    rec.record('dispatch', 100, shard=1)
    rec.record('crash', 200, shard=1, epoch=2)
    rec.record('reroute', 200, req_id=0, from_shard=1)
    rec.record('replace', 200, shards_after=2)
    rec.record_snapshot(150, {'fleet_queue_depth': 3})
    return rec


class TestPostmortem:
    def test_build_validates_and_roundtrips(self, tmp_path):
        rec = _recorder_with_story()
        inflight = [{'trace_id': 't0', 'span_id': 't0/x1',
                     'name': 'shard1.exec', 'kind': 'shard_exec',
                     'track': 'shard:1', 'start': 100, 'end': None}]
        doc = build_postmortem(rec, 'unit', 'crash',
                               'shard 1 died', 200, inflight=inflight)
        path = postmortem_path('unit', 'crash', str(tmp_path))
        assert path.endswith('POSTMORTEM_unit-crash.json')
        save_postmortem(doc, path)
        loaded = load_postmortem(path)
        assert loaded['reason']['trigger'] == 'crash'
        assert [e['kind'] for e in loaded['events']] == [
            'admit', 'dispatch', 'crash', 'reroute', 'replace']
        assert loaded['metric_snapshots'][0]['t'] == 150
        assert loaded['inflight'][0]['span_id'] == 't0/x1'
        assert loaded['provenance']['code_version_hash']

    def test_unknown_trigger_rejected(self):
        with pytest.raises(ValueError):
            build_postmortem(_recorder_with_story(), 'unit', 'sunspots',
                             'detail', 0)

    def test_validation_rejects_malformed(self, tmp_path):
        doc = build_postmortem(_recorder_with_story(), 'unit',
                               'deadlock', 'wedged', 300)
        bad = dict(doc)
        bad.pop('events')
        with pytest.raises(ReportValidationError):
            validate_postmortem(bad)
        bad = json.loads(json.dumps(doc))
        bad['reason']['trigger'] = 'nope'
        with pytest.raises(ReportValidationError):
            validate_postmortem(bad)
        with pytest.raises(ReportValidationError):
            validate_postmortem({'kind': 'other'})

    def test_render_mentions_the_story(self):
        doc = build_postmortem(_recorder_with_story(), 'unit', 'crash',
                               'shard 1 died', 200)
        text = render_postmortem(doc)
        assert 'trigger:   crash @ cycle 200' in text
        assert 'shard 1 died' in text
        for kind in ('admit', 'dispatch', 'crash', 'reroute', 'replace'):
            assert kind in text
