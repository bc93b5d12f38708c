"""Unit tests: span model, flight journal, continuity, merged trace."""

import json

import pytest

from repro.flight import (JournalError, check_continuity,
                          make_span, merged_chrome_trace, read_journal,
                          render_tree, shard_track, write_journal)
from repro.spans import PID_ROUTER, PID_SHARD_BASE


def _rerouted_trace(tid='0000002a-00000001'):
    """The canonical crash-reroute story: queue -> exec (crashed) ->
    reroute wait -> exec on the replacement shard, phases inside."""
    spans = [
        make_span(tid, f'{tid}/root', 'request', 'request', 'router',
                  0, 900, attrs={'req_id': 1, 'kernel': 'mvt',
                                 'rerouted': True}),
        make_span(tid, f'{tid}/q1', 'router.queue', 'router_queue',
                  'router', 0, 100, parent_id=f'{tid}/root'),
        make_span(tid, f'{tid}/x1', 'shard1.exec', 'shard_exec',
                  shard_track(1), 100, 400, parent_id=f'{tid}/root',
                  attrs={'crashed': True}),
        make_span(tid, f'{tid}/q2', 'router.requeue', 'reroute_wait',
                  'router', 400, 500, parent_id=f'{tid}/root'),
        make_span(tid, f'{tid}/x2', 'shard0.exec', 'shard_exec',
                  shard_track(0), 500, 900, parent_id=f'{tid}/root'),
        make_span(tid, f'{tid}/x2.p0', 'queue', 'phase', shard_track(0),
                  500, 600, parent_id=f'{tid}/x2'),
        make_span(tid, f'{tid}/x2.p1', 'execute', 'phase',
                  shard_track(0), 600, 900, parent_id=f'{tid}/x2'),
    ]
    return tid, spans


class TestSpans:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_span('t', 't/x', 'n', 'not-a-kind', 'router', 0)

    def test_open_span_has_null_end(self):
        s = make_span('t', 't/x', 'n', 'shard_exec', shard_track(2), 10)
        assert s['end'] is None
        assert s['track'] == 'shard:2'


class TestJournal:
    def test_roundtrip(self, tmp_path):
        tid, spans = _rerouted_trace()
        anomalies = [{'t': 450, 'signal': 'queue_depth', 'value': 9.0,
                      'mean': 1.0, 'std': 0.5, 'z': 16.0}]
        path = str(tmp_path / 'FLIGHT_t.jsonl')
        header = write_journal(path, spans, anomalies, label='t')
        assert header['kind'] == 'repro-flight-journal'
        assert header['provenance']['code_version_hash']
        got_header, got_spans, got_anoms = read_journal(path)
        assert got_header['label'] == 't'
        assert got_spans == spans
        assert got_anoms == anomalies

    def test_rejects_missing_header(self, tmp_path):
        path = str(tmp_path / 'bad.jsonl')
        with open(path, 'w') as f:
            f.write(json.dumps({'type': 'span'}) + '\n')
        with pytest.raises(JournalError, match='header'):
            read_journal(path)

    def test_rejects_wrong_schema_version(self, tmp_path):
        path = str(tmp_path / 'bad.jsonl')
        with open(path, 'w') as f:
            f.write(json.dumps({'type': 'header',
                                'kind': 'repro-flight-journal',
                                'schema_version': 99}) + '\n')
        with pytest.raises(JournalError, match='schema_version'):
            read_journal(path)

    def test_rejects_malformed_span_and_unknown_type(self, tmp_path):
        tid, spans = _rerouted_trace()
        path = str(tmp_path / 'bad.jsonl')
        write_journal(path, spans[:1])
        with open(path, 'a') as f:
            f.write(json.dumps({'type': 'span', 'trace_id': 't'}) + '\n')
        with pytest.raises(JournalError, match='missing'):
            read_journal(path)
        write_journal(path, spans[:1])
        with open(path, 'a') as f:
            f.write(json.dumps({'type': 'mystery'}) + '\n')
        with pytest.raises(JournalError, match='unknown record type'):
            read_journal(path)

    @pytest.mark.parametrize('key, value, match', [
        ('track', 'bogus', "unknown track 'bogus'"),
        ('track', 'shard:x', "unknown track 'shard:x'"),
        ('track', 'core:3', "unknown track 'core:3'"),
        ('start', '100', 'span start is str'),
        ('end', '400', 'span end is str'),
        ('end', True, 'span end is bool'),
        ('parent_id', 7, 'span parent_id is int'),
        ('attrs', [1], 'span attrs is list'),
        ('kind', 'frame', "unknown span kind 'frame'"),
    ])
    def test_rejects_mistyped_span(self, tmp_path, key, value, match):
        _, spans = _rerouted_trace()
        path = str(tmp_path / 'bad.jsonl')
        write_journal(path, [spans[0], dict(spans[2], **{key: value})])
        with pytest.raises(JournalError, match=match):
            read_journal(path)

    def test_rejects_span_without_end_and_non_object(self, tmp_path):
        _, spans = _rerouted_trace()
        path = str(tmp_path / 'bad.jsonl')
        open_span = dict(spans[1])
        del open_span['end']
        write_journal(path, [open_span])
        with pytest.raises(JournalError, match='span missing end'):
            read_journal(path)
        write_journal(path, [])
        with open(path, 'a') as f:
            f.write('[1, 2]\n')
        with pytest.raises(JournalError, match='not a JSON object'):
            read_journal(path)

    def test_rejects_non_json_and_empty(self, tmp_path):
        path = str(tmp_path / 'bad.jsonl')
        with open(path, 'w') as f:
            f.write('not json\n')
        with pytest.raises(JournalError, match='not JSON'):
            read_journal(path)
        with open(path, 'w') as f:
            f.write('')
        with pytest.raises(JournalError, match='empty'):
            read_journal(path)


class TestContinuity:
    def test_rerouted_trace_is_one_continuous_trace(self):
        tid, spans = _rerouted_trace()
        verdicts = check_continuity(spans)
        v = verdicts[tid]
        assert v['continuous']
        assert v['gaps'] == []
        # the acceptance-criterion shape: router plus both shards
        assert v['tracks'] == ['router', 'shard:0', 'shard:1']

    def test_gap_detected(self):
        tid, spans = _rerouted_trace()
        spans = [s for s in spans if s['span_id'] != f'{tid}/q2']
        v = check_continuity(spans)[tid]
        assert not v['continuous']
        assert v['gaps'] == [(400, 500)]

    def test_tail_gap_detected(self):
        tid, spans = _rerouted_trace()
        spans = [s for s in spans if s['span_id'] != f'{tid}/x2']
        v = check_continuity(spans)[tid]
        assert not v['continuous']
        assert (500, 900) in v['gaps']  # coverage stops at q2's end

    def test_open_root_and_missing_root_flagged(self):
        tid, spans = _rerouted_trace()
        open_root = [dict(spans[0], end=None)] + spans[1:]
        assert check_continuity(open_root)[tid]['error'] == \
            'open root span'
        no_root = spans[1:]
        assert 'root span' in check_continuity(no_root)[tid]['error']

    def test_phases_do_not_mask_exec_gaps(self):
        # phase leaves cover 500..900, but removing the exec span that
        # owns them must still read as a gap — phases are excluded from
        # the top-level tiling
        tid, spans = _rerouted_trace()
        spans = [s for s in spans if s['span_id'] != f'{tid}/x2']
        assert not check_continuity(spans)[tid]['continuous']


class TestMergedTrace:
    def test_process_layout_and_async_pairing(self):
        tid, spans = _rerouted_trace()
        doc = merged_chrome_trace(spans, label='t')
        events = doc['traceEvents']
        names = {e['args']['name']: e['pid'] for e in events
                 if e['ph'] == 'M' and e['name'] == 'process_name'}
        assert names['fleet router'] == PID_ROUTER
        assert names['shard 0'] == PID_SHARD_BASE
        assert names['shard 1'] == PID_SHARD_BASE + 1
        begins = [e for e in events if e['ph'] == 'b']
        ends = [e for e in events if e['ph'] == 'e']
        assert len(begins) == len(ends) == 5  # root, q1, x1, q2, x2
        assert all(e['id'] == tid for e in begins)
        # exec fragments land in their shard's process group
        exec_pids = {e['pid'] for e in begins
                     if e['args']['span_kind'] == 'shard_exec'}
        assert exec_pids == {PID_SHARD_BASE, PID_SHARD_BASE + 1}
        # phases are complete events nested in the exec window
        phases = [e for e in events if e.get('cat') == 'phase']
        assert [p['name'] for p in phases] == ['queue', 'execute']
        assert all(p['ph'] == 'X' for p in phases)

    def test_anomalies_annotate_the_trace(self):
        tid, spans = _rerouted_trace()
        doc = merged_chrome_trace(
            spans, [{'t': 450, 'signal': 'latency_p99', 'z': 5.0}])
        marks = [e for e in doc['traceEvents'] if e['ph'] == 'i']
        assert len(marks) == 1
        assert marks[0]['name'] == 'anomaly:latency_p99'
        assert marks[0]['ts'] == 450
        assert marks[0]['args']['z'] == 5.0

    def test_document_form(self):
        _, spans = _rerouted_trace()
        doc = merged_chrome_trace(spans)
        assert doc['displayTimeUnit'] == 'ms'
        assert doc['otherData']['producer'] == 'repro.flight'
        json.dumps(doc)  # must be serializable as-is


class TestRenderTree:
    def test_tree_nests_by_parent(self):
        tid, spans = _rerouted_trace()
        text = render_tree(spans, tid)
        lines = text.splitlines()
        assert lines[0] == f'trace {tid}:'
        root_depth = len(lines[1]) - len(lines[1].lstrip())
        q_line = next(l for l in lines if 'router.queue' in l)
        p_line = next(l for l in lines if 'execute' in l
                      and '[phase]' in l)
        assert (len(q_line) - len(q_line.lstrip())) > root_depth
        assert (len(p_line) - len(p_line.lstrip())) > \
            (len(q_line) - len(q_line.lstrip()))

    def test_unknown_trace(self):
        assert 'no spans' in render_tree([], 'nope')
