"""End-to-end flight layer: trace continuity across a shard crash,
breakdown conservation in span form, bit-identity, and the crash
post-mortem (ISSUE satellite: crash-reroute observability coverage).

One crashed 2-shard fleet run with a :class:`FleetFlight` attached is
shared module-wide; every invariant below reads from it, except the
shard-deadlock post-mortem, which is driven from one hand-made batch.
"""

import pytest

from repro.fleet import (FleetConfig, FleetEntry, FleetRouter,
                         build_fleet_report, check_conservation,
                         validate_fleet_report)
from repro.flight import (FleetFlight, check_continuity,
                          load_postmortem, merged_chrome_trace,
                          read_journal)
from repro.manycore import Fabric
from repro.observe.top import read_fleet_streams, render_fleet_frame
from repro.serve import DONE, KernelRequest

N_REQS = 8


def _trace(n=N_REQS, spacing=3000):
    return [KernelRequest(req_id=i, kernel='mvt', params={'n': 16},
                          lanes=4, groups=1, arrival=i * spacing)
            for i in range(n)]


def _config(**kw):
    return FleetConfig(**{'shards': 2, 'workers': 2,
                          'epoch_cycles': 20_000,
                          'crashes': ((0, 0),), **kw})


@pytest.fixture(scope='module')
def crashed_flight(tmp_path_factory):
    out = tmp_path_factory.mktemp('flight')
    metrics = out / 'metrics'
    metrics.mkdir()
    flight = FleetFlight(label='t', out_dir=str(out))
    result = FleetRouter(_config(shard_metrics_dir=str(metrics)),
                         flight=flight).run(iter(_trace()))
    return result, flight, out, metrics


class TestCrashReroutedContinuity:
    def test_run_completes_with_a_reroute(self, crashed_flight):
        result, flight, _, _ = crashed_flight
        assert result.crashes == 1
        assert result.rerouted > 0
        assert all(e.state == DONE for e in result.entries)

    def test_every_trace_is_continuous(self, crashed_flight):
        result, flight, _, _ = crashed_flight
        verdicts = check_continuity(flight.spans)
        assert len(verdicts) == N_REQS
        broken = [v for v in verdicts.values() if not v['continuous']]
        assert broken == []

    def test_rerouted_request_spans_router_and_both_shards(
            self, crashed_flight):
        result, flight, _, _ = crashed_flight
        rerouted = [e for e in result.entries if e.rerouted]
        assert rerouted
        verdicts = check_continuity(flight.spans)
        for entry in rerouted:
            v = verdicts[f'req-{entry.req.req_id}']
            assert v['continuous']
            shard_tracks = [t for t in v['tracks']
                            if t.startswith('shard:')]
            # one continuous trace across the router, the crashed
            # shard, and the shard that re-ran it
            assert 'router' in v['tracks']
            assert len(shard_tracks) >= 2

    def test_phase_leaves_tile_each_completed_exec_window(
            self, crashed_flight):
        _, flight, _, _ = crashed_flight
        execs = {s['span_id']: s for s in flight.spans
                 if s['kind'] == 'shard_exec'}
        phases_of = {}
        for s in flight.spans:
            if s['kind'] == 'phase':
                phases_of.setdefault(s['parent_id'], []).append(s)
        assert phases_of  # completed requests carry breakdowns
        for parent, phases in phases_of.items():
            x = execs[parent]
            phases.sort(key=lambda s: s['start'])
            assert phases[0]['start'] == x['start']
            at = x['start']
            for p in phases:
                assert p['start'] == at  # gapless, in causal order
                at = p['end']
            # breakdown conservation, span form: phase widths sum to
            # the execution window exactly
            assert at == x['end']

    def test_fleet_report_still_conserves(self, crashed_flight):
        result, _, _, _ = crashed_flight
        doc = build_fleet_report(result)
        validate_fleet_report(doc)
        check_conservation(doc)


class TestBitIdentity:
    def test_flight_does_not_change_digests(self, crashed_flight):
        result, _, _, _ = crashed_flight
        plain = FleetRouter(_config()).run(iter(_trace()))
        ref = {e.req.req_id: e.digest for e in plain.entries}
        got = {e.req.req_id: e.digest for e in result.entries}
        assert got == ref
        assert plain.final_cycle == result.final_cycle


class TestCrashPostmortem:
    def test_dumped_validated_and_ordered(self, crashed_flight):
        _, flight, out, _ = crashed_flight
        dumps = [p for p in flight.postmortems
                 if p['trigger'] == 'crash']
        assert len(dumps) == 1
        doc = load_postmortem(dumps[0]['path'])  # schema-validates
        assert doc['label'] == 't'
        assert 'shard 0' in doc['reason']['detail']
        kinds = [e['kind'] for e in doc['events']]
        # the black box tells the story in order:
        # crash -> reroute(s) -> replacement spawn
        i_crash = kinds.index('crash')
        i_reroute = kinds.index('reroute', i_crash)
        assert 'replace' in kinds[i_reroute:]
        # quantitative context and the spans open at the trigger
        assert doc['ring']['recorded'] >= len(doc['events'])
        assert all('t' in s and 'metrics' in s
                   for s in doc['metric_snapshots'])
        assert all(s['end'] is None for s in doc['inflight'])


class TestShardDeadlockPostmortem:
    def test_absorbed_deadlock_is_ringed_and_dumped(self, tmp_path):
        """A batch whose record failed with a wait-state dump: the
        router absorbs it, the black box derives the shard's deadlock
        event at the global cycle and dumps a post-mortem."""
        dump = Fabric().wait_state_dump([])  # the dump's `deadlock:` line
        flight = FleetFlight(label='d', out_dir=str(tmp_path))
        router = FleetRouter(_config(crashes=()), flight=flight)
        sh = router.shards[1]
        entry = FleetEntry(_trace(1)[0])
        flight.on_admit(entry, 0)
        entry.attempts = 1
        flight.on_dispatch(sh, [entry], 4000, 2, False)
        local = {'req_id': 0, 'kernel': 'mvt', 'params': {'n': 16},
                 'lanes': 4, 'groups': 1, 'tiles': 5, 'priority': 0,
                 'arrival': 0, 'state': 'failed', 'instrs': 0,
                 'launched_at': 100, 'queue_wait': 100,
                 'finished_at': 900, 'latency': 900, 'error': dump}
        router._absorb_batch(
            sh, {'entries': [entry], 'dispatched_at': 4000, 'epoch': 2},
            {'makespan': 900, 'num_tiles': 64, 'digests': {},
             'stats': None,
             'report': {'summary': {'tile_utilization': 0.5},
                        'requests': [local]}}, 2)
        kinds = [e['kind'] for e in flight.recorder.events()]
        assert kinds[-4:] == ['batch_done', 'launch', 'complete',
                              'deadlock']
        (ev,) = flight.recorder.events('deadlock')
        assert ev['t'] == 4900  # dispatch + the shard-local finish
        assert ev['origin'] == 'shard1' and ev['source'] == 'router'
        assert ev['trace_id'] == 'req-0' and ev['detail'] == dump
        (pm,) = flight.postmortems
        assert pm['path'].endswith('POSTMORTEM_d-deadlock.json')
        doc = load_postmortem(pm['path'])  # schema-validates
        assert doc['reason'] == {'trigger': 'deadlock', 'detail': dump,
                                 't': 4900}
        assert [s['span_id'] for s in doc['inflight']] == ['req-0/x1']


class TestJournalAndMerge:
    def test_journal_roundtrips(self, crashed_flight):
        _, flight, out, _ = crashed_flight
        path = flight.write_journal()
        assert path.endswith('FLIGHT_t.jsonl')
        header, spans, anomalies = read_journal(path)
        assert header['label'] == 't'
        assert spans == flight.spans
        assert anomalies == flight.detector.anomalies

    def test_merged_trace_has_router_and_shard_track_groups(
            self, crashed_flight):
        _, flight, _, _ = crashed_flight
        doc = merged_chrome_trace(flight.spans,
                                  flight.detector.anomalies)
        procs = {e['args']['name'] for e in doc['traceEvents']
                 if e['ph'] == 'M' and e['name'] == 'process_name'}
        assert 'fleet router' in procs
        assert sum(1 for p in procs if p.startswith('shard ')) >= 2


class TestShardMetricStreams:
    def test_streams_written_and_aggregate(self, crashed_flight):
        _, _, _, metrics = crashed_flight
        shards = read_fleet_streams(str(metrics))
        assert shards  # at least the surviving/replacement shards wrote
        total_done = sum(s['serve_requests_done']
                         for s in shards.values())
        assert total_done == N_REQS
        frame = render_fleet_frame(shards)
        assert 'shard' in frame and 'p99' in frame
        assert frame.splitlines()[-1].lstrip().startswith('all')
