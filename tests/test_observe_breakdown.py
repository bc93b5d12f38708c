"""Per-request causal tracing: exact breakdown conservation.

Acceptance: for every completed request, the sum of attributed phases
plus the ``unattributed`` residual equals the end-to-end latency, the
schema-checked report carries the breakdown, and the SLO section
evaluates against the summary.
"""

import json

import pytest

from repro.kernels import registry
from repro.manycore import Fabric
from repro.observe import (BREAKDOWN_PHASES, ObservePlane, SloPolicy,
                           breakdown_total)
from repro.serve import (DONE, KernelRequest, ServeScheduler,
                         build_serve_report, generate_trace,
                         render_serve_report, validate_serve_report)


@pytest.fixture(scope='module')
def served():
    """One observed serving run with queueing pressure (not cheap)."""
    requests = generate_trace(seed=8, n_requests=6, scale='test',
                              mean_interarrival=500)
    fabric = Fabric()
    plane = ObservePlane(interval=2000)
    plane.attach(fabric)
    result = ServeScheduler(fabric).run(requests)
    return fabric, plane, result


class TestBreakdownConservation:
    def test_every_completed_request_conserves_cycles(self, served):
        _, _, result = served
        completed = [r for r in result.requests if r.state == DONE]
        assert completed, 'fixture produced no completed requests'
        for r in completed:
            b = r.breakdown
            assert b is not None
            assert set(b) == set(BREAKDOWN_PHASES)
            assert all(v >= 0 for v in b.values()), (r.req_id, b)
            assert breakdown_total(b) == r.latency, (r.req_id, b)
            assert b['queue'] == r.queue_wait

    def test_rtrace_counters_populated(self, served):
        _, _, result = served
        for r in result.requests:
            if r.state != DONE:
                continue
            rt = r._rtrace
            assert rt is not None and rt.req_id == r.req_id
            assert rt.formations >= 1  # the group formed at least once
            assert rt.wide_issued > 0 or rt.llc_accesses > 0
            assert rt.lead_wait_from is None  # no dangling episode
            d = rt.to_dict()
            assert d['req_id'] == r.req_id

    def test_report_carries_breakdowns_and_totals(self, served):
        _, plane, result = served
        policy = SloPolicy({'latency_p99': {'warn': 1, 'fail': 10 ** 9},
                            'rejected': {'fail': 0},
                            'tile_utilization': {'warn': 0.01,
                                                 'kind': 'min'}})
        doc = build_serve_report(result, seed=8, slo=policy,
                                 observe=plane)
        validate_serve_report(doc)
        for rec in doc['requests']:
            if rec['state'] == DONE:
                b = rec['breakdown']
                assert sum(b[p] for p in BREAKDOWN_PHASES) == \
                    rec['latency']
        totals = doc['summary']['breakdown_totals']
        assert set(totals) == set(BREAKDOWN_PHASES)
        assert 'unattributed' in totals  # residual surfaced, not dropped
        assert sum(totals.values()) == sum(
            rec['latency'] for rec in doc['requests']
            if 'breakdown' in rec)
        assert doc['slo']['status'] in ('pass', 'warn', 'fail')
        assert doc['observability']['snapshots'] == plane.snapshots
        text = render_serve_report(doc)
        assert 'cycle attribution' in text and 'SLO' in text

    def test_summary_has_p99_and_utilization(self, served):
        _, plane, result = served
        doc = build_serve_report(result, observe=plane)
        s = doc['summary']
        assert s['latency_p99'] >= s['latency_p95'] >= s['latency_p50']
        assert 0.0 < s['tile_utilization'] <= 1.0


def test_killed_request_still_conserves():
    params = registry.make('gesummv').params_for('test')
    req = KernelRequest(req_id=0, kernel='gesummv', params=params,
                        lanes=4, groups=1, arrival=0, timeout=300)
    fabric = Fabric()
    result = ServeScheduler(fabric).run([req])
    r = result.requests[0]
    assert r.state == 'timed-out'
    assert r.breakdown is not None
    assert breakdown_total(r.breakdown) == r.latency


def test_unattributed_residual_in_runstats():
    from repro.manycore.stats import CoreStats, RunStats
    rs = RunStats()
    rs.cores[0] = CoreStats(cycles=100, instrs=40, stall_frame=10)
    rs.cores[1] = CoreStats(cycles=100, instrs=90)
    assert rs.unattributed() == 60
    assert 'unattributed cycles: 60' in rs.summary()
    merged = RunStats.merge([rs, rs])
    assert merged.unattributed() == 120


def test_cli_slo_exit_codes(tmp_path, capsys):
    from repro.__main__ import main
    slo_fail = tmp_path / 'fail.json'
    slo_fail.write_text(json.dumps({'latency_p99': {'fail': 10}}))
    slo_pass = tmp_path / 'pass.json'
    slo_pass.write_text(json.dumps({'latency_p99': {'fail': 10 ** 9}}))
    metrics = tmp_path / 'm.jsonl'
    base = ['serve', '--seed', '8', '--requests', '3', '--scale', 'test']
    assert main(base + ['--slo', str(slo_pass),
                        '--metrics-out', str(metrics)]) == 0
    capsys.readouterr()
    lines = [json.loads(ln) for ln in
             metrics.read_text().splitlines()]
    assert lines and 'metrics' in lines[0]
    assert lines[-1].get('final') and 'heatmaps' in lines[-1]
    assert main(base + ['--slo', str(slo_fail)]) == 2
    capsys.readouterr()
    bad = tmp_path / 'bad.json'
    bad.write_text('{"no_such_metric": {"fail": 1}}')
    assert main(base + ['--slo', str(bad)]) == 2
    capsys.readouterr()
