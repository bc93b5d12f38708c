"""Acceptance: heterogeneous kernels co-scheduled on one fabric.

At least three different kernels, at least two groups in flight at once,
every output bit-identical to the same request run alone, and per-request
latency attribution that aggregates with RunStats.merge.
"""

import numpy as np
import pytest

from repro.kernels import registry
from repro.manycore import Fabric, RunStats
from repro.serve import (DONE, KernelRequest, ServeScheduler,
                         build_serve_report, isolated_reference,
                         render_serve_report, request_outputs,
                         store_serve_report, validate_serve_report)


def _req(i, kernel, arrival, lanes=4, groups=1, **kw):
    params = registry.make(kernel).params_for('test')
    return KernelRequest(req_id=i, kernel=kernel, params=params,
                         lanes=lanes, groups=groups, arrival=arrival, **kw)


@pytest.fixture(scope='module')
def cosched():
    """One serving run shared by the assertions below (it is not cheap)."""
    requests = [
        _req(0, 'mvt', arrival=0, groups=2),
        _req(1, 'gesummv', arrival=0, groups=1),
        _req(2, 'atax', arrival=50, groups=2),
        _req(3, 'gesummv', arrival=120, groups=1, priority=1),
    ]
    fabric = Fabric()
    scheduler = ServeScheduler(fabric)
    result = scheduler.run(requests)
    return fabric, result


class TestCoScheduling:
    def test_all_requests_complete_and_verify(self, cosched):
        _, result = cosched
        assert [r.state for r in result.requests] == [DONE] * 4
        assert {r.kernel for r in result.requests} == \
            {'mvt', 'gesummv', 'atax'}

    def test_groups_were_actually_concurrent(self, cosched):
        _, result = cosched
        assert result.peak_concurrent_jobs >= 2
        # overlap is visible in the timeline too, not just the counter
        r0, r1 = result.requests[0], result.requests[1]
        assert r0.launched_at < r1.finished_at
        assert r1.launched_at < r0.finished_at

    def test_outputs_bit_identical_to_isolated_runs(self, cosched):
        fabric, result = cosched
        for req in result.requests:
            got = request_outputs(fabric, req)
            ref = isolated_reference(req)
            assert got.keys() == ref.outputs.keys()
            for name in ref.outputs:
                assert np.array_equal(got[name], ref.outputs[name]), \
                    (f'request {req.req_id} ({req.kernel}) array {name!r} '
                     f'differs from its isolated run')

    def test_per_request_latency_attribution(self, cosched):
        _, result = cosched
        for req in result.requests:
            assert req.latency == req.queue_wait + req.service_cycles
            assert req.stats is not None
            # the per-request delta covers exactly the request's tiles and
            # its cycles field is the service latency
            assert req.stats.cycles == req.service_cycles
            assert len(req.stats.cores) == req.tiles_needed
            assert req.stats.total_instrs > 0
            assert req.instrs == req.stats.total_instrs

    def test_merge_aggregates_request_stats(self, cosched):
        _, result = cosched
        merged = RunStats.merge([r.stats for r in result.requests])
        assert result.merged_stats is not None
        assert merged.total_instrs == \
            sum(r.stats.total_instrs for r in result.requests)
        assert result.merged_stats.total_instrs == merged.total_instrs

    def test_report_is_schema_valid_and_storable(self, cosched, tmp_path):
        from repro.jobs import ResultStore
        _, result = cosched
        doc = build_serve_report(result, seed=None)
        validate_serve_report(doc)
        assert doc['summary']['completed'] == 4
        assert doc['summary']['failed'] == 0
        assert doc['trace']['key'].startswith('serve-')
        text = render_serve_report(doc)
        assert 'makespan' in text and 'gesummv' in text
        store = ResultStore(tmp_path / 'store')
        key = store_serve_report(store, doc)
        assert store.get_doc(key) == doc
        # a doc key can never rehydrate as a sweep RunResult
        assert store.get(key) is None


def test_a_lone_request_times_like_its_isolated_run():
    """Alone on a fresh fabric, a request runs the same job lifecycle as
    its isolated run (same barrier fence, same tile order), so only the
    launch differs: served tiles first step one cycle after dispatch.
    gramschm's barriers fence on in-flight memory, so a fence that
    released at a different time would show here."""
    req = _req(0, 'gramschm', arrival=0)
    ServeScheduler(Fabric()).run([req])
    assert req.state == DONE
    assert req.service_cycles == isolated_reference(req).cycles + 1
