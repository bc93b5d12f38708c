"""Perfetto export regression: serving spans annotate per-core tracks."""

import json

from repro.kernels import registry
from repro.manycore import Fabric, MachineConfig
from repro.serve import DONE, KernelRequest, ServeScheduler
from repro.spans import to_chrome_trace, track_index, write_trace


def _served():
    params_mvt = registry.make('mvt').params_for('test')
    params_atax = registry.make('atax').params_for('test')
    requests = [KernelRequest(req_id=0, kernel='mvt', params=params_mvt,
                              lanes=4, groups=1, arrival=0),
                KernelRequest(req_id=1, kernel='atax', params=params_atax,
                              lanes=4, groups=2, arrival=0)]
    fabric = Fabric(MachineConfig(mesh_width=4, mesh_height=4))
    result = ServeScheduler(fabric).run(requests)
    assert all(r.state == DONE for r in result.requests)
    return fabric, result.spans


class TestRequestAnnotation:
    def test_request_spans_cover_every_owned_core(self):
        fabric, spans = _served()
        doc = to_chrome_trace(fabric=fabric, spans=spans)
        reqs = [e for e in doc['traceEvents'] if e.get('cat') == 'request']
        begins = [e for e in reqs if e['ph'] == 'b']
        ends = [e for e in reqs if e['ph'] == 'e']
        # one span per (request, owned core)
        owned = {(s['attrs']['request'], track_index(s['track']))
                 for s in spans}
        assert len(begins) == len(owned) == len(spans) == len(ends)
        # begin/end pair up by id on the same track
        by_id = {}
        for e in begins:
            by_id[e['id']] = e
        for e in ends:
            b = by_id[e['id']]
            assert b['tid'] == e['tid']
            assert e['ts'] > b['ts']

    def test_span_args_carry_request_group_and_kernel(self):
        fabric, spans = _served()
        doc = to_chrome_trace(fabric=fabric, spans=spans)
        begins = [e for e in doc['traceEvents']
                  if e.get('cat') == 'request' and e['ph'] == 'b']
        for e in begins:
            assert set(e['args']) >= {'request', 'job', 'kernel', 'group'}
            assert e['name'] == (f'req{e["args"]["request"]}:'
                                 f'{e["args"]["kernel"]} '
                                 f'g{e["args"]["group"]}')
        # the two-group request shows both group ids on its tracks
        atax = [e for e in begins if e['args']['kernel'] == 'atax']
        assert {e['args']['group'] for e in atax} == {0, 1}
        # every annotated core is a real tile of the request's span
        by_core = {(s['attrs']['request'], track_index(s['track'])): s
                   for s in spans}
        for e in begins:
            span = by_core[(e['args']['request'], e['tid'])]
            assert span['attrs']['group'] == e['args']['group']
            assert e['ts'] == span['start']

    def test_span_cores_get_thread_metadata(self):
        fabric, spans = _served()
        doc = to_chrome_trace(fabric=fabric, spans=spans)
        named = {e['tid'] for e in doc['traceEvents']
                 if e['ph'] == 'M' and e['name'] == 'thread_name'}
        assert {track_index(s['track']) for s in spans} <= named

    def test_written_trace_is_valid_json(self, tmp_path):
        fabric, spans = _served()
        path = tmp_path / 'serve-trace.json'
        write_trace(to_chrome_trace(fabric=fabric, spans=spans), str(path))
        doc = json.loads(path.read_text())
        assert doc['traceEvents']
        assert any(e.get('cat') == 'request' for e in doc['traceEvents'])

    def test_no_spans_no_request_events(self):
        """Classic single-program flow is unchanged by the feature."""
        fabric = Fabric(MachineConfig(mesh_width=4, mesh_height=4))
        doc = to_chrome_trace(fabric=fabric)
        assert not [e for e in doc['traceEvents']
                    if e.get('cat') == 'request']
