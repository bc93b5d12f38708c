"""Structural validation of the Perfetto (Chrome trace-event) export."""

import json

from repro.harness import run_benchmark
from repro.kernels import registry
from repro.manycore import Tracer, small_config
from repro.spans import to_chrome_trace, write_trace
from repro.telemetry import Telemetry


def traced_gemm():
    bench = registry.make('gemm')
    params = bench.params_for('test')
    tel = Telemetry(interval=100)
    tracer = Tracer()
    r = run_benchmark(bench, 'V4', params, base_machine=small_config(),
                      telemetry=tel, tracer=tracer)
    return r, tel, tracer


class TestChromeTrace:
    def setup_method(self):
        self.result, self.tel, self.tracer = traced_gemm()
        self.doc = to_chrome_trace(tracer=self.tracer, telemetry=self.tel)
        self.events = self.doc['traceEvents']

    def test_document_shape(self):
        assert isinstance(self.events, list) and self.events
        assert self.doc['displayTimeUnit'] == 'ms'
        for e in self.events:
            assert 'ph' in e and 'pid' in e
            if e['ph'] in ('X', 'b', 'e', 'C'):
                assert e['ts'] >= 0

    def test_per_core_tracks_with_role_annotations(self):
        names = [e['args']['name'] for e in self.events
                 if e['ph'] == 'M' and e['name'] == 'thread_name']
        joined = ' '.join(names)
        # a V4 run shows the whole group structure in the track names
        assert '[scalar]' in joined
        assert '[expander]' in joined
        assert '[vector]' in joined
        # tracks are per-core and stably sorted
        tids = [e['tid'] for e in self.events
                if e['ph'] == 'M' and e['name'] == 'thread_sort_index']
        assert tids == sorted(tids)

    def test_microthread_complete_events(self):
        mts = [e for e in self.events
               if e['ph'] == 'X' and e.get('cat') == 'microthread']
        assert len(mts) == self.result.stats.total('microthreads')
        for e in mts:
            assert e['dur'] >= 1
            assert 'mt_pc' in e['args']

    def test_frame_async_events_pair_up(self):
        begins = [e for e in self.events
                  if e['ph'] == 'b' and e.get('cat') == 'frame']
        ends = [e for e in self.events
                if e['ph'] == 'e' and e.get('cat') == 'frame']
        assert begins
        assert len(begins) == len(ends)
        end_by_id = {e['id']: e for e in ends}
        for b in begins:
            assert b['id'] in end_by_id
            assert end_by_id[b['id']]['ts'] > b['ts']

    def test_wide_access_async_events(self):
        wides = [e for e in self.events
                 if e['ph'] == 'b' and e.get('cat') == 'wide_access']
        assert len(wides) == self.result.stats.mem.wide_requests
        assert all('per_core_words' in e['args'] for e in wides)

    def test_instruction_events(self):
        instrs = [e for e in self.events
                  if e['ph'] == 'X' and e.get('cat') == 'instr']
        assert len(instrs) == len(self.tracer.entries)
        assert all(e['dur'] == 1 for e in instrs)
        roles = {e['args']['role'] for e in instrs}
        assert 'scalar' in roles and 'vector' in roles

    def test_counter_tracks_from_samples(self):
        counters = [e for e in self.events if e['ph'] == 'C']
        names = {e['name'] for e in counters}
        assert {'cpi_stack', 'llc_occupancy', 'dram_backlog'} <= names
        stacks = [e for e in counters if e['name'] == 'cpi_stack']
        assert sum(e['args']['issued'] for e in stacks) == \
            self.result.stats.total_instrs

    def test_json_serializable_and_loadable(self, tmp_path):
        path = tmp_path / 'trace.json'
        doc = write_trace(to_chrome_trace(tracer=self.tracer,
                                          telemetry=self.tel), str(path))
        with open(path) as f:
            back = json.load(f)
        assert back == doc
        assert len(back['traceEvents']) == len(self.events)
        # saved atomically, in json.dump's own encoding
        assert path.read_text() == json.dumps(doc)
        assert [p.name for p in tmp_path.iterdir()] == ['trace.json']


class TestPartialSources:
    def test_telemetry_only(self):
        _, tel, _ = traced_gemm()
        doc = to_chrome_trace(telemetry=tel)
        phases = {e['ph'] for e in doc['traceEvents']}
        assert 'X' in phases and 'b' in phases and 'C' in phases

    def test_tracer_only(self):
        _, _, tracer = traced_gemm()
        doc = to_chrome_trace(tracer=tracer)
        assert any(e['ph'] == 'X' for e in doc['traceEvents'])

    def test_empty_sources(self):
        doc = to_chrome_trace()
        # just the process-name metadata record
        assert all(e['ph'] == 'M' for e in doc['traceEvents'])
