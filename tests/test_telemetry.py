"""Telemetry subsystem: histograms, samples, spans, zero-perturbation."""

import dataclasses
from collections import Counter

import pytest

from repro.harness import run_benchmark
from repro.kernels import registry
from repro.manycore import small_config
from repro.manycore.probes import Consumer
from repro.manycore.stats import STALL_CAUSES
from repro.telemetry import (HIST_FRAME, HIST_GPU_MEM, HIST_LLC_QUEUE,
                             HIST_NOC, HIST_VLOAD, Log2Histogram, Telemetry)

SMALL = small_config()


def run_gemm(config='V4', telemetry=None):
    bench = registry.make('gemm')
    params = bench.params_for('test')
    return run_benchmark(bench, config, params, base_machine=SMALL,
                         telemetry=telemetry)


class TestLog2Histogram:
    def test_bucketing(self):
        h = Log2Histogram('lat')
        for v in (0, 1, 2, 3, 4, 7, 8, 1000):
            h.record(v)
        bk = h.buckets()  # keyed by bucket lower bound
        assert bk[0] == 1          # the zero
        assert bk[1] == 1          # [1, 2)
        assert bk[2] == 2          # [2, 4): 2, 3
        assert bk[4] == 2          # [4, 8): 4, 7
        assert bk[8] == 1          # [8, 16): 8
        assert bk[512] == 1        # [512, 1024): 1000
        assert h.count == 8
        assert h.max == 1000
        assert h.min == 0

    def test_mean_and_percentiles(self):
        h = Log2Histogram('lat')
        for _ in range(99):
            h.record(4)
        h.record(1 << 20)
        assert h.mean == pytest.approx((99 * 4 + (1 << 20)) / 100)
        assert h.percentile(50) <= 7          # inside the [4, 8) bucket
        assert h.percentile(100) == 1 << 20   # capped at the true max

    def test_roundtrip(self):
        h = Log2Histogram('x')
        for v in (1, 5, 9, 2, 100):
            h.record(v)
        back = Log2Histogram.from_dict(h.to_dict())
        assert back.count == 5
        assert back.max == 100
        assert back.buckets() == h.buckets()

    def test_empty(self):
        h = Log2Histogram('x')
        assert h.mean == 0.0
        assert h.percentile(99) == 0.0
        assert h.to_dict()['count'] == 0


class TestZeroPerturbation:
    """Telemetry observes; it must never change simulated timing."""

    def test_cycles_bit_identical_with_telemetry(self):
        base = run_gemm()
        tel = Telemetry(interval=50, per_core_samples=True)
        instrumented = run_gemm(telemetry=tel)
        assert instrumented.cycles == base.cycles
        # the full stall taxonomy must match, not just the headline
        for cid, cs in base.stats.cores.items():
            ics = instrumented.stats.cores[cid]
            for f in dataclasses.fields(cs):
                assert getattr(ics, f.name) == getattr(cs, f.name), f.name

    def test_cycles_bit_identical_mimd(self):
        base = run_gemm('NV_PF')
        instrumented = run_gemm('NV_PF', telemetry=Telemetry(interval=100))
        assert instrumented.cycles == base.cycles


class TestSampler:
    def test_samples_recorded_and_deltas_sum_to_totals(self):
        tel = Telemetry(interval=100)
        r = run_gemm(telemetry=tel)
        samples = tel.samples
        assert len(samples) >= 2
        # delta-encoding invariant: per-field sums equal final counters
        assert sum(s['issued'] for s in samples) == r.stats.total_instrs
        agg = {}
        for s in samples:
            for cause, v in s['stalls'].items():
                agg[cause] = agg.get(cause, 0) + v
        breakdown = r.stats.stall_breakdown()
        for cause in STALL_CAUSES:
            assert agg.get(cause[len('stall_'):], 0) == breakdown[cause]
        assert sum(s['llc_accesses'] for s in samples) == \
            r.stats.mem.llc_accesses
        assert sum(s['dram_lines_read'] for s in samples) == \
            r.stats.mem.dram_lines_read
        # the closing sample lands on the final cycle
        assert samples[-1]['cycle'] == r.cycles
        # cycles covered add up with no overlap
        assert sum(s['dcycles'] for s in samples) == samples[-1]['cycle']

    def test_fast_forward_aware(self):
        # interval far larger than the run: exactly one (closing) sample
        tel = Telemetry(interval=10_000_000)
        r = run_gemm(telemetry=tel)
        assert len(tel.samples) == 1
        assert tel.samples[0]['issued'] == r.stats.total_instrs

    def test_per_core_samples(self):
        tel = Telemetry(interval=100, per_core_samples=True)
        r = run_gemm(telemetry=tel)
        per_core_issued = {}
        for s in tel.samples:
            for cid, deltas in s['per_core'].items():
                per_core_issued[cid] = per_core_issued.get(cid, 0) + deltas[0]
        for cid, cs in r.stats.cores.items():
            assert per_core_issued.get(str(cid), 0) == cs.instrs

    def test_sample_serialization(self):
        tel = Telemetry(interval=100)
        run_gemm(telemetry=tel)
        docs = tel.to_dict()['samples']
        for doc in docs:
            assert doc['dcycles'] >= 0
            assert doc['llc_lines'] >= 0
            assert doc['dram_backlog'] >= 0.0

    def test_zero_interval_disables_sampling(self):
        tel = Telemetry(interval=0)
        run_gemm(telemetry=tel)
        assert tel.samples == []
        assert tel.to_dict()['samples'] == []


class TestHistogramProbes:
    def test_all_four_fabric_histograms_populated_on_v4(self):
        tel = Telemetry(interval=1000)
        run_gemm('V4', telemetry=tel)
        for name in (HIST_VLOAD, HIST_FRAME, HIST_LLC_QUEUE, HIST_NOC):
            assert tel.hists[name].count > 0, name

    def test_vload_latency_at_least_noc_delay(self):
        tel = Telemetry()
        run_gemm('V4', telemetry=tel)
        # a vload covers request + service + response: several cycles min
        assert tel.hists[HIST_VLOAD].min >= 2

    def test_mimd_run_has_no_vector_histograms(self):
        tel = Telemetry()
        run_gemm('NV', telemetry=tel)
        assert tel.hists[HIST_VLOAD].count == 0
        assert tel.hists[HIST_FRAME].count == 0
        assert tel.hists[HIST_NOC].count > 0  # plain loads still traverse

    @pytest.mark.parametrize('kernel,config', [('mvt', 'V16'),
                                               ('fdtd-2d', 'V4_PCV')])
    def test_frame_slack_pairs_within_one_frame_cfg(self, kernel, config):
        """Kernels that reconfigure their frames restart the sequence at
        0; every started frame is still paired with its own fill."""
        class FrameStarts(Consumer):
            facts = ('frame_cfg', 'frame_start')

            def __init__(self):
                self.records = []

            def attach(self, fabric):  # run_benchmark's `tracer` hook
                fabric.probes.attach(self)

            def fold(self, batches):
                for fact in self.facts:
                    self.records += [(rec[0], fact, rec[1], rec[2])
                                     for rec in batches.get(fact, ())]

        tel, starts = Telemetry(), FrameStarts()
        bench = registry.make(kernel)
        run_benchmark(bench, config, bench.params_for('test'),
                      telemetry=tel, tracer=starts)
        epoch, frames = {}, set()
        for _now, fact, core, seq in sorted(starts.records):
            if fact == 'frame_cfg':
                epoch[core] = epoch.get(core, 0) + 1
            else:
                frames.add((core, epoch[core], seq))
        assert len(epoch) < sum(epoch.values())  # some core reconfigured
        hist = tel.hists[HIST_FRAME]
        assert hist.count == len(frames)
        assert hist.min >= 0

    def test_gpu_histogram(self):
        bench = registry.make('gemm')
        params = bench.params_for('test')
        tel = Telemetry()
        r = run_benchmark(bench, 'GPU', params, telemetry=tel)
        assert r.cycles > 0
        assert tel.hists[HIST_GPU_MEM].count > 0


class TestSpans:
    def test_microthread_and_frame_spans(self):
        tel = Telemetry()
        r = run_gemm('V4', telemetry=tel)
        counts = Counter(s['kind'] for s in tel.spans)
        assert counts['microthread'] > 0
        assert counts['frame'] > 0
        assert counts['wide_access'] > 0
        for s in tel.spans:
            assert 0 <= s['start'] < s['end'] <= r.cycles + 1
            assert s['track'].startswith('core:')

    def test_microthread_spans_match_launch_count(self):
        tel = Telemetry()
        r = run_gemm('V4', telemetry=tel)
        launched = r.stats.total('microthreads')
        assert len([s for s in tel.spans
                    if s['kind'] == 'microthread']) == launched


class TestMetaConfigGuard:
    def test_meta_config_rejects_telemetry(self):
        bench = registry.make('gemm')
        params = bench.params_for('test')
        with pytest.raises(ValueError, match='concrete configuration'):
            run_benchmark(bench, 'BEST_V', params, base_machine=SMALL,
                          telemetry=Telemetry())
