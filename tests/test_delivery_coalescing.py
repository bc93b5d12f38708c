"""Same-cycle scratchpad delivery coalescing (host-time optimisation).

The simulation-visible contract — identical cycles, instrs, and
delivered data — is covered by the bit-identity of the whole tier-1
suite plus the parallel/serial determinism tests; here we pin the
mechanism itself: one heap event per arrival cycle, append-order drain,
and empty batch state after firing.
"""

import heapq

from repro.harness import run_benchmark
from repro.kernels import registry
from repro.manycore import Fabric


class TestBatching:
    def test_same_cycle_packets_share_one_event(self):
        f = Fabric()
        before = f._seq
        f.post_spad_delivery(7, 0, 0, [1.0, 2.0], False)
        f.post_spad_delivery(7, 1, 4, [3.0], False)
        f.post_spad_delivery(9, 0, 8, [4.0], False)
        assert f._seq == before + 2       # two cycles -> two events
        assert len(f._delivery_batches[7]) == 2
        assert len(f._delivery_batches[9]) == 1

    def test_drain_delivers_in_post_order_and_empties(self):
        f = Fabric()
        f.post_spad_delivery(5, 0, 0, [1.0, 2.0], False)
        f.post_spad_delivery(5, 0, 2, [3.0], False)
        f.post_spad_delivery(5, 1, 0, [9.0], False)
        while f._heap:
            t, seq, fn = heapq.heappop(f._heap)
            if seq in f._pending_events:
                f._pending_events.discard(seq)
                fn(t)
        assert not f._delivery_batches
        assert f.tiles[0].spad.data[0:3] == [1.0, 2.0, 3.0]
        assert f.tiles[1].spad.data[0] == 9.0

    def test_late_drain_pops_by_batch_time(self):
        # an event fired late sees fabric.cycle beyond the posted time;
        # the batch must still resolve by its own key
        f = Fabric()
        f.post_spad_delivery(3, 0, 0, [5.0], False)
        f.cycle = 50
        t, seq, fn = heapq.heappop(f._heap)
        fn(f.cycle)
        assert not f._delivery_batches
        assert f.tiles[0].spad.data[0] == 5.0


class TestEndToEnd:
    def test_run_leaves_no_pending_batches(self):
        bench = registry.make('gemm')
        r = run_benchmark(bench, 'V4', bench.params_for('test'))
        assert r.cycles > 0  # verified against numpy inside the runner

    def test_profiler_attributes_batches_to_frames(self):
        from repro.perf import HostProfiler
        bench = registry.make('gemm')
        profiler = HostProfiler()
        run_benchmark(bench, 'V4', bench.params_for('test'),
                      profiler=profiler)
        # frame deliveries ran through the coalesced path and are
        # still attributed to the 'frames' component
        assert profiler.seconds.get('frames', 0.0) > 0.0
