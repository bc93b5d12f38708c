"""Wall-clock overhead budget for telemetry + observe (<5% bar).

The instrumented arm attaches one Telemetry: an ObservePlane with its
MetricsRegistry plus the ordered replay, so it folds every fact either
observer folds and the budget covers the full observability stack.

The workload is the quickstart kernel (examples/quickstart.py) scaled
up: the scalar core loops, issuing one group-wide vload and one
microthread per iteration, so every probe family fires continuously —
wide accesses, frame events, microthreads, NoC traversals, LLC queueing
and interval samples.

The budget is certified with the smaller of two noise-robust
estimators, each a consistent estimator of the true ratio that fails
under a different noise mode: **min-of-N over min-of-N** (robust to
symmetric jitter, fooled by slow CPU-speed drift because the two
minima can come from distant time windows) and the **median of
per-pair ratios** (each pair runs the two arms back to back in random
order, so drift and periodic cgroup throttling cancel within the
pair).  Under a real regression both estimators concentrate above the
budget, so the gate stays a reliable tripwire; timings use
``process_time`` (ignores preemption), and the trial count grows until
the budget is met or the cap is reached.  The timed trials run in a
**fresh subprocess** — the same isolation pyperf uses — because a
long-lived test process accumulates heap/allocator state that perturbs
sub-10ms measurements by more than the budget being certified.
"""

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter

from repro.isa import VL_GROUP, opcodes as op
from repro.telemetry import Telemetry
from tests.test_sim_vector import make_group_fabric, vector_program

LANES = 3
FRAME_SIZE = 4
NUM_SLOTS = 8
ITERS = 240  # scalar-loop iterations: ~60ms runs average over the
#              ~100ms cgroup-throttle quota windows seen on shared CI
#              machines, tightening per-pair ratios


def build_workload():
    fabric, tiles, handle = make_group_fabric(lanes=LANES)
    # one cache line per iteration keeps every group vload line-aligned
    stride = fabric.cfg.line_words
    assert stride >= LANES * FRAME_SIZE
    data = [float(i % 7) for i in range(ITERS * stride)]
    src = fabric.alloc(data)
    assert src % stride == 0
    out = fabric.alloc(8)

    def scalar(a):
        a.li('x10', src)
        a.li('x11', 0)                    # rotating frame-slot offset
        a.li('x23', FRAME_SIZE * NUM_SLOTS)
        a.li('x20', 0)
        a.li('x21', ITERS)
        a.bind('qs_loop')
        a.vload('x11', 'x10', 0, FRAME_SIZE, VL_GROUP)
        a.vissue('sum_microthread')
        a.addi('x10', 'x10', stride)
        a.addi('x11', 'x11', FRAME_SIZE)  # next frame slot, with wrap
        a.blt('x11', 'x23', 'qs_nowrap')
        a.li('x11', 0)
        a.bind('qs_nowrap')
        a.addi('x20', 'x20', 1)
        a.blt('x20', 'x21', 'qs_loop')
        a.vissue('store_microthread')

    def mts(a):
        a.bind('sum_microthread')
        a.frame_start('x8')
        for i in range(FRAME_SIZE):
            a.lwsp('f1', 'x8', i)
            a.fadd('f5', 'f5', 'f1')
        a.remem()
        a.vend()
        a.bind('store_microthread')
        a.csrr('x5', op.CSR_TID)
        a.li('x7', out)
        a.add('x7', 'x7', 'x5')
        a.sw('f5', 'x7', 0)
        a.vend()

    fabric.load_program(vector_program(scalar, mts, tiles,
                                       frame_size=FRAME_SIZE))
    return fabric


def run_once(telemetry=None):
    fabric = build_workload()
    if telemetry is not None:
        telemetry.attach(fabric)
    # collect, then keep the collector off inside the timed region
    # (pyperf-style): whether a ~700-object gen-0 threshold happens to
    # trip during a ~30ms run is aliasing noise larger than the budget
    # being certified, not a property of either arm
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        stats = fabric.run()
        dt = time.process_time() - t0
    finally:
        gc.enable()
    return dt, stats.cycles


def measure_overhead():
    """Paired-trial overhead protocol; returns a result dict (JSON-safe)."""
    # warm up interpreter/caches so neither arm pays first-run costs
    run_once()
    run_once(Telemetry(interval=1000))
    rng = random.Random(0x51ab)
    pairs = []  # (base_seconds, telemetry_seconds) per back-to-back pair
    cycles_equal = True
    ratio = float('inf')
    for cap in (7, 15, 25, 40):  # keep adding trials while over budget
        while len(pairs) < cap:
            tel_first = rng.random() < 0.5
            if tel_first:
                tel_dt, tel_cycles = run_once(Telemetry(interval=1000))
            base_dt, base_cycles = run_once()
            if not tel_first:
                tel_dt, tel_cycles = run_once(Telemetry(interval=1000))
            pairs.append((base_dt, tel_dt))
            cycles_equal = cycles_equal and tel_cycles == base_cycles
        min_min = (min(t for _, t in pairs) / min(b for b, _ in pairs))
        med_pair = statistics.median(t / b for b, t in pairs)
        ratio = min(min_min, med_pair)
        if ratio < 1.05:
            break
    return {'base_ms': min(b for b, _ in pairs) * 1e3,
            'tel_ms': min(t for _, t in pairs) * 1e3,
            'min_min': min_min, 'median_pair': med_pair,
            'ratio': ratio, 'trials': len(pairs),
            'cycles_equal': cycles_equal}


def test_workload_exercises_every_probe():
    telemetry = Telemetry(interval=1000)
    _, cycles = run_once(telemetry)
    assert cycles > 3000  # long enough for several 1k-cycle samples
    assert len(telemetry.samples) >= 3
    hists = telemetry.hists
    assert hists['vload_issue_to_last_word'].count == ITERS
    assert hists['frame_fill_to_start'].count > 0
    assert hists['llc_queue_wait_cycles'].count > 0
    assert hists['noc_traversal'].count > 0
    counts = Counter(s['kind'] for s in telemetry.spans)
    assert counts['microthread'] == ITERS + 1  # one per vissue (expander)
    assert counts['frame'] > 0
    assert counts['wide_access'] == ITERS


def test_workload_feeds_the_observe_registry():
    from repro.observe import ObservePlane
    fabric = build_workload()
    plane = ObservePlane(interval=1000)
    plane.attach(fabric)
    fabric.run()
    snap = plane.registry.snapshot()
    wide = snap['mem_requests_total'].get('kind="wide"', 0)
    assert wide == ITERS
    assert snap['noc_words_total'] > 0
    assert snap['frame_words_total'] == ITERS * FRAME_SIZE * LANES
    assert any(v for v in snap['llc_bank_accesses_total'].values())
    assert plane.snapshots >= 3
    assert plane.link_heat.links  # NoC heatmap saw traffic


def test_overhead_under_five_percent():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [os.path.join(root, 'src'), root]
        + [p for p in env.get('PYTHONPATH', '').split(os.pathsep) if p])
    # up to three independent measurement processes: a machine that
    # switches performance modes mid-measurement can push a ~4% true
    # overhead past the gate, but a real regression fails every attempt
    attempts = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            capture_output=True, text=True, env=env, cwd=root, timeout=300)
        assert proc.returncode == 0, (
            f'overhead worker failed:\n{proc.stdout}\n{proc.stderr}')
        res = json.loads(proc.stdout)
        assert res['cycles_equal']  # telemetry never perturbs sim time
        attempts.append(res)
        if res['ratio'] < 1.05:
            break
    best = min(attempts, key=lambda r: r['ratio'])
    assert best['ratio'] < 1.05, (
        f"telemetry overhead {100 * (best['ratio'] - 1):.1f}% exceeds "
        f"the 5% budget in {len(attempts)} measurement processes "
        f"(best attempt: base {best['base_ms']:.1f}ms, telemetry "
        f"{best['tel_ms']:.1f}ms over {best['trials']} paired trials)")


if __name__ == '__main__':
    print(json.dumps(measure_overhead()))
