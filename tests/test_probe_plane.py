"""The probe plane's own contract: finalize on raise, backlog, monitors."""

import json

import pytest

from repro.kernels import registry
from repro.kernels.base import VectorParams
from repro.manycore import Fabric, SimulationTimeout
from repro.manycore.llc import LLCBank
from repro.manycore.probes import BACKLOG, FACTS, SWEEP, Consumer
from repro.observe import ObservePlane
from repro.serve import ServeScheduler, generate_trace
from repro.telemetry import Telemetry
from tests.monitors import Monitors


def _load_gemm(fabric):
    bench = registry.make('gemm')
    params = bench.params_for('test')
    ws = bench.setup(fabric, params)
    fabric.load_program(bench.build_vector(
        fabric, ws, params, VectorParams(lanes=4)))


def test_consumers_are_finalized_when_the_run_loop_raises(tmp_path):
    """A timeout used to skip ``_finish_run``: the JSONL sink stayed open
    without its ``final`` record and telemetry lost its closing sample."""
    path = tmp_path / 'metrics.jsonl'
    plane = ObservePlane(interval=500, metrics_out=str(path))
    tel = Telemetry(interval=700)
    fabric = Fabric()
    plane.attach(fabric)
    tel.attach(fabric)
    with pytest.raises(SimulationTimeout):
        ServeScheduler(fabric).run(generate_trace(seed=8, n_requests=4),
                                   max_cycles=3000)
    assert plane._sink is None  # flushed and closed
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert plane.snapshots >= 5
    assert [ln.get('final', False) for ln in lines] == \
        [False] * plane.snapshots + [True]
    assert lines[-1]['metrics'] == plane.registry.snapshot()
    # the closing partial sample: delta sums == final counters
    samples = tel.samples
    assert samples[-1]['cycle'] == fabric.cycle
    assert sum(s['issued'] for s in samples) == sum(
        t.stats.instrs for t in fabric.tiles)
    assert sum(s['llc_accesses'] for s in samples) == \
        fabric.run_stats.mem.llc_accesses


def test_unknown_fact_is_rejected():
    class Typo(Consumer):
        facts = ('llc_acess',)

    with pytest.raises(ValueError, match='llc_acess'):
        Fabric().probes.attach(Typo())


def test_backlog_is_folded_on_the_clock_not_held_to_the_end():
    """No consumer clock at all (no samples, no snapshots): the plane's
    own sweep still bounds how many records (and ``MemRequest``s) queue."""
    peaks = []

    class Watcher(Consumer):
        facts = tuple(f for f in FACTS if f != 'issue')

        def fold(self, batches):
            peaks.append(sum(map(len, batches.values())))

    fabric = Fabric()
    fabric.probes.attach(Watcher())
    _load_gemm(fabric)
    fabric.run()
    assert len(peaks) > 1  # folded mid-run, not only by finalize
    # the bound is soft by what one sweep interval can add
    per_sweep = fabric.cfg.num_cores * SWEEP
    assert max(peaks) <= BACKLOG + per_sweep


def test_monitors_pass_a_clean_run_and_see_every_fact():
    fabric = Fabric()
    monitors = Monitors().attach(fabric)
    _load_gemm(fabric)
    fabric.run()
    assert monitors.records > 1000


def test_a_request_port_that_ignores_its_queue_trips_the_monitor(
        monkeypatch):
    """Seeded mutation, no golden file consulted: a bank whose request
    port forgets ``_req_free`` serves two requests in one cycle."""
    access = LLCBank.access

    def leaky_access(self, req, arrive):
        self._req_free = 0.0
        access(self, req, arrive)

    monkeypatch.setattr(LLCBank, 'access', leaky_access)
    fabric = Fabric()
    Monitors().attach(fabric)
    _load_gemm(fabric)
    with pytest.raises(AssertionError, match='request port served two'):
        fabric.run()
