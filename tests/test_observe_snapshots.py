"""Observe-plane snapshot monotonicity and final-state fidelity.

ISSUE 5 satellite: JSONL snapshot cycle stamps are strictly increasing,
and the final record matches the end-of-run registry state exactly.
"""

import json

from repro.kernels import registry
from repro.manycore import Fabric
from repro.observe import ObservePlane
from repro.serve import KernelRequest, ServeScheduler


def _requests():
    out = []
    for i, (kernel, arrival) in enumerate(
            [('mvt', 0), ('gesummv', 60), ('atax', 150)]):
        params = registry.make(kernel).params_for('test')
        out.append(KernelRequest(req_id=i, kernel=kernel, params=params,
                                 lanes=4, groups=1, arrival=arrival))
    return out


def _serve_with_plane(tmp_path, interval=500):
    path = tmp_path / 'metrics.jsonl'
    plane = ObservePlane(interval=interval,
                         metrics_out=str(path))
    fabric = Fabric()
    plane.attach(fabric)
    ServeScheduler(fabric).run(_requests())
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    return plane, lines


def test_snapshot_cycles_strictly_increasing(tmp_path):
    plane, lines = _serve_with_plane(tmp_path)
    periodic = [ln for ln in lines if not ln.get('final')]
    assert len(periodic) >= 2, 'run too short to observe periodicity'
    cycles = [ln['cycle'] for ln in periodic]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == len(cycles), f'duplicate stamps: {cycles}'
    assert plane.snapshots == len(periodic)


def test_final_record_matches_registry_state(tmp_path):
    plane, lines = _serve_with_plane(tmp_path)
    final = lines[-1]
    assert final.get('final') is True
    assert final['metrics'] == plane.registry.snapshot()
    assert final['heatmaps'] == plane.heatmaps_dict()
    # the final record never stamps earlier than the last periodic one
    periodic = [ln['cycle'] for ln in lines if not ln.get('final')]
    assert final['cycle'] >= periodic[-1]


def test_finalize_on_snapshot_boundary_does_not_duplicate(tmp_path):
    path = tmp_path / 'm.jsonl'
    plane = ObservePlane(interval=100, metrics_out=str(path))
    plane.attach(Fabric())
    plane.take(100)
    assert plane.snapshots == 1
    plane.take(100)  # same cycle again: refresh, no new stamp
    assert plane.snapshots == 1
    plane.finalize(100)
    assert plane.snapshots == 1
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    stamps = [ln['cycle'] for ln in lines if not ln.get('final')]
    assert stamps == [100]
    assert lines[-1].get('final') is True
    assert 'metrics' in lines[-1]


def test_monotone_without_sink(tmp_path):
    # the counter-based invariant holds with no JSONL sink attached
    plane = ObservePlane(interval=700)
    fabric = Fabric()
    plane.attach(fabric)
    ServeScheduler(fabric).run(_requests())
    assert plane.snapshots >= 2
    assert plane._last_cycle == fabric.cycle


def test_unwatched_plane_defers_its_drains_but_ends_identical():
    """With no sink and no callback, periodic snapshots only stamp their
    cycle; finalize folds the queued records in one batch."""
    def run(on_snapshot):
        plane = ObservePlane(interval=500, on_snapshot=on_snapshot)
        fabric = Fabric()
        plane.attach(fabric)
        ServeScheduler(fabric).run(_requests())
        return plane

    seen = []
    watched = run(lambda plane, now: seen.append(
        plane.registry.snapshot()['noc_words_total']))
    idle = run(None)
    assert seen == sorted(seen) and seen[-1] > seen[0]  # live mid-run
    assert idle.snapshots == watched.snapshots == len(seen)
    assert idle.registry.snapshot() == watched.registry.snapshot()
    assert idle.heatmaps_dict() == watched.heatmaps_dict()
