"""Mid-simulation group re-formation on overlapping tiles.

One fabric, no reset between requests: a group forms, runs a kernel,
disbands (devec + halt), and a *different-shaped* group forms on
overlapping tiles and runs a different kernel.  Both outputs must match
their numpy references.
"""

import numpy as np

from repro.kernels import registry
from repro.manycore import Fabric
from repro.serve import DONE, KernelRequest, ServeScheduler, request_outputs
from repro.spans import track_index


def _cores(result) -> dict:
    """request -> {core: group} from the run's request-occupancy spans."""
    out = {}
    for s in result.spans:
        out.setdefault(s['attrs']['request'], {})[
            track_index(s['track'])] = s['attrs']['group']
    return out


def _req(i, kernel, lanes, groups, arrival):
    params = registry.make(kernel).params_for('test')
    return KernelRequest(req_id=i, kernel=kernel, params=params,
                         lanes=lanes, groups=groups, arrival=arrival)


class TestGroupReformation:
    def test_reformed_group_shape_on_overlapping_tiles(self):
        # 2 groups of V4 (10 tiles), then — after they disband — 1 group
        # of V8 (9 tiles) reusing the same serpentine run
        requests = [_req(0, 'mvt', lanes=4, groups=2, arrival=0),
                    _req(1, 'atax', lanes=8, groups=1, arrival=1)]
        fabric = Fabric()
        scheduler = ServeScheduler(fabric)

        # make the overlap forced, not incidental: leave no second slot
        # by shrinking the allocator to exactly one group's worth of tiles
        scheduler.allocator._free = [(0, 10)]
        scheduler.allocator.num_tiles = 10

        result = scheduler.run(requests)
        by_id = {r.req_id: r for r in result.requests}
        assert by_id[0].state == DONE and by_id[1].state == DONE
        # the second request waited for the first region to be reclaimed
        assert by_id[1].launched_at >= by_id[0].finished_at

        # the two jobs really overlapped in tiles, with different shapes
        cores = _cores(result)
        cores0, cores1 = cores[0], cores[1]
        overlap = set(cores0) & set(cores1)
        assert overlap, 'regions must share tiles'
        assert len(set(cores0.values())) == 2   # two V4 groups
        assert len(set(cores1.values())) == 1   # one V8 group

        # both kernels computed their numpy reference on the shared state
        for rid, kernel in ((0, 'mvt'), (1, 'atax')):
            req = by_id[rid]
            got = request_outputs(fabric, req)
            bench = registry.make(kernel)
            want = bench.expected(req._ws, req.params)
            for name, arr in want.items():
                np.testing.assert_allclose(
                    got[name], np.asarray(arr, dtype=float).ravel(),
                    rtol=1e-6, atol=1e-6,
                    err_msg=f'request {rid} array {name!r}')

    def test_three_way_reshaping_on_one_region(self):
        """V4x1 -> V8x1 -> V4x2 on the same tiles, sequentially."""
        requests = [_req(0, 'gesummv', lanes=4, groups=1, arrival=0),
                    _req(1, 'mvt', lanes=8, groups=1, arrival=1),
                    _req(2, 'atax', lanes=4, groups=2, arrival=2)]
        fabric = Fabric()
        scheduler = ServeScheduler(fabric)
        scheduler.allocator._free = [(0, 10)]
        scheduler.allocator.num_tiles = 10
        result = scheduler.run(requests)
        assert all(r.state == DONE for r in result.requests)
        launches = [r.launched_at for r in result.requests]
        assert launches == sorted(launches)
        cores = _cores(result)
        assert set(cores[0]) & set(cores[1])
        assert set(cores[1]) & set(cores[2])
