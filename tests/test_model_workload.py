"""Closed-form model: workload geometry and feature math, by hand.

The workload numbers are derived from the vector-template geometry
(`repro.kernels.vector_templates`) on paper and pinned here; if the
templates change shape, the model must be re-derived with them.

``tests/data/workload_golden.json`` pins every modeled kernel's whole
``Workload`` (``dataclasses.asdict``) at test and bench scale under the
four vector group shapes on five machines, compared with ==; a point the
model rejects records the error text.  Regenerate it only when a PR
*means* to change what the model is fed, and says so:

    PYTHONPATH=src python tests/test_model_workload.py --regenerate
"""

import dataclasses
import json
import math
import os
import sys

import pytest

from repro.harness.configs import CONFIGS
from repro.kernels import registry
from repro.manycore import DEFAULT_CONFIG
from repro.model import AnalyticModel, MODELED_KERNELS, build_workload, \
    compute_features
from repro.model.analytic import (FEATURES, InfeasiblePointError,
                                  UnsupportedConfigError,
                                  estimate_energy_pj)
from repro.model.workload import (MimdPhase, VectorPhase, Workload,
                                  WorkloadError)

WORKLOAD_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), 'data',
                                    'workload_golden.json')
#: the default machine plus one excursion along each axis a workload reads
GOLDEN_MACHINES = {
    'default': {},
    'frame_counters=8': {'frame_counters': 8},
    'llc_banks=4': {'llc_banks': 4},
    'noc_width_words=2': {'noc_width_words': 2},
    'cache_line_bytes=128': {'cache_line_bytes': 128},
}
GOLDEN_CASES = [(k, c, s, m) for k in MODELED_KERNELS
                for c in ('V4', 'V16', 'V4_PCV', 'V16_PCV')
                for s in ('test', 'bench') for m in GOLDEN_MACHINES]


def workload_record(kernel, cfg_name, scale, machine_name):
    cfg = CONFIGS[cfg_name]
    eff = cfg.machine(DEFAULT_CONFIG.scaled(**GOLDEN_MACHINES[machine_name]))
    params = registry.make(kernel).params_for(scale)
    try:
        wl = build_workload(kernel, params, eff, cfg.lanes, cfg.pcv)
    except WorkloadError as e:
        return f'WorkloadError: {e}'
    # through JSON, so tuples compare equal to the lists in the file
    return json.loads(json.dumps(dataclasses.asdict(wl)))


def _wl(bench, cfg_name, machine=DEFAULT_CONFIG):
    cfg = CONFIGS[cfg_name]
    eff = cfg.machine(machine)
    params = registry.make(bench).params_for('test')
    return build_workload(bench, params, eff, cfg.lanes, cfg.pcv), eff


@pytest.fixture(scope='module')
def workload_golden():
    with open(WORKLOAD_GOLDEN_PATH) as f:
        return json.load(f)


class TestWorkloadGolden:
    def test_golden_file_covers_every_case(self, workload_golden):
        assert sorted(workload_golden) == sorted(
            '/'.join(case) for case in GOLDEN_CASES)

    @pytest.mark.parametrize('case', GOLDEN_CASES, ids='/'.join)
    def test_workload_matches_golden(self, workload_golden, case):
        assert workload_record(*case) == workload_golden['/'.join(case)]


class TestWorkloadGeometry:
    def test_gemm_v4_matches_template_math(self):
        # gemm test scale: ni=8, nj=16, nk=8; V4 lanes=4, kb=min(4,nk)=4
        wl, eff = _wl('gemm', 'V4')
        assert wl.lanes == 4
        (p,) = wl.phases
        assert isinstance(p, VectorPhase)
        flen, lanes, kb, nterms = p.flen, 4, 4, 1
        # tiles = ni * (nj // (flen * lanes)); frames per tile = nk // kb
        assert p.tiles == 8 * (16 // (flen * lanes))
        assert p.frames_per_tile == 8 // kb
        # frame holds kb B-subrows of flen words + kb A words, per term
        assert p.frame_words == nterms * kb * flen + nterms * kb
        # one response packet per ceil(words/noc_width) per lane stream
        noc = eff.noc_width_words
        assert p.packets_per_frame == \
            nterms * kb * lanes * math.ceil(flen / noc) \
            + nterms * lanes * math.ceil(kb / noc)
        # C write-back w words, plus w read for the beta scaling
        w = flen * lanes
        assert p.store_words_per_tile == 2 * w
        # footprint: A (ni*nk) + B (nk*nj) + C (ni*nj) = 64+128+128
        assert wl.footprint_words >= 8 * 8 + 8 * 16 + 8 * 16

    def test_mvt_is_rowdot_reduce_matmul(self):
        wl, _ = _wl('mvt', 'V4')
        kinds = [type(p).__name__ for p in wl.phases]
        assert kinds == ['VectorPhase', 'MimdPhase', 'VectorPhase']
        assert wl.n_phases == 3

    def test_fdtd_repeats_per_timestep(self):
        wl, _ = _wl('fdtd-2d', 'V4')
        tmax = registry.make('fdtd-2d').params_for('test')['tmax']
        assert wl.repeat == tmax
        assert wl.n_phases == len(wl.phases) * tmax

    def test_every_modeled_kernel_builds_everywhere(self):
        for bench in MODELED_KERNELS:
            for cfg_name in ('V4', 'V16', 'V4_PCV', 'V16_PCV'):
                wl, eff = _wl(bench, cfg_name)
                feats = compute_features(wl, eff)
                assert set(feats) == set(FEATURES)
                for k, v in feats.items():
                    assert v >= 0 and math.isfinite(v), (bench, cfg_name, k)
                assert estimate_energy_pj(wl, eff) > 0


class TestFeatureMath:
    def test_hand_computed_features(self):
        # default machine: 8x8 mesh, 12 four-lane groups, depth 5,
        # 16 banks, hop latency 1, llc hit 1, 2-entry load queue
        wl = Workload(benchmark='x', lanes=4, pcv=False, phases=(
            VectorPhase(name='v', tiles=24, frames_per_tile=2,
                        frame_words=10, flen=2, pcv=False,
                        scalar_per_frame=3, scalar_per_tile=1,
                        mt_per_frame=5, mt_per_tile=2,
                        flops_per_frame=4, packets_per_frame=6,
                        store_words_per_tile=8),
            MimdPhase(name='m', items=64, instrs_per_item=10,
                      loads_per_item=2, stores_per_item=1),
        ), repeat=2, footprint_words=100)
        feats = compute_features(wl, DEFAULT_CONFIG)
        round_trip = 2 * ((8 + 8) / 2) * 1 + 1          # = 17
        assert feats['phase'] == 4                       # 2 phases x 2
        # 2 tiles/group -> 4 frames/group; mt stream (24) > scalar (14)
        assert feats['comp'] == pytest.approx(2 * 24)
        assert feats['fill'] == pytest.approx(2 * 4 * (6 + round_trip) / 5)
        assert feats['llcser'] == pytest.approx(
            2 * (48 * 6 + 24 * 8) / 16)
        assert feats['mimd'] == pytest.approx(
            2 * 1 * (10 + 3 * round_trip / 2))
        assert feats['dram'] == pytest.approx(100 / 4.0)

    def test_unit_coefficients_sum_features(self):
        model = AnalyticModel(
            coefficients={'gemm': {f: 1.0 for f in FEATURES}},
            calibrated=True, label='unit')
        p = model.predict('gemm', 'V4', scale='test')
        assert p.calibrated
        assert p.cycles == pytest.approx(sum(p.features.values()))
        assert p.tiles_used == 12 * 5  # 12 groups of 1 scalar + 4 lanes

    def test_energy_scales_with_repeat(self):
        wl, eff = _wl('gemm', 'V4')
        once = estimate_energy_pj(wl, eff)
        wl2 = Workload(benchmark=wl.benchmark, lanes=wl.lanes,
                       pcv=wl.pcv, phases=wl.phases, repeat=3,
                       footprint_words=wl.footprint_words)
        assert estimate_energy_pj(wl2, eff) == pytest.approx(3 * once)


class TestFeasibility:
    def test_shallow_frame_depth_is_infeasible(self):
        # codegen: inet queue of 2 needs frame_counters >= 4
        model = AnalyticModel.default()
        with pytest.raises(InfeasiblePointError):
            model.predict('gemm', 'V4', scale='test',
                          machine=DEFAULT_CONFIG.scaled(frame_counters=3))

    def test_frame_overflowing_spad_is_infeasible(self):
        # gemm V4 frames are 8 words; depth 5 needs 40 > 32 spad words
        model = AnalyticModel.default()
        with pytest.raises(InfeasiblePointError):
            model.predict('gemm', 'V4', scale='test',
                          machine=DEFAULT_CONFIG.scaled(
                              spad_capacity_bytes=128))

    def test_non_vector_configs_are_unsupported(self):
        model = AnalyticModel.default()
        for cfg in ('NV', 'GPU', 'nope'):
            with pytest.raises(UnsupportedConfigError):
                model.predict('gemm', cfg, scale='test')


if __name__ == '__main__':
    if sys.argv[1:] != ['--regenerate']:
        sys.exit(__doc__)
    doc = {'/'.join(case): workload_record(*case) for case in GOLDEN_CASES}
    with open(WORKLOAD_GOLDEN_PATH, 'w') as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write('\n')
    print(f'wrote {len(doc)} workloads to {WORKLOAD_GOLDEN_PATH}')
