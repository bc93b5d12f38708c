"""Correctness matrix: every benchmark x every runnable configuration.

Each test simulates one (benchmark, config) pair on a small 4x4 fabric with
scaled-down inputs and verifies the final memory against the numpy
reference — the paper's serial-version check (Section 6.1).
"""

from collections import defaultdict

import pytest

from repro.gpu import DEFAULT_GPU
from repro.gpu import kernels as gpu_kernels
from repro.harness import run_benchmark
from repro.kernels import registry
from repro.kernels.base import (MIMD_EMITTERS, VECTOR_EMITTERS, Benchmark,
                                VectorParams, Workspace)
from repro.manycore import Fabric, small_config
from repro.model.workload import (MODEL_EMITTERS, MODELED_KERNELS,
                                  build_workload)

SMALL = small_config()

#: gramschm is the paper's no-SIMD outlier; PCV configs fall back to its
#: scalar path, so exercising NV/NV_PF/V4 is the meaningful set.
CONFIGS_BY_BENCH = {
    'default': ['NV', 'NV_PF', 'PCV_PF', 'V4', 'V4_PCV'],
    'gramschm': ['NV', 'NV_PF', 'V4'],
    'bfs': ['NV', 'NV_PF', 'V4'],
    '3dconv': ['NV', 'NV_PF', 'V4'],
}


def cases():
    for cls in registry.ALL:
        for cfg in CONFIGS_BY_BENCH.get(cls.name,
                                        CONFIGS_BY_BENCH['default']):
            yield pytest.param(cls, cfg, id=f'{cls.name}-{cfg}')


@pytest.mark.parametrize('bench_cls,config', list(cases()))
def test_kernel_matches_reference(bench_cls, config):
    bench = bench_cls()
    r = run_benchmark(bench, config, bench.test_params, base_machine=SMALL,
                      max_cycles=5_000_000)
    assert r.cycles > 0
    assert r.stats.total_instrs > 0


class TestSuiteShape:
    def test_registry_has_fifteen_polybench(self):
        assert len(registry.POLYBENCH) == 15
        assert len({c.name for c in registry.POLYBENCH}) == 15

    def test_long_line_set_matches_paper(self):
        assert set(registry.LONG_LINE_SET) == {
            '2dconv', 'fdtd-2d', 'gesummv', 'syr2k', 'syrk'}

    def test_make_by_name(self):
        b = registry.make('gemm')
        assert b.name == 'gemm'

    def test_bfs_prefers_mimd(self):
        """Section 6.6: the manycore beats vector groups on irregular bfs."""
        bench = registry.make('bfs')
        nv = run_benchmark(bench, 'NV', bench.test_params,
                           base_machine=SMALL)
        v4 = run_benchmark(bench, 'V4', bench.test_params,
                           base_machine=SMALL)
        assert nv.cycles < v4.cycles

    def test_matvec_prefers_vector(self):
        """bicg-style kernels benefit from group loads (paper Fig 10a)."""
        bench = registry.make('bicg')
        pf = run_benchmark(bench, 'NV_PF', bench.test_params,
                           base_machine=SMALL)
        v4 = run_benchmark(bench, 'V4', bench.test_params,
                           base_machine=SMALL)
        assert v4.cycles < pf.cycles


def _kinds(records):
    """Every phase kind in a phase list, loops flattened."""
    for kind, kw in records:
        if kind == 'loop':
            yield from _kinds(kw['phases'])
        else:
            yield kind


def _declared_kinds(cls):
    bench = cls()
    return set(_kinds(bench.phases(Workspace(bases=defaultdict(int)),
                                   bench.test_params)))


class TestOneDescriptionFourConsumers:
    """Drift guard: a kernel is described once, and every backend's
    ``kind -> emitter`` table covers what the descriptions use."""

    #: hand-written scalar streams and microthreads: no phase list
    HANDWRITTEN = {'gramschm', 'bfs'}

    @pytest.mark.parametrize('cls', registry.ALL, ids=lambda c: c.name)
    def test_declarative_or_fully_handwritten(self, cls):
        declares = cls.phases is not Benchmark.phases
        overrides = [getattr(cls, m) is not getattr(Benchmark, m)
                     for m in ('build_mimd', 'build_vector')]
        if cls.name in self.HANDWRITTEN:
            assert not declares and all(overrides)
            assert cls.name in gpu_kernels._HANDWRITTEN
        else:
            assert declares and not any(overrides)
            assert cls.name not in gpu_kernels._HANDWRITTEN
        assert set(gpu_kernels._HANDWRITTEN) == self.HANDWRITTEN

    def test_every_used_kind_has_an_emitter_in_every_table(self):
        used = set().union(*(_declared_kinds(cls) for cls in registry.ALL
                             if cls.name not in self.HANDWRITTEN))
        # equality, not inclusion: a row no kernel uses is dead code
        for table in (MIMD_EMITTERS, VECTOR_EMITTERS,
                      gpu_kernels.GPU_EMITTERS):
            assert set(table) == used

    @pytest.mark.parametrize('name', MODELED_KERNELS)
    def test_modeled_kernels_are_declarative_and_fully_modelled(self, name):
        cls = registry.BY_NAME[name]
        assert name not in self.HANDWRITTEN
        assert _declared_kinds(cls) <= set(MODEL_EMITTERS)
        assert cls().footprint_words(cls.test_params, lanes=4) > 0

    def test_unknown_kind_names_kernel_and_kind_in_all_four(
            self, monkeypatch):
        bench = registry.make('gemm')
        params = bench.params_for('test')
        fabric = Fabric(SMALL)
        ws = bench.setup(fabric, params)
        monkeypatch.setattr(type(bench), 'phases',
                            lambda self, ws, params: [('warp', {})])
        walkers = [
            lambda: bench.build_mimd(fabric, ws, params, prefetch=False),
            lambda: bench.build_vector(fabric, ws, params, VectorParams()),
            lambda: gpu_kernels.build_launches('gemm', ws, params,
                                               DEFAULT_GPU),
            lambda: build_workload('gemm', params, SMALL, 4, False),
        ]
        for walk in walkers:
            with pytest.raises(ValueError, match="gemm: .*'warp'"):
                walk()
