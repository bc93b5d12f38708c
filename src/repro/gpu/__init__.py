"""The GPU (APU) comparator model, paper Section 5.3."""

from __future__ import annotations

from typing import Dict

from .config import DEFAULT_GPU, GpuConfig
from .machine import GpuError, GpuMachine, GpuMemSystem, Wavefront


def run_gpu_benchmark(bench, params: Dict[str, int], verify: bool = True,
                      cfg: GpuConfig = DEFAULT_GPU, telemetry=None):
    """Run one benchmark on the GPU model; returns a harness RunResult.

    ``telemetry`` attaches to the machine and fills the GPU memory
    service-time histogram (the fabric-side samples, gauges and heatmaps
    do not apply).
    """
    from ..harness.runner import RunResult
    from ..manycore.stats import RunStats
    from .kernels import build_launches

    gm = GpuMachine(cfg)
    if telemetry is not None:
        telemetry.attach(gm)
    ws = bench.setup(gm, params)
    launches = build_launches(bench.name, ws, params, cfg)
    for program, entry in launches:
        gm.launch(program, entry)
    if verify:
        bench.verify(gm, ws, params)
    stats = RunStats()
    stats.cycles = gm.cycle
    return RunResult(bench.name, 'GPU', gm.cycle, stats,
                     telemetry=telemetry)


__all__ = ['GpuMachine', 'GpuConfig', 'DEFAULT_GPU', 'GpuError',
           'GpuMemSystem', 'Wavefront', 'run_gpu_benchmark']
