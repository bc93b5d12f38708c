"""Run benchmarks under configurations and collect results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..kernels.base import Benchmark, VectorParams
from ..manycore import Fabric, MachineConfig, RunStats
from .configs import Config, MetaConfig, get


@dataclass
class RunResult:
    """Everything one simulation produced."""

    benchmark: str
    config: str
    cycles: int
    stats: RunStats
    energy: Optional[object] = None  # EnergyBreakdown, filled by harness
    params: Optional[Dict[str, int]] = None
    machine: Optional[MachineConfig] = None
    telemetry: Optional[object] = None  # repro.telemetry.Telemetry
    source: str = 'simulated'  # 'store' when rehydrated from a ResultStore

    @property
    def icache_accesses(self) -> int:
        return self.stats.total_icache_accesses

    @property
    def instrs(self) -> int:
        return self.stats.total_instrs

    def to_json(self, path: Optional[str] = None) -> dict:
        """Build the schema-checked run-report artifact.

        Includes final counters always, and interval samples / latency
        histograms when the run was executed with a
        :class:`~repro.telemetry.Telemetry` attached.  When ``path`` is
        given the document is also written there as JSON.
        """
        from ..telemetry.report import RUN_REPORT, build_report
        doc = build_report(self)
        if path is not None:
            RUN_REPORT.save(doc, path)
        return doc


class _NullScope:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SCOPE = _NullScope()


def run_benchmark(bench: Benchmark, config, params: Dict[str, int],
                  base_machine: Optional[MachineConfig] = None,
                  verify: bool = True,
                  active_cores: Optional[Sequence[int]] = None,
                  max_cycles: int = 200_000_000,
                  telemetry=None, tracer=None, profiler=None) -> RunResult:
    """Simulate one (benchmark, configuration) pair and verify the output.

    ``config`` may be a name, a :class:`Config`, or a :class:`MetaConfig`
    (in which case members run and the fastest result is returned, renamed).
    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) and ``tracer`` (a
    :class:`repro.manycore.Tracer`) attach to the fabric before the run;
    neither changes simulated timing.  ``profiler`` (a
    :class:`repro.perf.HostProfiler`) additionally attributes *host* wall
    time to components (setup/codegen/run-loop/verify/energy) — the
    run loop credits it at its timing points and simulation results do
    not change.
    """
    if isinstance(config, str):
        config = get(config)
    if isinstance(config, MetaConfig):
        if telemetry is not None or tracer is not None:
            raise ValueError(
                f'telemetry/tracing need one concrete configuration, not '
                f'the meta-config {config.name} (pick one of '
                f'{", ".join(config.members)})')
        best = None
        errors = []
        for member in config.members:
            try:
                r = run_benchmark(bench, member, params, base_machine,
                                  verify, active_cores, max_cycles)
            except ValueError as exc:  # member infeasible on this machine
                errors.append(f'{member}: {exc}')
                continue
            if best is None or r.cycles < best.cycles:
                best = r
        if best is None:
            raise ValueError(f'no member of {config.name} is runnable: '
                             + '; '.join(errors))
        return RunResult(best.benchmark, config.name, best.cycles,
                         best.stats, best.energy, best.params, best.machine)

    machine = config.machine(base_machine)
    if config.kind == 'gpu':
        from ..gpu import run_gpu_benchmark
        r = run_gpu_benchmark(bench, params, verify=verify,
                              telemetry=telemetry)
        r.params = dict(params)
        return r

    fabric = Fabric(machine)
    if telemetry is not None:
        telemetry.attach(fabric)
    if tracer is not None:
        tracer.attach(fabric)
    if profiler is not None:
        profiler.attach(fabric)
    scope = profiler.scope if profiler is not None \
        else (lambda name: _NULL_SCOPE)
    with scope('setup'):
        ws = bench.setup(fabric, params)
    if config.kind == 'mimd':
        with scope('codegen'):
            prog = bench.build_mimd(fabric, ws, params,
                                    prefetch=config.prefetch,
                                    pcv=config.pcv)
            fabric.load_program(prog, active_cores=active_cores)
        stats = fabric.run(max_cycles=max_cycles)
    elif config.kind == 'vector':
        with scope('codegen'):
            vp = VectorParams(lanes=config.lanes, pcv=config.pcv)
            prog = bench.build_vector(fabric, ws, params, vp)
            fabric.load_program(prog, active_cores=active_cores)
        stats = fabric.run(max_cycles=max_cycles)
    else:
        raise ValueError(f'unknown config kind {config.kind!r}')
    if verify:
        with scope('verify'):
            bench.verify(fabric, ws, params)
    from ..energy import compute_energy
    with scope('energy'):
        energy = compute_energy(stats, machine)
    return RunResult(bench.name, config.name, stats.cycles, stats, energy,
                     params=dict(params), machine=machine,
                     telemetry=telemetry)
