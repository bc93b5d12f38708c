"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``<command> --help``
their flags; docs/cli.md tabulates every command's exit codes.
"""

from __future__ import annotations

import argparse
import os
import sys


class _Exit(Exception):
    """A command's failure: ``main`` prints the text, if any, to stderr
    and returns the code."""

    def __init__(self, code, message=''):
        super().__init__(message)
        self.code = code


def _loaded(load, path, what='report'):
    """``load(path)``; an invalid artifact file is exit 1, one line."""
    from .artifact import ReportValidationError
    try:
        return load(path)
    except ReportValidationError as exc:
        raise _Exit(1, f'invalid {what}: {exc}') from None


def _save_report(doc, path):
    from .artifact import REGISTRY
    REGISTRY[doc['kind']].save(doc, path)


def _load_slo_policy(path):
    """The ``--slo`` policy (None without the flag); exit 2 if invalid."""
    if not path:
        return None
    from .observe import SloPolicy
    try:
        return SloPolicy.load(path)
    except (OSError, ValueError) as exc:
        raise _Exit(2, f'{path}: invalid SLO policy: {exc}') from None


def _request_verdict(records, slo=None):
    """The exit of ``serve``, ``top`` and ``fleet``: 1 listing every
    failed or timed-out request, else 2 when the SLO failed, else 0."""
    from .serve import FAILED, TIMED_OUT
    bad = [f'request {r["req_id"]} ({r["kernel"]}) {r["state"].upper()}: '
           f'{r.get("error") or ""}'
           for r in records if r['state'] in (FAILED, TIMED_OUT)]
    if bad:
        raise _Exit(1, '\n'.join(bad))
    if slo and slo['status'] == 'fail':
        raise _Exit(2, 'SLO: FAIL')


def cmd_list(args):
    from .harness.configs import CONFIGS, META_CONFIGS
    from .kernels import registry
    print('benchmarks:')
    for cls in registry.ALL:
        b = cls()
        print(f'  {b.name:10s} bench={b.bench_params}')
    print('configurations:')
    for name in CONFIGS:
        print(f'  {name}')
    for name in META_CONFIGS:
        print(f'  {name} (meta)')


def _check_point(benchmark, config):
    """A benchmark or configuration name nobody registered is exit 1,
    one line."""
    from .harness.configs import CONFIGS, META_CONFIGS
    from .kernels.registry import BY_NAME
    for what, name, names in (('benchmark', benchmark, BY_NAME),
                              ('configuration', config,
                               (*CONFIGS, *META_CONFIGS))):
        if name not in names:
            raise _Exit(1, f'unknown {what} {name!r} '
                           f'(known: {", ".join(names)})')


def cmd_run(args):
    from .harness import run_benchmark
    from .kernels import registry
    _check_point(args.benchmark, args.config)
    bench = registry.make(args.benchmark)
    params = bench.params_for(args.scale)
    telemetry = tracer = profiler = None
    if args.report or args.trace:
        from .telemetry import Telemetry
        telemetry = Telemetry(interval=args.sample_interval,
                              per_core_samples=args.per_core_samples)
    if args.trace:
        from .manycore import Tracer
        tracer = Tracer(limit=args.trace_limit)
    if args.self_profile or args.flamegraph or args.deep_profile:
        from .perf import HostProfiler
        profiler = HostProfiler(deep=args.deep_profile)
    r = run_benchmark(bench, args.config, params, telemetry=telemetry,
                      tracer=tracer, profiler=profiler)
    print(f'{bench.name} / {r.config}  params={params}')
    print(f'  cycles        {r.cycles}')
    print(f'  instructions  {r.instrs}')
    print(f'  icache        {r.icache_accesses}')
    if r.energy is not None:
        print(f'  energy        {r.energy.on_chip_total / 1e6:.3f} uJ '
              f'on-chip (+{r.energy.dram / 1e6:.3f} uJ DRAM)')
    print('  verified against the numpy reference')
    if args.report:
        r.to_json(args.report)
        print(f'  report        {args.report} (schema-valid)')
    if args.trace:
        from .spans import to_chrome_trace, write_trace
        doc = write_trace(to_chrome_trace(tracer=tracer,
                                          telemetry=telemetry), args.trace)
        print(f'  trace         {args.trace} '
              f'({len(doc["traceEvents"])} events; load in '
              f'ui.perfetto.dev)')
    if profiler is not None:
        print(profiler.render())
        if args.deep_profile:
            print(profiler.render_top())
        if args.flamegraph:
            profiler.write_collapsed(args.flamegraph)
            print(f'  flamegraph    {args.flamegraph} (collapsed stacks; '
                  f'feed to flamegraph.pl or speedscope)')


def cmd_version(args):
    from . import __version__
    from .jobs.spec import CODE_VERSION, code_version_hash, machine_hash
    from .manycore import DEFAULT_CONFIG
    print(f'repro {__version__}')
    print(f'  code-version salt   {CODE_VERSION} '
          f'(hash {code_version_hash()})')
    print(f'  default machine     {machine_hash(DEFAULT_CONFIG)}')


def _served_requests(args):
    """``serve``/``top``'s requests: the trace file, or a seeded trace."""
    from .serve import generate_trace, load_trace
    if args.trace_file:
        return load_trace(args.trace_file)
    return generate_trace(seed=args.seed, n_requests=args.requests,
                          scale=args.scale, timeout=args.timeout)


def cmd_serve(args):
    from .manycore import Fabric
    from .serve import (ServeScheduler, build_serve_report,
                        render_serve_report, save_trace, store_serve_report)
    requests = _served_requests(args)
    if args.save_trace:
        save_trace(args.save_trace, requests)
        print(f'trace: {args.save_trace} ({len(requests)} requests)')
    policy = _load_slo_policy(args.slo)
    fabric = Fabric()
    plane = None
    if args.metrics_out or args.heatmaps:
        from .observe import ObservePlane
        plane = ObservePlane(interval=args.snapshot_interval,
                             metrics_out=args.metrics_out).attach(fabric)
    result = ServeScheduler(fabric).run(requests)
    doc = build_serve_report(result,
                             seed=None if args.trace_file else args.seed,
                             slo=policy, observe=plane)
    print(render_serve_report(doc))
    if args.metrics_out:
        print(f'metrics: {args.metrics_out} '
              f'({plane.snapshots} JSONL snapshots)')
    if args.heatmaps:
        print(plane.render_heatmaps())
    if args.report:
        _save_report(doc, args.report)
        print(f'report: {args.report} (schema-valid)')
    if args.store:
        from .jobs import ResultStore
        key = store_serve_report(ResultStore(args.store), doc)
        print(f'stored: {args.store}/{key}.json')
    if args.perfetto:
        from .spans import to_chrome_trace, write_trace
        tdoc = write_trace(to_chrome_trace(fabric=fabric,
                                           spans=result.spans),
                           args.perfetto)
        print(f'perfetto trace: {args.perfetto} '
              f'({len(tdoc["traceEvents"])} events)')
    _request_verdict(doc['requests'], doc.get('slo'))


def _crashes(specs):
    """The ``--crash SHARD@EPOCH`` pairs; anything else is exit 2."""
    import re
    crashes = []
    for spec in specs or ():
        m = re.fullmatch(r'(\d+)@(\d+)', spec)
        if m is None:
            raise _Exit(2, f'--crash wants SHARD@EPOCH, got {spec!r}')
        crashes.append((int(m[1]), int(m[2])))
    return tuple(crashes)


def cmd_fleet(args):
    import json
    from .fleet import (AutoscalePolicy, Autoscaler, FleetConfig,
                        FleetRouter, build_fleet_report,
                        render_fleet_report)
    from .serve import load_trace, open_loop_trace
    autoscaler = None
    if args.autoscale:
        try:
            policy = (AutoscalePolicy() if args.autoscale == 'default'
                      else AutoscalePolicy.load(args.autoscale))
        except (OSError, TypeError, ValueError,
                json.JSONDecodeError) as exc:
            raise _Exit(2, f'{args.autoscale}: invalid autoscale policy: '
                           f'{exc}') from None
        autoscaler = Autoscaler(policy)
    slo_policy = _load_slo_policy(args.slo)
    crashes = _crashes(args.crash)
    if args.trace_file:
        trace = load_trace(args.trace_file)
        seed = pattern = None
    else:
        trace = open_loop_trace(
            seed=args.seed, n_requests=args.requests,
            pattern=args.pattern, scale=args.scale,
            mean_interarrival=4000, timeout=args.timeout)
        seed, pattern = args.seed, args.pattern
    flight = None
    if args.flight:
        from .flight import FleetFlight
        os.makedirs(args.flight, exist_ok=True)
        flight = FleetFlight(label=args.flight_label, out_dir=args.flight,
                             ring_capacity=args.flight_ring)
    if args.shard_metrics_dir:
        os.makedirs(args.shard_metrics_dir, exist_ok=True)
    cfg = FleetConfig(
        shards=args.shards, epoch_cycles=args.epoch_cycles,
        shard_queue_cap=args.shard_queue_cap, max_queue=args.max_queue,
        affinity=not args.no_affinity, workers=args.workers,
        timeout=args.worker_timeout, crashes=crashes,
        shard_metrics_dir=args.shard_metrics_dir,
        snapshot_interval=args.snapshot_interval)
    router = FleetRouter(cfg, autoscaler=autoscaler, flight=flight)
    result = router.run(iter(trace))
    doc = build_fleet_report(result, pattern=pattern, seed=seed,
                             slo=slo_policy)
    print(render_fleet_report(doc))
    if flight is not None:
        print(flight.conclude(doc.get('slo'), result.final_cycle))
    if args.metrics_out:
        with open(args.metrics_out, 'w') as f:
            for row in result.epoch_log:
                f.write(json.dumps(row) + '\n')
        print(f'metrics: {args.metrics_out} '
              f'({len(result.epoch_log)} epoch snapshots)')
    if args.report:
        _save_report(doc, args.report)
        print(f'report: {args.report} (schema-valid, '
              f'conservation-checked)')
    _request_verdict(doc['requests'], doc.get('slo'))


def cmd_top(args):
    from .observe.top import run_fleet_top, run_top
    if args.fleet:
        if not os.path.isdir(args.fleet):
            raise _Exit(2, f'{args.fleet}: not a directory')
        run_fleet_top(args.fleet)
        print(f'rendered 1 fleet frame(s) from {args.fleet}')
        return
    result = run_top(_served_requests(args), refresh=args.refresh,
                     metrics_out=args.metrics_out)
    print(f'served {len(result.requests)} request(s) in '
          f'{result.makespan} cycles over {result.dashboard.frames} '
          f'dashboard frame(s): {result.by_state()}')
    _request_verdict(map(vars, result.requests))


def _journal(path):
    """``(header, spans, anomalies)`` of a flight journal; an unreadable
    or invalid one is exit 1."""
    from .flight import JournalError, read_journal
    try:
        return read_journal(path)
    except (OSError, JournalError) as exc:
        raise _Exit(1, f'INVALID journal: {exc}') from None


def _one_trace(args, spans):
    """The spans of ``--trace-id``; none at all is exit 1."""
    subset = [s for s in spans if s['trace_id'] == args.trace_id]
    if not subset:
        raise _Exit(1, f'{args.journal}: no spans for trace_id '
                       f'{args.trace_id!r}')
    return subset


def cmd_trace_merge(args):
    from .flight import write_merged_trace
    spans, anomalies = [], []
    label = 'fleet'
    for path in args.journals:
        header, s, a = _journal(path)
        label = header.get('label', label)
        spans.extend(s)
        anomalies.extend(a)
    doc = write_merged_trace(args.out, spans, anomalies, label)
    traces = {s['trace_id'] for s in spans}
    print(f'merged trace: {args.out} '
          f'({len(doc["traceEvents"])} events, {len(traces)} '
          f'trace(s) from {len(args.journals)} journal(s))')


def cmd_trace_export(args):
    from .flight import write_merged_trace
    header, spans, _ = _journal(args.journal)
    doc = write_merged_trace(args.out, _one_trace(args, spans), [],
                             header.get('label', 'fleet'))
    print(f'exported trace {args.trace_id}: {args.out} '
          f'({len(doc["traceEvents"])} events)')


def cmd_trace_inspect(args):
    from .flight import check_continuity, render_tree
    _, spans, anomalies = _journal(args.journal)
    if args.trace_id is not None:
        spans = _one_trace(args, spans)
    verdicts = check_continuity(spans)
    for tid in sorted(verdicts):
        print(render_tree(spans, tid))
    broken = [v for v in verdicts.values() if not v['continuous']]
    print(f'{len(verdicts)} trace(s), '
          f'{len(verdicts) - len(broken)} continuous, '
          f'{len(broken)} broken; {len(anomalies)} anomaly event(s)')
    if broken:
        raise _Exit(2, '\n'.join(
            f'DISCONTINUOUS {v["trace_id"]}: '
            f'gaps {v["gaps"]} {v.get("error", "")}'.rstrip()
            for v in broken))


def cmd_report(args):
    """``report``, ``dse report`` and ``postmortem dump``."""
    from .artifact import REGISTRY, load_any
    doc = _loaded(load_any, args.file)
    print(REGISTRY[doc['kind']].render(doc))


def cmd_postmortem_validate(args):
    from .artifact import load_any
    doc = _loaded(load_any, args.file)
    print(f'{args.file}: valid {doc["kind"]} '
          f'(schema v{doc["schema_version"]})')


def cmd_compare(args):
    from .telemetry import compare_reports, load_report
    a = _loaded(load_report, args.a)
    b = _loaded(load_report, args.b)
    text, regressed = compare_reports(a, b, threshold=args.threshold)
    print(text)
    if regressed:
        raise _Exit(2)


# a copy of repro.harness.figures.FIGURES' names, so --help imports no
# kernel; tests/test_experiments_cli.py asserts the two sets are equal
FIGURE_NAMES = ('fig10a', 'fig10b', 'fig10c', 'fig11', 'fig14a', 'fig14b',
                'fig14c', 'fig15c', 'fig16', 'fig17a', 'fig17b', 'fig17c',
                'bfs')


def _open_store(path):
    if not path:
        return None
    from .jobs import ResultStore
    return ResultStore(path)


def _progress(outcome, done, total):
    extra = f' [{outcome.status}]' if outcome.status != 'done' else ''
    print(f'  [{done}/{total}] {outcome.spec.label()}'
          f' ({outcome.elapsed:.1f}s){extra}', flush=True)


def cmd_figure(args):
    from .harness import figures as F
    store = _open_store(args.store)
    cache = F.ResultCache(scale=args.scale, store=store)
    if args.jobs > 1:
        from .jobs import SweepEngine, any_failed, plan_figures, \
            render_summary
        specs = plan_figures([args.name], scale=args.scale)
        engine = SweepEngine(jobs=args.jobs, store=store,
                             progress=_progress)
        outcomes = engine.execute(specs)
        if any_failed(outcomes):
            raise _Exit(1, render_summary(outcomes))
        for o in outcomes:
            cache.prime(o.spec, o.result)
    fn = getattr(F, F.FIGURES[args.name])
    series = fn(cache)
    print(series.render())


def cmd_experiment(args):
    from .harness.experiments import run_experiment
    result = run_experiment(args.file, jobs=args.jobs,
                            store=_open_store(args.store),
                            progress=_progress if args.jobs > 1 else None)
    print(result.render())


def cmd_sweep(args):
    import time
    from .harness import figures as F
    from .jobs import (ResultStore, SweepEngine, SweepManifest, any_failed,
                       build_sweep_report, plan_figures, render_summary)
    store = ResultStore(args.store)
    benches = args.benches.split(',') if args.benches else None
    t0 = time.monotonic()
    if args.resume:
        try:
            manifest = SweepManifest.load(args.manifest)
        except (OSError, ValueError) as exc:
            raise _Exit(2, f'cannot resume: {exc}') from None
        specs = manifest.pending()
        print(f'resuming {manifest.name}: {len(specs)} of '
              f'{len(manifest.entries)} job(s) still pending')
    else:
        specs = plan_figures(args.figures, scale=args.scale,
                             benches=benches)
        manifest = SweepManifest(name='+'.join(args.figures), specs=specs,
                                 path=args.manifest)
        manifest.save()
        print(f'planned {len(specs)} job(s) across '
              f'{len(args.figures)} figure(s)')
    engine = SweepEngine(jobs=args.jobs, timeout=args.timeout,
                         retries=args.retries, store=store,
                         use_cache=not args.no_cache, progress=_progress)
    outcomes = engine.execute(specs, manifest=manifest)
    manifest.save()
    print(render_summary(outcomes, store=store))
    print(f'launched {engine.launched} worker(s); '
          f'manifest: {manifest.path}')
    if args.report:
        doc = build_sweep_report(outcomes, name=manifest.name,
                                 launched=engine.launched,
                                 elapsed=time.monotonic() - t0)
        _save_report(doc, args.report)
        print(f'sweep report: {args.report}')
    if any_failed(outcomes):
        raise _Exit(1)
    if args.render:
        cache = F.ResultCache(scale=args.scale, store=store)
        for name in args.figures:
            fn = getattr(F, F.FIGURES[name])
            kwargs = {'benches': benches} if benches and name != 'bfs' \
                else {}
            print()
            print(fn(cache, **kwargs).render())


def _dse_load_model(calib):
    """The analytical model for a dse subcommand: calibrated or priors."""
    from .model import AnalyticModel, load_calib_report
    if calib:
        return AnalyticModel.from_calibration(
            _loaded(load_calib_report, calib, 'calibration report'))
    print('warning: no --calib given; predictions use uncalibrated '
          'priors', file=sys.stderr)
    return AnalyticModel.default()


def _csv(value, default, cast=str):
    """A comma-list flag's values, or ``default`` without the flag."""
    return [cast(v) for v in value.split(',')] if value else list(default)


def cmd_dse_calibrate(args):
    from .jobs import ResultStore, SweepEngine, any_failed, render_summary
    from .model import calibrate as C
    from .model.analytic import ModelError
    try:
        kernels = _csv(args.kernels, C.SMOKE_KERNELS if args.smoke
                       else C.DEFAULT_KERNELS)
        configs = _csv(args.configs, C.DEFAULT_CONFIGS)
        depths = _csv(args.depths, C.DEFAULT_DEPTHS, int)
        banks = _csv(args.banks, C.DEFAULT_BANKS, int)
        specs = C.calibration_specs(kernels, scale=args.scale,
                                    configs=configs, depths=depths,
                                    banks=banks)
    except ValueError as exc:
        raise _Exit(1, str(exc)) from None
    print(f'calibration suite: {len(kernels)} kernel(s) x '
          f'{len(specs) // max(1, len(kernels))} config point(s) '
          f'= {len(specs)} ground-truth job(s)')
    store = ResultStore(args.store)
    engine = SweepEngine(jobs=args.jobs, timeout=args.timeout, store=store,
                         use_cache=not args.no_cache, progress=_progress)
    outcomes = engine.execute(specs)
    print(render_summary(outcomes, store=store))
    if any_failed(outcomes):
        raise _Exit(1)
    suite = {'kernels': kernels, 'configs': configs,
             'depths': depths, 'banks': banks, 'scale': args.scale}
    try:
        doc = C.run_calibration(outcomes, label=args.label, suite=suite)
    except ModelError as exc:
        raise _Exit(1, str(exc)) from None
    print(C.render_calib_report(doc))
    out = args.out or C.calib_path(args.label)
    C.save_calib_report(doc, out)
    print(f'calibration report: {out} (schema-valid)')
    mape = doc['overall']['median_ape_pct']
    if args.max_mape is not None and mape > args.max_mape:
        raise _Exit(2, f'calibration gate: FAIL — median APE {mape:.1f}% '
                       f'exceeds {args.max_mape:g}%')


def cmd_dse_explore(args):
    from .dse import (AXES_BY_NAME, DseError, dse_path, render_dse_report,
                      run_dse, save_dse_report)
    from .model.analytic import ModelError
    model = _dse_load_model(args.calib)
    store = None if args.no_simulate else _open_store(args.store)
    try:
        doc = run_dse(model, args.benchmark, axes=AXES_BY_NAME[args.space],
                      scale=args.scale, simulate=not args.no_simulate,
                      jobs=args.jobs, store=store, timeout=args.timeout,
                      use_cache=not args.no_cache, label=args.label,
                      progress=_progress, log=print)
    except (DseError, ModelError, KeyError) as exc:
        raise _Exit(1, f'dse explore: {exc}') from None
    print(render_dse_report(doc))
    out = args.out or dse_path(args.label)
    save_dse_report(doc, out)
    print(f'dse report: {out} (schema-valid)')
    if doc['triage'].get('n_sim_failed', 0):
        raise _Exit(1)


#: ``dse predict``'s machine overrides: flag, the ``MachineConfig``
#: field it sets, metavar, help
_MACHINE_FLAGS = (('--frame-counters', 'frame_counters', 'N', None),
                  ('--llc-banks', 'llc_banks', 'N', None),
                  ('--noc-width', 'noc_width_words', 'W',
                   'NoC link width in words'))


def cmd_dse_predict(args):
    from .manycore import DEFAULT_CONFIG
    from .model.analytic import ModelError
    _check_point(args.benchmark, args.config)
    model = _dse_load_model(args.calib)
    overrides = {field: getattr(args, field)
                 for _, field, _, _ in _MACHINE_FLAGS
                 if getattr(args, field) is not None}
    machine = DEFAULT_CONFIG.scaled(**overrides) if overrides else None
    try:
        p = model.predict(args.benchmark, args.config, scale=args.scale,
                          machine=machine)
    except (ModelError, KeyError, ValueError) as exc:
        raise _Exit(1, str(exc)) from None
    tag = '' if p.calibrated else ' (uncalibrated priors)'
    print(f'{p.benchmark} / {p.config} @{args.scale}{tag}')
    print(f'  predicted cycles  {p.cycles:.1f}')
    print(f'  predicted energy  {p.energy_pj / 1e6:.3f} uJ on-chip')
    print(f'  tiles used        {p.tiles_used}')
    feats = '  '.join(f'{k}={v:.1f}' for k, v in p.features.items())
    print(f'  features          {feats}')


def _add_trace_args(p, requests, noun='trace'):
    """The generated-trace flags ``serve``, ``fleet`` and ``top`` share."""
    p.add_argument('--seed', type=int, default=0, metavar='N',
                   help=f'{noun}-generator seed (default 0)')
    p.add_argument('--requests', type=int, default=requests, metavar='N',
                   help=f'generated {noun} length (default {requests})')
    p.add_argument('--scale', choices=('test', 'bench'), default='test',
                   help='problem sizes for generated requests '
                        '(default test)')
    p.add_argument('--timeout', type=int, default=None, metavar='CYCLES',
                   help='per-request deadline measured from arrival')


#: flags several commands declare: the worker-pool flags of ``sweep``,
#: ``dse calibrate`` and ``dse explore``, and the ``--calib`` of
#: ``dse explore`` and ``dse predict``
_SHARED_ARGS = {
    '--store': dict(default='.repro-store', metavar='DIR',
                    help='result store directory (default .repro-store)'),
    '--jobs': dict(type=int, default=1, metavar='N',
                   help='max concurrent worker processes (default 1)'),
    '--timeout': dict(type=float, default=None, metavar='SEC',
                      help='per-job wall-clock timeout in seconds'),
    '--no-cache': dict(action='store_true',
                       help='ignore store hits; recompute (and overwrite) '
                            'every point'),
    '--calib': dict(metavar='CALIB.json',
                    help='calibration artifact (omit for rough '
                         'uncalibrated priors)'),
}


def _add_shared_args(p, *flags):
    """Declare ``flags`` from :data:`_SHARED_ARGS`, in the order given."""
    for flag in flags:
        p.add_argument(flag, **_SHARED_ARGS[flag])


def _add_dse_artifact_args(p, prefix):
    """``--label``, ``--out`` and the worker-pool flags of a ``dse``
    command that writes ``<prefix>_<label>.json``."""
    p.add_argument('--label', default='local',
                   help='label embedded in the artifact and its '
                        'default filename (default local)')
    p.add_argument('--out', metavar='OUT.json',
                   help=f'artifact path (default {prefix}_<label>.json)')
    _add_shared_args(p, '--store', '--jobs', '--timeout', '--no-cache')


def _command(sub, name, handler, **kw):
    """A leaf command's parser, carrying the handler ``main`` calls."""
    p = sub.add_parser(name, **kw)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='repro',
        description='Rockcress (MICRO 2021) reproduction CLI')
    sub = parser.add_subparsers(dest='command', required=True)

    _command(sub, 'list', cmd_list, help='show benchmarks and '
                                         'configurations')

    p = _command(sub, 'run', cmd_run,
                 help='simulate one benchmark/configuration')
    p.add_argument('benchmark')
    p.add_argument('config')
    p.add_argument('--scale', choices=('test', 'bench'), default='bench')
    p.add_argument('--report', metavar='OUT.json',
                   help='enable telemetry; write the run-report artifact')
    p.add_argument('--trace', metavar='OUT.json',
                   help='enable telemetry + tracing; write a Perfetto '
                        '(Chrome trace-event) JSON')
    p.add_argument('--sample-interval', type=int, default=1000,
                   metavar='N', help='cycles between interval samples '
                                     '(default 1000; 0 disables sampling)')
    p.add_argument('--per-core-samples', action='store_true',
                   help='record per-core stall deltas in every sample')
    p.add_argument('--trace-limit', type=int, default=200_000,
                   help='max traced instructions (default 200000)')
    p.add_argument('--self-profile', action='store_true',
                   help='attribute host wall time to simulator '
                        'components (see docs/perf.md)')
    p.add_argument('--deep-profile', action='store_true',
                   help='also wrap the run in cProfile and print the '
                        'top hot functions (slower)')
    p.add_argument('--flamegraph', metavar='OUT.folded',
                   help='write collapsed-stack flamegraph input '
                        '(implies --self-profile)')

    p = _command(sub, 'figure', cmd_figure,
                 help='regenerate one paper figure')
    p.add_argument('name', choices=sorted(FIGURE_NAMES))
    p.add_argument('--scale', choices=('test', 'bench'), default='bench')
    p.add_argument('--jobs', type=int, default=1, metavar='N',
                   help='run the figure\'s points across N worker '
                        'processes first (default 1 = serial)')
    p.add_argument('--store', metavar='DIR',
                   help='persistent result store directory')

    p = _command(sub, 'experiment', cmd_experiment,
                 help='run a JSON experiment file')
    p.add_argument('file')
    p.add_argument('--jobs', type=int, default=1, metavar='N',
                   help='worker processes for the point sweep (default 1)')
    p.add_argument('--store', metavar='DIR',
                   help='persistent result store directory')

    p = _command(sub, 'sweep', cmd_sweep,
                 help='execute figure sweeps as a resumable parallel job '
                      'manifest')
    p.add_argument('figures', nargs='+', choices=sorted(FIGURE_NAMES),
                   metavar='FIGURE',
                   help='figures whose points to execute '
                        f'({", ".join(sorted(FIGURE_NAMES))})')
    p.add_argument('--scale', choices=('test', 'bench'), default='bench')
    _add_shared_args(p, '--jobs', '--store')
    p.add_argument('--manifest', default='sweep-manifest.json',
                   metavar='PATH', help='manifest path '
                                        '(default sweep-manifest.json)')
    p.add_argument('--resume', action='store_true',
                   help='reload the manifest and run only pending/failed '
                        'points')
    _add_shared_args(p, '--no-cache', '--timeout')
    p.add_argument('--retries', type=int, default=1, metavar='K',
                   help='retries after a crash/timeout (default 1)')
    p.add_argument('--report', metavar='OUT.json',
                   help='write the sweep report artifact')
    p.add_argument('--render', action='store_true',
                   help='render the swept figures afterwards (all cache '
                        'hits)')
    p.add_argument('--benches', metavar='A,B,...',
                   help='restrict the benchmark set (comma-separated)')

    p = _command(sub, 'serve', cmd_serve,
                 help='replay a kernel-request trace on one multi-tenant '
                      'fabric')
    p.add_argument('trace_file', nargs='?', metavar='TRACE.json',
                   help='request trace to replay (omit to generate a '
                        'seeded trace)')
    _add_trace_args(p, requests=8)
    p.add_argument('--save-trace', metavar='OUT.json',
                   help='also write the (generated) trace file')
    p.add_argument('--report', metavar='OUT.json',
                   help='write the schema-checked serving report')
    p.add_argument('--store', metavar='DIR',
                   help='persist the serving report in a result store')
    p.add_argument('--perfetto', metavar='OUT.json',
                   help='write a Chrome trace with per-core request/'
                        'group annotation')
    p.add_argument('--metrics-out', metavar='OUT.jsonl',
                   help='attach the observability plane and write '
                        'periodic metric snapshots as JSONL')
    p.add_argument('--heatmaps', action='store_true',
                   help='attach the observability plane and print '
                        'NoC/LLC/inet congestion heatmaps')
    p.add_argument('--snapshot-interval', type=int, default=5000,
                   metavar='CYCLES',
                   help='cycles between metric snapshots (default 5000)')
    p.add_argument('--slo', metavar='POLICY.json',
                   help='evaluate an SLO threshold policy; exit 2 on '
                        'fail (see docs/observability.md)')

    p = _command(sub, 'fleet', cmd_fleet,
                 help='run a sharded fabric fleet under open-loop traffic')
    p.add_argument('trace_file', nargs='?', metavar='TRACE.json',
                   help='request trace to replay (omit to generate '
                        'seeded open-loop traffic)')
    _add_trace_args(p, requests=24, noun='traffic')
    p.add_argument('--pattern', default='mixed',
                   choices=('steady', 'diurnal', 'bursty', 'mixed'),
                   help='arrival process (default mixed: diurnal wave '
                        '+ bursts, heavy-tailed sizes)')
    p.add_argument('--shards', type=int, default=3, metavar='N',
                   help='initial fleet size (default 3)')
    p.add_argument('--epoch-cycles', type=int, default=50_000,
                   metavar='CYCLES',
                   help='router hand-off quantum (default 50000)')
    p.add_argument('--shard-queue-cap', type=int, default=8, metavar='N',
                   help='per-shard backlog cap before backpressure '
                        '(default 8)')
    p.add_argument('--max-queue', type=int, default=256, metavar='N',
                   help='router queue cap; admission control rejects '
                        'beyond it (default 256)')
    p.add_argument('--workers', type=int, default=4, metavar='N',
                   help='concurrent shard worker processes (default 4)')
    p.add_argument('--worker-timeout', type=float, default=None,
                   metavar='SEC',
                   help='wall-clock budget per shard batch')
    p.add_argument('--autoscale', metavar='POLICY.json',
                   help="SLO-driven autoscaling policy file, or "
                        "'default' for the built-in thresholds")
    p.add_argument('--slo', metavar='POLICY.json',
                   help='evaluate an SLO threshold policy against the '
                        'fleet summary; exit 2 on fail')
    p.add_argument('--crash', action='append', metavar='SHARD@EPOCH',
                   help='inject a worker SIGKILL into a shard batch '
                        '(repeatable); its requests are re-routed')
    p.add_argument('--no-affinity', action='store_true',
                   help='disable job-key affinity (pure '
                        'join-shortest-queue)')
    p.add_argument('--metrics-out', metavar='OUT.jsonl',
                   help='write per-epoch fleet metric snapshots as '
                        'JSONL')
    p.add_argument('--report', metavar='OUT.json',
                   help='write the schema-checked cross-shard fleet '
                        'report')
    p.add_argument('--flight', metavar='DIR',
                   help='attach the flight layer: distributed-trace '
                        'journal, black-box event ring, anomaly '
                        'detection, and POSTMORTEM_* dumps on crash/'
                        'deadlock/SLO-fail, all written under DIR')
    p.add_argument('--flight-label', default='fleet', metavar='LABEL',
                   help='label embedded in flight artifacts '
                        '(default fleet)')
    p.add_argument('--flight-ring', type=int, default=256, metavar='N',
                   help='black-box event ring capacity (default 256)')
    p.add_argument('--shard-metrics-dir', metavar='DIR',
                   help='each shard worker appends observe-plane '
                        'snapshots to DIR/shard<N>.jsonl (feeds '
                        '`repro top --fleet DIR`)')
    p.add_argument('--snapshot-interval', type=int, default=5000,
                   metavar='CYCLES',
                   help='cycles between shard metric snapshots '
                        '(default 5000)')

    p = _command(sub, 'top', cmd_top,
                 help='serve a trace with a live terminal dashboard '
                      'attached')
    p.add_argument('trace_file', nargs='?', metavar='TRACE.json',
                   help='request trace to replay (omit to generate a '
                        'seeded trace)')
    _add_trace_args(p, requests=8)
    p.add_argument('--refresh', type=int, default=5000, metavar='CYCLES',
                   help='simulated cycles between dashboard frames '
                        '(default 5000)')
    p.add_argument('--metrics-out', metavar='OUT.jsonl',
                   help='also write JSONL metric snapshots')
    p.add_argument('--fleet', metavar='DIR',
                   help='fleet mode: tail the per-shard JSONL snapshot '
                        'streams under DIR (from `repro fleet '
                        '--shard-metrics-dir`) and render an aggregated '
                        'per-shard dashboard instead of serving a trace')

    p = sub.add_parser('trace', help='merge/export/inspect fleet '
                                     'flight journals')
    tsub = p.add_subparsers(dest='trace_command', required=True)
    pt = _command(tsub, 'merge', cmd_trace_merge,
                  help='merge journal(s) into one Perfetto trace')
    pt.add_argument('journals', nargs='+', metavar='FLIGHT.jsonl')
    pt.add_argument('--out', required=True, metavar='OUT.json',
                    help='merged Chrome trace-event JSON path')
    pt = _command(tsub, 'export', cmd_trace_export,
                  help='export one trace_id as a Perfetto trace')
    pt.add_argument('journal', metavar='FLIGHT.jsonl')
    pt.add_argument('--trace-id', required=True, metavar='TID')
    pt.add_argument('--out', required=True, metavar='OUT.json')
    pt = _command(tsub, 'inspect', cmd_trace_inspect,
                  help='print span trees + continuity verdicts')
    pt.add_argument('journal', metavar='FLIGHT.jsonl')
    pt.add_argument('--trace-id', metavar='TID',
                    help='restrict to one trace (default: all)')

    p = sub.add_parser('postmortem', help='validate/dump POSTMORTEM_* '
                                          'artifacts')
    psub = p.add_subparsers(dest='postmortem_command', required=True)
    pp = _command(psub, 'validate', cmd_postmortem_validate,
                  help='schema-check a post-mortem')
    pp.add_argument('file', metavar='POSTMORTEM.json')
    pp = _command(psub, 'dump', cmd_report,
                  help='schema-check + render a post-mortem')
    pp.add_argument('file', metavar='POSTMORTEM.json')

    p = sub.add_parser('dse', help='analytical fast-path: calibrate the '
                                   'model, explore config spaces, '
                                   'simulate only the Pareto frontier')
    dsub = p.add_subparsers(dest='dse_command', required=True)

    pd = _command(dsub, 'calibrate', cmd_dse_calibrate,
                  help='fit model coefficients against simulator ground '
                       'truth; write CALIB_*.json')
    pd.add_argument('--kernels', metavar='A,B,...',
                    help='kernels to calibrate (default: the full '
                         'modeled suite)')
    pd.add_argument('--smoke', action='store_true',
                    help='small 3-kernel suite (CI mode)')
    pd.add_argument('--scale', choices=('test', 'bench'), default='test')
    pd.add_argument('--configs', metavar='V4,V16,...',
                    help='vector configs in the grid (default V4,V16)')
    pd.add_argument('--depths', metavar='4,5,8',
                    help='frame-counter depths in the grid '
                         '(default 4,5,8; must be >= 4)')
    pd.add_argument('--banks', metavar='4,16',
                    help='LLC bank counts in the grid (default 4,16)')
    _add_dse_artifact_args(pd, 'CALIB')
    pd.add_argument('--max-mape', type=float, default=None, metavar='PCT',
                    help='error gate: exit 2 when overall median APE '
                         'exceeds this percentage')

    pd = _command(dsub, 'explore', cmd_dse_explore,
                  help='triage a config space analytically; simulate '
                       'only the Pareto frontier; write DSE_*.json')
    pd.add_argument('benchmark', help='kernel to explore')
    _add_shared_args(pd, '--calib')
    pd.add_argument('--space', choices=('default', 'small'),
                    default='default',
                    help='axes grid: default (576 points) or small '
                         '(8-point CI smoke)')
    pd.add_argument('--scale', choices=('test', 'bench'), default='test')
    pd.add_argument('--no-simulate', action='store_true',
                    help='skip frontier re-simulation (pure triage)')
    _add_dse_artifact_args(pd, 'DSE')

    pd = _command(dsub, 'predict', cmd_dse_predict,
                  help='predict one point in closed form (no simulation)')
    pd.add_argument('benchmark')
    pd.add_argument('config')
    pd.add_argument('--scale', choices=('test', 'bench'), default='test')
    _add_shared_args(pd, '--calib')
    for flag, field, metavar, help_ in _MACHINE_FLAGS:
        pd.add_argument(flag, dest=field, type=int, metavar=metavar,
                        help=help_)

    pd = _command(dsub, 'report', cmd_report,
                  help='validate + render a CALIB_*/DSE_* artifact')
    pd.add_argument('file')

    _command(sub, 'version', cmd_version,
             help='print package version + provenance salts')

    p = _command(sub, 'report', cmd_report,
                 help='validate + summarize a run report')
    p.add_argument('file')

    p = _command(sub, 'compare', cmd_compare,
                 help='diff two run reports; nonzero exit on regression')
    p.add_argument('a')
    p.add_argument('b')
    p.add_argument('--threshold', type=float, default=0.02,
                   help='relative regression threshold (default 0.02)')

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except _Exit as exc:
        if str(exc):
            print(exc, file=sys.stderr)
        return exc.code
    return 0


if __name__ == '__main__':
    sys.exit(main())
